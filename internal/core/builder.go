package core

import (
	"math"

	"l2q/internal/corpus"
	"l2q/internal/graph"
	"l2q/internal/textproc"
	"l2q/internal/types"
)

// graphBuilder assembles a reinforcement graph over pages, queries and
// templates, shared by the domain phase (§IV-B) and entity phase (§IV-C).
// Pages and queries must be added before edges; template nodes and
// query–template edges are created automatically when queries are added
// (provided a recognizer is present).
type graphBuilder struct {
	cfg Config
	rec types.Recognizer // nil disables templates
	g   *graph.Graph

	pages     []*corpus.Page
	pageNode  map[corpus.PageID]graph.NodeID
	queries   map[Query]graph.NodeID
	queryList []Query
	queryToks map[Query][]textproc.Token
	templates map[string]graph.NodeID
	// detached marks queries retired from the graph (fired queries in a
	// persistent session graph); their vertices are isolated and must
	// not receive new edges.
	detached map[Query]bool

	// queryTemplates maps a query to its template keys, for the counting
	// statistics of the collective utilities.
	queryTemplates map[Query][]string

	// engine, when non-nil and cfg.WeightByLikelihood is set, supplies
	// retrieval-model edge weights; otherwise edges weigh 1.
	engine Retriever
}

func newGraphBuilder(cfg Config, rec types.Recognizer) *graphBuilder {
	return &graphBuilder{
		cfg:            cfg,
		rec:            rec,
		g:              graph.New(),
		pageNode:       make(map[corpus.PageID]graph.NodeID),
		queries:        make(map[Query]graph.NodeID),
		queryToks:      make(map[Query][]textproc.Token),
		templates:      make(map[string]graph.NodeID),
		queryTemplates: make(map[Query][]string),
	}
}

// addPage registers a page vertex (idempotent).
func (b *graphBuilder) addPage(p *corpus.Page) {
	if _, ok := b.pageNode[p.ID]; ok {
		return
	}
	id := b.g.AddNode(graph.KindPage)
	b.pageNode[p.ID] = id
	b.pages = append(b.pages, p)
}

// addQuery registers a query vertex (idempotent) along with its template
// vertices and query–template edges.
func (b *graphBuilder) addQuery(q Query) {
	if _, ok := b.queries[q]; ok {
		return
	}
	qid := b.g.AddNode(graph.KindQuery)
	b.queries[q] = qid
	b.queryList = append(b.queryList, q)
	toks := b.cfg.QueryTokens(q)
	b.queryToks[q] = toks
	if b.rec == nil {
		return
	}
	keys := templatesOf(toks, b.rec)
	b.queryTemplates[q] = keys
	for _, key := range keys {
		tid, ok := b.templates[key]
		if !ok {
			tid = b.g.AddNode(graph.KindTemplate)
			b.templates[key] = tid
		}
		b.g.AddEdgeQT(qid, tid, 1)
	}
}

// templateKeysOf returns the template keys abstracting a query.
func (b *graphBuilder) templateKeysOf(q Query) []string {
	return b.queryTemplates[q]
}

// edgeWeight is the page–query edge weight: 1 under containment
// semantics, or the retrieval model's per-token geometric-mean likelihood
// when likelihood weighting is on. Safe for concurrent use (the engine is
// concurrency-safe and page token caches are sync.Once-guarded).
func (b *graphBuilder) edgeWeight(p *corpus.Page, q Query) float64 {
	w := 1.0
	if b.cfg.WeightByLikelihood && b.engine != nil {
		toks := b.queryToks[q]
		if toks == nil {
			toks = b.cfg.QueryTokens(q)
		}
		ll := b.engine.QueryLikelihood(p, toks)
		w = math.Exp(ll / float64(len(toks)))
		if w <= 0 || math.IsNaN(w) {
			w = 1e-12
		}
	}
	return w
}

// addPQEdge connects a page and a query ("q can retrieve p").
func (b *graphBuilder) addPQEdge(p *corpus.Page, q Query) {
	b.g.AddEdgePQ(b.pageNode[p.ID], b.queries[q], b.edgeWeight(p, q))
}

// detachQuery retires a query from the graph (it was fired and left the
// candidate pool): every incident edge is removed, leaving the vertex
// isolated — which the fixpoint treats exactly as if it never existed.
func (b *graphBuilder) detachQuery(q Query) {
	id, ok := b.queries[q]
	if !ok || b.detached[q] {
		return
	}
	b.g.DetachQuery(id)
	if b.detached == nil {
		b.detached = make(map[Query]bool)
	}
	b.detached[q] = true
}

// connect adds page–query edges for the domain phase: each page connects to
// every registered query it contains (conjunctive containment).
func (b *graphBuilder) connect() {
	for _, p := range b.pages {
		for _, q := range b.queryList {
			if p.ContainsQuery(b.queryToks[q]) {
				b.addPQEdge(p, q)
			}
		}
	}
}

// regPair holds the page regularization vectors for both modes:
// P̂(p) = Y(p) (Eq. 11) and R̂(p) = Y(p)/ΣY (Eq. 12).
type regPair struct {
	precision []float64
	recall    []float64
}

// pageRegularization derives the regularization from a relevance function.
func (b *graphBuilder) pageRegularization(y func(*corpus.Page) bool) regPair {
	return b.pageRegularizationScored(func(p *corpus.Page) float64 {
		if y(p) {
			return 1
		}
		return 0
	})
}

// pageRegularizationScored is the paper's real-valued generalization of
// Eq. 11–12 (§I "more generally, Y can map a page to a real-valued
// relevance score"): P̂(p) = Y(p) clamped to [0,1], R̂(p) = Y(p)/Σ Y(p′).
// The binary case reduces to the familiar 1 and 1/|relevant|.
func (b *graphBuilder) pageRegularizationScored(score func(*corpus.Page) float64) regPair {
	n := b.g.NumNodes()
	pr := regPair{precision: make([]float64, n), recall: make([]float64, n)}
	total := 0.0
	for _, p := range b.pages {
		s := clamp01(score(p))
		pr.precision[b.pageNode[p.ID]] = s
		total += s
	}
	if total > 0 {
		for _, p := range b.pages {
			id := b.pageNode[p.ID]
			pr.recall[id] = pr.precision[id] / total
		}
	}
	return pr
}

// addTemplateReg adds λ·U_D(t) on template nodes to a copy of base
// (Eq. 21–22), pulling utilities from the given per-key map.
func (b *graphBuilder) addTemplateReg(base []float64, util map[string]float64, lambda float64) []float64 {
	out := make([]float64, len(base))
	copy(out, base)
	if util == nil {
		return out
	}
	for key, id := range b.templates {
		if u, ok := util[key]; ok {
			out[id] += lambda * u
		}
	}
	return out
}

// solve runs the fixpoint for one mode and regularization vector.
func (b *graphBuilder) solve(mode graph.Mode, reg []float64) ([]float64, error) {
	return b.solveWarm(mode, reg, nil)
}

// solveWarm is solve with an optional warm-start iterate x0 (the previous
// step's utilities; may be shorter than the grown graph — new nodes
// cold-start at their regularization). The fixpoint is unique, so x0
// affects convergence speed only.
func (b *graphBuilder) solveWarm(mode graph.Mode, reg, x0 []float64) ([]float64, error) {
	res, err := graph.Solve(graph.Problem{
		G:       b.g,
		Mode:    mode,
		Alpha:   b.cfg.Alpha,
		Reg:     reg,
		Tol:     b.cfg.SolverTol,
		MaxIter: b.cfg.SolverMaxIter,
		X0:      x0,
	})
	if err != nil {
		return nil, err
	}
	return res.U, nil
}
