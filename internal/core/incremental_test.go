package core

import (
	"math"
	"reflect"
	"testing"

	"l2q/internal/classify"
	"l2q/internal/corpus"
	"l2q/internal/search"
	"l2q/internal/synth"
	"l2q/internal/types"
)

// diffFixture is a per-domain fixture for the incremental-vs-reference
// differential tests.
type diffFixture struct {
	g      *synth.Generated
	engine *search.Engine
	rec    types.Recognizer
	aspect corpus.Aspect
	y      func(*corpus.Page) bool
	dm     *DomainModel
	target *corpus.Entity
}

func newDiffFixture(t *testing.T, domain corpus.Domain, aspect corpus.Aspect) *diffFixture {
	t.Helper()
	g, err := synth.Generate(synth.TestConfig(domain))
	if err != nil {
		t.Fatal(err)
	}
	engine := search.NewEngine(search.BuildIndex(g.Corpus.Pages))
	rec := types.Chain{g.KB, types.NewRegexRecognizer()}
	y := func(p *corpus.Page) bool { return classify.GroundTruth(p, aspect) }

	n := g.Corpus.NumEntities()
	var domainIDs []corpus.EntityID
	for i := 0; i < n/2; i++ {
		domainIDs = append(domainIDs, g.Corpus.Entities[i].ID)
	}
	cfg := DefaultConfig()
	cfg.Tokenizer = g.Tokenizer
	dm, err := LearnDomain(cfg, aspect, g.Corpus, domainIDs, y, rec)
	if err != nil {
		t.Fatal(err)
	}
	return &diffFixture{
		g: g, engine: engine, rec: rec, aspect: aspect, y: y, dm: dm,
		target: g.Corpus.Entities[n-1],
	}
}

// diffConfig returns the base config for differential runs: solver
// tolerance tightened so that solve-order differences (the incremental
// graph appends nodes in a different order than a rebuild) stay far below
// the 1e-9 drift budget.
func (f *diffFixture) diffConfig() Config {
	cfg := DefaultConfig()
	cfg.Tokenizer = f.g.Tokenizer
	cfg.SolverTol = 1e-12
	return cfg
}

func (f *diffFixture) sessionWith(cfg Config, dm *DomainModel) *Session {
	return NewSession(cfg, f.engine, f.target, f.aspect, f.y, dm, f.rec, 42)
}

func diffDomains(t *testing.T) map[string]*diffFixture {
	t.Helper()
	return map[string]*diffFixture{
		"researchers": newDiffFixture(t, synth.DomainResearchers, synth.AspResearch),
		"cars":        newDiffFixture(t, synth.DomainCars, synth.AspSafety),
	}
}

// inferCases are the InferOptions signatures the §VI-B strategy ablations
// exercise: P/R (basic), P+t/R+t (templates), L2QP/L2QR/L2QBAL
// (templates + collective), plus collective-without-templates for
// completeness.
var inferCases = []struct {
	name string
	opts InferOptions
}{
	{"basic", InferOptions{}},
	{"templates", InferOptions{UseTemplates: true, UseDomainCandidates: true}},
	{"collective", InferOptions{Collective: true}},
	{"full", InferOptions{UseTemplates: true, UseDomainCandidates: true, Collective: true}},
}

// TestIncrementalMatchesReference drives an incremental session and a
// rebuild-per-step reference session in lockstep over several steps and
// holds every utility vector to ≤1e-9 drift and every ranking decision to
// exact equality — for each ablation signature, on both domains.
func TestIncrementalMatchesReference(t *testing.T) {
	const steps = 4
	const maxDrift = 1e-9
	for domain, f := range diffDomains(t) {
		for _, tc := range inferCases {
			t.Run(domain+"/"+tc.name, func(t *testing.T) {
				incCfg := f.diffConfig()
				incCfg.IncrementalGraph = true
				incCfg.WarmStart = true
				refCfg := f.diffConfig()
				refCfg.IncrementalGraph = false
				refCfg.WarmStart = false
				refCfg.IncrementalPool = false

				inc := f.sessionWith(incCfg, f.dm)
				ref := f.sessionWith(refCfg, f.dm)
				inc.Bootstrap()
				ref.Bootstrap()

				for step := 0; step < steps; step++ {
					a, err := inc.Infer(tc.opts)
					if err != nil {
						t.Fatal(err)
					}
					b, err := ref.InferReference(tc.opts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(a.Queries, b.Queries) {
						t.Fatalf("step %d: candidate pools differ (%d vs %d queries)",
							step, len(a.Queries), len(b.Queries))
					}
					compareVec(t, step, "P", a.P, b.P, maxDrift)
					compareVec(t, step, "R", a.R, b.R, maxDrift)
					compareVec(t, step, "CollR", a.CollR, b.CollR, maxDrift)
					compareVec(t, step, "CollRStar", a.CollRStar, b.CollRStar, maxDrift)
					compareVec(t, step, "CollP", a.CollP, b.CollP, maxDrift)

					// Ranking decisions must agree exactly.
					for _, vals := range [][2][]float64{{a.P, b.P}, {a.R, b.R}, {a.CollP, b.CollP}, {a.CollR, b.CollR}} {
						if vals[0] == nil {
							continue
						}
						ba, bb := a.ArgMax(vals[0]), b.ArgMax(vals[1])
						if ba != bb {
							t.Fatalf("step %d: rankings diverge: incremental picks %q, reference %q",
								step, a.Queries[ba], b.Queries[bb])
						}
					}

					// Fire the reference's top-R choice on both sessions.
					pick := b.Queries[b.ArgMax(b.R)]
					inc.Fire(pick)
					ref.Fire(pick)
				}
			})
		}
	}
}

func compareVec(t *testing.T, step int, name string, a, b []float64, maxDrift float64) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("step %d: %s computed on one path only", step, name)
	}
	if len(a) != len(b) {
		t.Fatalf("step %d: %s lengths differ: %d vs %d", step, name, len(a), len(b))
	}
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > maxDrift || math.IsNaN(d) {
			t.Fatalf("step %d: %s[%d] drift %.3g (incremental %.15f vs reference %.15f)",
				step, name, i, d, a[i], b[i])
		}
	}
}

// TestIncrementalSelectionsMatchReference runs every §VI strategy end to
// end under both paths and requires identical fired-query sequences —
// including the P+q/R+q selectors that bypass Infer (their sessions still
// share the Fire/ingest machinery).
func TestIncrementalSelectionsMatchReference(t *testing.T) {
	selectors := []func() Selector{
		NewP, NewR, NewPQ, NewRQ, NewPT, NewRT, NewL2QP, NewL2QR, NewL2QBAL,
	}
	for domain, f := range diffDomains(t) {
		for _, mk := range selectors {
			sel := mk()
			t.Run(domain+"/"+sel.Name(), func(t *testing.T) {
				incCfg := f.diffConfig()
				refCfg := f.diffConfig()
				refCfg.IncrementalGraph = false
				refCfg.WarmStart = false
				refCfg.IncrementalPool = false

				fired := f.sessionWith(incCfg, f.dm).Run(sel, 3)
				want := f.sessionWith(refCfg, f.dm).Run(sel, 3)
				if !reflect.DeepEqual(fired, want) {
					t.Fatalf("fired %v, reference fired %v", fired, want)
				}
				if len(fired) == 0 {
					t.Fatal("no queries fired")
				}
			})
		}
	}
}

// TestIncrementalMatchesReferenceAcrossSolvers repeats the lockstep
// comparison with likelihood-weighted edges, so the warm-started solver
// is also covered on non-binary edge weights.
func TestIncrementalMatchesReferenceAcrossSolvers(t *testing.T) {
	f := newDiffFixture(t, synth.DomainResearchers, synth.AspResearch)
	variants := map[string]func(*Config){
		"likelihood": func(c *Config) { c.WeightByLikelihood = true },
	}
	opts := InferOptions{UseTemplates: true, UseDomainCandidates: true, Collective: true}
	for name, mutate := range variants {
		t.Run(name, func(t *testing.T) {
			incCfg := f.diffConfig()
			mutate(&incCfg)
			refCfg := incCfg
			refCfg.IncrementalGraph = false
			refCfg.WarmStart = false
			refCfg.IncrementalPool = false

			inc := f.sessionWith(incCfg, f.dm)
			ref := f.sessionWith(refCfg, f.dm)
			inc.Bootstrap()
			ref.Bootstrap()
			for step := 0; step < 3; step++ {
				a, err := inc.Infer(opts)
				if err != nil {
					t.Fatal(err)
				}
				b, err := ref.InferReference(opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a.Queries, b.Queries) {
					t.Fatalf("step %d: candidate pools differ", step)
				}
				compareVec(t, step, "P", a.P, b.P, 1e-9)
				compareVec(t, step, "R", a.R, b.R, 1e-9)
				compareVec(t, step, "CollR", a.CollR, b.CollR, 1e-9)
				if ba, bb := a.ArgMax(a.CollR), b.ArgMax(b.CollR); ba != bb {
					t.Fatalf("step %d: rankings diverge", step)
				}
				pick := b.Queries[b.ArgMax(b.CollR)]
				inc.Fire(pick)
				ref.Fire(pick)
			}
		})
	}
}

// TestIncrementalWorkerCountInvariance: the inference worker pool is a
// pure performance knob — every worker count computes identical utilities.
func TestIncrementalWorkerCountInvariance(t *testing.T) {
	f := newDiffFixture(t, synth.DomainResearchers, synth.AspResearch)
	opts := InferOptions{UseTemplates: true, UseDomainCandidates: true, Collective: true}
	run := func(workers int) *Inference {
		cfg := f.diffConfig()
		cfg.InferWorkers = workers
		s := f.sessionWith(cfg, f.dm)
		s.Bootstrap()
		s.Fire(Query("parallel computing"))
		inf, err := s.Infer(opts)
		if err != nil {
			t.Fatal(err)
		}
		return inf
	}
	serial := run(1)
	for _, w := range []int{2, 3, 8} {
		par := run(w)
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("workers=%d computed different utilities than serial", w)
		}
	}
}

// TestIncrementalGraphReuse pins the point of the refactor: across steps
// the session keeps one graph (same builder), only grows it, and detaches
// fired queries rather than rebuilding.
func TestIncrementalGraphReuse(t *testing.T) {
	f := newDiffFixture(t, synth.DomainResearchers, synth.AspResearch)
	cfg := f.diffConfig()
	s := f.sessionWith(cfg, f.dm)
	s.Bootstrap()
	opts := InferOptions{UseTemplates: true, UseDomainCandidates: true, Collective: true}
	if _, err := s.Infer(opts); err != nil {
		t.Fatal(err)
	}
	sg := s.sg
	if sg == nil {
		t.Fatal("no session graph after Infer")
	}
	nodes := sg.b.g.NumNodes()

	inf, err := s.Infer(opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.sg != sg {
		t.Fatal("second Infer rebuilt the session graph")
	}
	if sg.b.g.NumNodes() != nodes {
		t.Fatalf("no-op Infer grew the graph: %d → %d nodes", nodes, sg.b.g.NumNodes())
	}

	// Fire the top candidate: its vertex must be detached, not the graph
	// rebuilt, and the node count may only grow (new pages/candidates).
	pick := inf.Queries[inf.ArgMax(inf.R)]
	s.Fire(pick)
	if _, err := s.Infer(opts); err != nil {
		t.Fatal(err)
	}
	if s.sg != sg {
		t.Fatal("post-fire Infer rebuilt the session graph")
	}
	if sg.b.g.NumNodes() < nodes {
		t.Fatal("node count shrank")
	}
	if !sg.b.detached[pick] {
		t.Fatalf("fired query %q not detached", pick)
	}
	if id, ok := sg.b.queries[pick]; ok && sg.b.g.Degree(id) != 0 {
		t.Fatalf("fired query %q keeps %d edges", pick, sg.b.g.Degree(id))
	}

	// Switching the options signature rebuilds (different graph shape).
	if _, err := s.Infer(InferOptions{}); err != nil {
		t.Fatal(err)
	}
	if s.sg == sg {
		t.Fatal("options switch did not rebuild the session graph")
	}
}

// TestArgMaxSkipsNonFinite is the regression test for the NaN bug: a NaN
// at index 0 used to win every comparison by default.
func TestArgMaxSkipsNonFinite(t *testing.T) {
	inf := &Inference{Queries: []Query{"a", "b", "c", "d"}}
	nan := math.NaN()
	cases := []struct {
		vals []float64
		want int
	}{
		{[]float64{nan, 0.2, 0.7, 0.1}, 2},
		{[]float64{nan, nan, nan, 0.1}, 3},
		{[]float64{math.Inf(1), 0.2, 0.1, 0.0}, 1},
		{[]float64{math.Inf(-1), -0.5, nan, -0.2}, 3},
		{[]float64{nan, nan, nan, nan}, -1},
		{[]float64{0.3, 0.3, 0.1, nan}, 0}, // tie → lexicographic query
		{nil, -1},
	}
	for i, tc := range cases {
		if got := inf.ArgMax(tc.vals); got != tc.want {
			t.Errorf("case %d: ArgMax(%v) = %d, want %d", i, tc.vals, got, tc.want)
		}
	}
}
