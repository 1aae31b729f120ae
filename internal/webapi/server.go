// Package webapi puts the search engine behind a real HTTP boundary.
//
// The paper's harvester talks to a commercial search API and downloads
// result pages over the network (§I: "querying a search engine and
// downloading the result pages ... require significant time and bandwidth,
// as well as a considerable financial cost to access commercial search
// APIs"). In the experiments that boundary is simulated in-process; this
// package makes it literal: Server exposes the corpus + engine as a JSON
// search API plus rendered HTML pages, and Client implements core.Retriever
// over that API — searching remotely, downloading pages as HTML, segmenting
// them with internal/html, and reproducing the engine's Dirichlet scoring
// locally from fetched collection statistics.
package webapi

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"l2q/internal/corpus"
	"l2q/internal/html"
	"l2q/internal/pipeline"
	"l2q/internal/search"
	"l2q/internal/store"
	"l2q/internal/textproc"
)

// Stats is the /api/stats payload: everything a client needs to reproduce
// the engine's scoring and paging behavior.
type Stats struct {
	Domain      string  `json:"domain"`
	NumEntities int     `json:"numEntities"`
	NumPages    int     `json:"numPages"`
	NumTerms    int     `json:"numTerms"`
	TotalTokens int     `json:"totalTokens"`
	Mu          float64 `json:"mu"`
	TopK        int     `json:"topK"`
}

// SearchHit is one result in the /api/search payload.
type SearchHit struct {
	PageID corpus.PageID `json:"pageId"`
	URL    string        `json:"url"`
	Title  string        `json:"title"`
	Score  float64       `json:"score"`
}

// SearchResponse is the /api/search payload.
type SearchResponse struct {
	Query string      `json:"query"`
	Seed  string      `json:"seed,omitempty"`
	Hits  []SearchHit `json:"hits"`
	// Partial is set by a cluster coordinator when one or more partitions
	// had no reachable owner before the per-node deadline: the hits are a
	// correct ranking of the partitions that answered, flagged rather
	// than silently passed off as the full corpus ranking.
	Partial bool `json:"partial,omitempty"`
}

// EntityInfo is one row of the /api/entities payload.
type EntityInfo struct {
	ID        corpus.EntityID `json:"id"`
	Name      string          `json:"name"`
	SeedQuery string          `json:"seedQuery"`
}

// Server serves one backend over HTTP: a corpus and engine (NewServer:
// frozen; NewLiveServer: live generational index) or a cluster
// (NewCoordinatorServer). Start/Shutdown it, or mount Handler on your own
// server. Server is safe for concurrent requests: a frozen corpus and
// engine are immutable, a live server serializes corpus growth behind the
// backend's lock while searches run lock-free against the live engine's
// epoch views, and a coordinator holds no mutable corpus at all.
type Server struct {
	be backend

	// Log receives one line per request when non-nil.
	Log *log.Logger
	// MaxConcurrent bounds in-flight requests (default 64): a request past
	// the bound waits for a slot. Ignored when MaxInFlight is set. Set it
	// before the first request; later changes are ignored.
	MaxConcurrent int
	// MaxInFlight, when > 0, replaces the MaxConcurrent bound with
	// admission control: a request arriving while MaxInFlight others are
	// in flight is shed immediately with 429 and the retryable error
	// envelope instead of queueing (/healthz is exempt so probes see an
	// overloaded server as alive). It also becomes the default MaxActive
	// of the shared harvest scheduler, so admission and job concurrency
	// degrade together. Set it before the first request; later changes
	// are ignored.
	MaxInFlight int
	// Harvest, when non-nil, enables the POST /api/v1/harvest batch
	// endpoint (server-side pipelined sessions with streamed progress)
	// and the asynchronous jobs API (POST/GET/DELETE /api/v1/jobs). A
	// coordinator server hosts no sessions and answers both 501.
	Harvest *HarvestBackend
	// WireDisabled turns off binary-frame negotiation: the server
	// answers every request in JSON regardless of Accept (the mixed-
	// version/debug posture).
	WireDisabled bool
	// CompressMin is the gzip threshold for wire-frame payloads: frames
	// at least this large are compressed. 0 picks DefaultCompressMin;
	// negative disables compression entirely.
	CompressMin int
	// Node, when non-nil, marks this server as one node of a doc-
	// partitioned cluster and enables the /api/v1/cluster/* endpoints
	// (partition-local search, stat registration/push). The regular
	// endpoints keep serving the node's full local corpus store.
	Node *ClusterNode

	// sem is the one admission semaphore, sized on first use (see
	// semaphore); shedding reports whether it try-acquires (MaxInFlight)
	// or blocks (MaxConcurrent), and shed counts requests rejected at it.
	semOnce  sync.Once
	sem      chan struct{}
	shedding bool
	shed     atomic.Int64

	http *http.Server
	// newConns holds the accepted connections that have not sent a
	// request yet, which Shutdown closes (see trackConn).
	connsMu  sync.Mutex
	newConns map[net.Conn]struct{}

	// sched is the ONE shared pipeline scheduler every harvest (sync and
	// async) runs on, created lazily from the backend's worker knobs and
	// closed by Shutdown.
	schedMu sync.Mutex
	sched   *pipeline.Scheduler

	// jobs is the async jobs registry (see jobs.go).
	jobsMu  sync.Mutex
	jobsSeq int
	jobs    map[string]*serverJob

	// requests counts every request served (the /api/metrics counter).
	requests atomic.Int64

	// ctx is canceled by Shutdown so long-lived streaming handlers (the
	// batch-harvest endpoint, job event streams) terminate and let the
	// graceful drain finish.
	ctx    context.Context
	cancel context.CancelFunc
}

// scheduler returns the server's shared pipeline scheduler, starting it
// on first use from the harvest backend's worker configuration.
func (s *Server) scheduler() *pipeline.Scheduler {
	s.schedMu.Lock()
	defer s.schedMu.Unlock()
	if s.sched == nil {
		cfg := pipeline.Config{}
		if s.Harvest != nil {
			cfg.SelectWorkers = s.Harvest.SelectWorkers
			cfg.FetchWorkers = s.Harvest.FetchWorkers
			cfg.MaxActive = s.Harvest.MaxActive
		}
		if cfg.MaxActive == 0 && s.MaxInFlight > 0 {
			// Admission control extends to job concurrency: excess jobs
			// wait in the scheduler's FIFO instead of thrashing workers.
			cfg.MaxActive = s.MaxInFlight
		}
		s.sched = pipeline.New(cfg)
	}
	return s.sched
}

// NewServer wires a server over a corpus and its engine.
func NewServer(c *corpus.Corpus, engine *search.Engine) *Server {
	return newServer(newLocalBackend(c, engine, nil, nil))
}

func newServer(be backend) *Server {
	//l2qvet:ignore ctxbg server-lifetime root: this ctx outlives every request and is canceled by Shutdown's drain
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{be: be, MaxConcurrent: 64, ctx: ctx, cancel: cancel}
}

// NewLiveServer wires a server over a live generational engine: the
// corpus is the engine's bootstrap page set, POST /api/v1/ingest grows
// both, and every retrieval endpoint serves from the engine's current
// epoch view. tok must be the tokenizer that produced the corpus tokens —
// ingested paragraph text is tokenized server-side with it, which is what
// keeps a grown index byte-identical in rankings to a frozen rebuild.
func NewLiveServer(c *corpus.Corpus, live *search.LiveEngine, tok *textproc.Tokenizer) *Server {
	if tok == nil {
		tok = &textproc.Tokenizer{}
	}
	return newServer(newLocalBackend(c, live, live, tok))
}

// semaphore returns the admission semaphore, sized once on first use:
// MaxInFlight when set (shedding), MaxConcurrent otherwise. The once-guard
// makes concurrent Handler() calls race-free.
func (s *Server) semaphore() chan struct{} {
	s.semOnce.Do(func() {
		n := s.MaxConcurrent
		if s.MaxInFlight > 0 {
			n, s.shedding = s.MaxInFlight, true
		}
		if n <= 0 {
			n = 64
		}
		s.sem = make(chan struct{}, n)
	})
	return s.sem
}

// writeTimeout bounds response writes. It is applied per request (and, on
// the event streams, rolled forward per event) instead of as a
// server-wide WriteTimeout, which would sever streams that outlive one
// fixed deadline. Route-specific treatment (streams exempt, everything
// else bounded) lives in the route registry — see routes.go.
const writeTimeout = 30 * time.Second

// inflightSem returns the semaphore when it sheds (MaxInFlight set), nil
// when requests queue for it instead.
func (s *Server) inflightSem() chan struct{} {
	if sem := s.semaphore(); s.shedding {
		return sem
	}
	return nil
}

// Shed reports how many requests admission control has rejected with 429.
func (s *Server) Shed() int64 { return s.shed.Load() }

// limit applies the admission semaphore — a fast 429 shed past
// MaxInFlight, or a wait for one of MaxConcurrent slots — and request
// logging. Per-route write deadlines are applied by instrument() from the
// route registry.
func (s *Server) limit(next http.Handler) http.Handler {
	sem, shedding := s.semaphore(), s.shedding
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case !shedding:
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-r.Context().Done():
				writeError(w, http.StatusServiceUnavailable, "canceled while waiting for a concurrency slot")
				return
			}
		case r.URL.Path != "/healthz":
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			default:
				// Shed instead of queueing: the client's retry (the
				// envelope is retryable) is cheaper than a convoy here.
				s.shed.Add(1)
				writeError(w, http.StatusTooManyRequests, "server at max in-flight requests")
				return
			}
		}
		s.requests.Add(1)
		start := time.Now()
		next.ServeHTTP(w, r)
		if s.Log != nil {
			s.Log.Printf("%s %s %s", r.Method, r.URL.RequestURI(), time.Since(start))
		}
	})
}

// Start begins listening on addr (e.g. "127.0.0.1:8080"; ":0" picks a free
// port) and serves until Shutdown. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("webapi: listen %s: %w", addr, err)
	}
	s.http = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		// No server-wide WriteTimeout: /api/harvest streams NDJSON for as
		// long as the batch runs. The limit middleware applies a per-
		// request write deadline to every other route, and the harvest
		// handler rolls its own deadline forward per emitted event.
		IdleTimeout: 60 * time.Second,
		ConnState:   s.trackConn,
	}
	go func() {
		if err := s.http.Serve(ln); err != nil && err != http.ErrServerClosed && s.Log != nil {
			s.Log.Printf("webapi: serve: %v", err)
		}
	}()
	return ln.Addr().String(), nil
}

// trackConn is the ConnState hook behind Shutdown's bound: it keeps the
// set of connections that have not sent a request yet. net/http counts
// those as idle only after 5 s, so one silent client would otherwise
// stall every drain; Shutdown closes them instead, and a connection
// accepted after Shutdown began is closed on arrival.
func (s *Server) trackConn(c net.Conn, st http.ConnState) {
	s.connsMu.Lock()
	defer s.connsMu.Unlock()
	switch {
	case st != http.StateNew:
		delete(s.newConns, c)
	case s.ctx.Err() != nil:
		c.Close()
	default:
		if s.newConns == nil {
			s.newConns = make(map[net.Conn]struct{})
		}
		s.newConns[c] = struct{}{}
	}
}

// Shutdown cancels long-lived streaming handlers (in-flight batch
// harvests and job streams), closes connections that never sent a
// request, drains the rest, stops the shared harvest scheduler, and stops
// the server.
func (s *Server) Shutdown(ctx context.Context) error {
	s.cancel()
	s.connsMu.Lock()
	for c := range s.newConns {
		c.Close()
	}
	clear(s.newConns)
	s.connsMu.Unlock()
	var err error
	if s.http != nil {
		err = s.http.Shutdown(ctx)
	}
	s.schedMu.Lock()
	sched := s.sched
	s.schedMu.Unlock()
	if sched != nil {
		// Every batch context descends from s.ctx, so the jobs are
		// already aborting; Close reaps the worker pools.
		sched.Close()
	}
	return err
}

// ServerMetrics is the GET /api/metrics payload: server-side counters
// mirroring what ClientMetrics reports client-side.
type ServerMetrics struct {
	// Requests counts every HTTP request served since start.
	Requests int64 `json:"requests"`
	// InFlight is the number of requests currently holding a slot of the
	// admission semaphore.
	InFlight int `json:"inFlight"`
	// Shed counts requests rejected 429 by admission control (MaxInFlight);
	// MaxInFlight echoes the configured bound (0 = admission control off).
	Shed        int64 `json:"shed"`
	MaxInFlight int   `json:"maxInFlight,omitempty"`
	// Runtime reports the process-health gauges (heap in use, GC pause
	// tail, goroutines, cumulative allocations) so a load driver can
	// correlate latency with GC and derive server-side allocs/request.
	Runtime RuntimeMetrics `json:"runtime"`
	// Jobs counts the async jobs registry by state.
	Jobs map[string]int `json:"jobs,omitempty"`
	// Scheduler snapshots the shared harvest scheduler (queue depth,
	// active/parked jobs, unspent adaptive budget); absent until the
	// first harvest request starts it.
	Scheduler *pipeline.Stats `json:"scheduler,omitempty"`
	// Cluster reports the coordinator's fan-out gauges (per-node in-flight,
	// hedges fired, partials served); present only on coordinator servers.
	Cluster *ClusterMetrics `json:"cluster,omitempty"`
	// Live reports the generational engine's ingest-side gauges (segment
	// count, memtable size, epoch, compaction totals, cache epoch-
	// invalidations); present only on live servers.
	Live *search.LiveMetrics `json:"live,omitempty"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := ServerMetrics{
		Requests:    s.requests.Load(),
		InFlight:    len(s.semaphore()),
		Shed:        s.shed.Load(),
		MaxInFlight: s.MaxInFlight,
		Runtime:     readRuntimeMetrics(),
	}
	s.jobsMu.Lock()
	if len(s.jobs) > 0 {
		m.Jobs = make(map[string]int, 4)
		for _, j := range s.jobs {
			m.Jobs[j.stateName()]++
		}
	}
	s.jobsMu.Unlock()
	s.schedMu.Lock()
	sched := s.sched
	s.schedMu.Unlock()
	if sched != nil {
		st := sched.Stats()
		m.Scheduler = &st
	}
	s.be.addMetrics(&m)
	writeJSON(w, m)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing to do but drop the connection.
		return
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.be.Stats()
	s.respond(w, r, wireStats, func(e *store.Enc) { encodeStatsWire(e, st) }, st)
}

// queryParamTokens decodes one search-query parameter from a request. The
// legacy form is a single space-joined string (curl-friendly, and what
// pre-token-exact clients send); the token-exact form — signaled by
// tokq=1 — carries each token as its own repeated parameter value. The
// distinction matters because the tokenizer emits phrase tokens ("data
// mining" is ONE vocabulary term): a space split shatters those into
// out-of-vocabulary words and silently changes every Dirichlet score.
func queryParamTokens(qv url.Values, key string) []textproc.Token {
	if qv.Get("tokq") != "1" {
		if s := qv.Get(key); s != "" {
			return textproc.SplitQuery(s)
		}
		return nil
	}
	vals := qv[key]
	toks := make([]textproc.Token, 0, len(vals))
	for _, v := range vals {
		if v != "" {
			toks = append(toks, v)
		}
	}
	return toks
}

// searchParams parses the q/seed/k parameters every search route shares
// (k = 0 when absent: the serving engine's top-k). A non-empty errMsg is
// the 400 to answer with.
func searchParams(qv url.Values) (seed, query []textproc.Token, k int, errMsg string) {
	query = queryParamTokens(qv, "q")
	seed = queryParamTokens(qv, "seed")
	if len(query) == 0 && len(seed) == 0 {
		// A seed-only (or q-only) search is valid; only both-empty is not.
		return nil, nil, 0, "missing query: provide q and/or seed"
	}
	if kStr := qv.Get("k"); kStr != "" {
		var err error
		k, err = strconv.Atoi(kStr)
		if err != nil || k <= 0 || k > 100 {
			return nil, nil, 0, "bad k parameter"
		}
	}
	return seed, query, k, ""
}

// searchResponse converts ranked results into the search payload.
func searchResponse(seed, query []textproc.Token, res []search.Result) SearchResponse {
	resp := SearchResponse{Query: textproc.JoinQuery(query), Seed: textproc.JoinQuery(seed), Hits: make([]SearchHit, 0, len(res))}
	for _, h := range res {
		resp.Hits = append(resp.Hits, SearchHit{
			PageID: h.Page.ID, URL: h.Page.URL, Title: h.Page.Title, Score: h.Score,
		})
	}
	return resp
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	seed, query, k, errMsg := searchParams(r.URL.Query())
	if errMsg != "" {
		writeError(w, http.StatusBadRequest, errMsg)
		return
	}
	resp, err := s.be.search(r.Context(), seed, query, k)
	if err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	s.respond(w, r, wireSearch, func(e *store.Enc) { encodeSearchWire(e, resp) }, resp)
}

func (s *Server) handleCollFreq(w http.ResponseWriter, r *http.Request) {
	tokens := r.URL.Query().Get("tokens")
	if tokens == "" {
		writeError(w, http.StatusBadRequest, "missing tokens parameter")
		return
	}
	toks := strings.Split(tokens, ",")
	if len(toks) > 10000 {
		writeError(w, http.StatusBadRequest, "too many tokens")
		return
	}
	freqs := s.be.collFreqBatch(toks)
	s.respond(w, r, wireCollFreq, func(e *store.Enc) { encodeCollFreqWire(e, freqs) },
		map[string]map[string]int{"freqs": freqs})
}

func (s *Server) handleEntities(w http.ResponseWriter, r *http.Request) {
	out := s.be.Entities()
	s.respond(w, r, wireEntities, func(e *store.Enc) { encodeEntitiesWire(e, out) }, out)
}

// handlePage serves one corpus page at /page/{id} where {id} is
// "<n>.html" (the canonical html.PageHref form) or a bare numeric ID —
// as raw HTML by default, or as a wire frame carrying the identical
// bytes (gzipped past the threshold) when negotiated. Page bodies are
// the serving boundary's dominant transfer cost (one query fans out to
// top-K page downloads), which is why this is the payload the compress
// threshold is aimed at.
func (s *Server) handlePage(w http.ResponseWriter, r *http.Request) {
	raw := r.PathValue("id")
	raw = strings.TrimSuffix(raw, ".html")
	id, err := strconv.Atoi(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad page id")
		return
	}
	p, err := s.be.PageCtx(r.Context(), corpus.PageID(id))
	if err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	body := html.RenderPage(p)
	if s.wantsWire(r) {
		frame := marshalFrame(wirePage, s.compressMin(), func(e *store.Enc) { e.Raw([]byte(body)) })
		w.Header().Set("Content-Type", wireContentType)
		w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
		_, _ = w.Write(frame)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, body)
}
