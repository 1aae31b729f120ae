package main

// Open-loop traffic shared by the search and ingest workloads: the replayed
// harvest sessions the ops draw their queries from, a fixed-rate op
// schedule, the workers that send each op at its due time, the raw JSON
// query op, and the HTTP span wrappers of the traced run.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/pipeline"
	"l2q/internal/search"
	"l2q/internal/webapi"
)

// replay is one recorded L2QBAL harvest: its seed tokens and the tokens
// of every query it fired, in order.
type replay struct {
	seed    []string
	queries [][]string
}

// query returns the tokens of position pos: 0 is the seed search alone,
// i > 0 the seed ∥ i-th fired query.
func (r replay) query(pos int) []string {
	if pos == 0 {
		return nil
	}
	return r.queries[pos-1]
}

// recordReplays harvests the first rs.Sessions targets with L2QBAL and
// records what they fired. It is input generation, not set-up: the
// server under test never sees these sessions.
func recordReplays(cs corpusSpec, rs replaySpec) ([]replay, error) {
	env, dms, err := buildEnv(cs)
	if err != nil {
		return nil, err
	}
	ts := targets(env, cs.Aspects, cs.Seed)
	if len(ts) > rs.Sessions {
		ts = ts[:rs.Sessions]
	}
	// Sessions are harvested a few at a time so their entity graphs do
	// not all stay live at once.
	const chunk = 8
	out := make([]replay, 0, len(ts))
	for lo := 0; lo < len(ts); lo += chunk {
		part := ts[lo:min(lo+chunk, len(ts))]
		jobs := make([]pipeline.Job, len(part))
		for i, t := range part {
			s := env.NewSession(t.entity, t.aspect, dms[t.aspect], nil, uint64(t.entity.ID)+1)
			jobs[i] = pipeline.Job{Session: s, Selector: core.NewL2QBAL(), NQueries: rs.Queries}
		}
		for i, r := range pipeline.Run(context.Background(), pipeline.Config{}, jobs) {
			if r.Err != nil {
				return nil, fmt.Errorf("replay harvest %d: %w", lo+i, r.Err)
			}
			rp := replay{seed: env.Cfg.Core.QueryTokens(core.Query(part[i].entity.SeedQuery))}
			for _, q := range r.Fired {
				rp.queries = append(rp.queries, env.Cfg.Core.QueryTokens(q))
			}
			out = append(out, rp)
		}
	}
	return out, nil
}

// refEngine builds the in-process reference the served rankings are
// checked against.
func refEngine(pages []*corpus.Page) *search.Engine {
	return search.NewEngineOpts(search.BuildIndexOpts(pages, search.Options{}), search.Options{})
}

type opKind uint8

const (
	opRetrieve opKind = iota + 1
	opQuery
	opIngest
)

func (k opKind) String() string {
	switch k {
	case opRetrieve:
		return "retrieve"
	case opQuery:
		return "query"
	case opIngest:
		return "ingest"
	}
	return "?"
}

// op is one scheduled request.
type op struct {
	kind opKind
	due  time.Duration // from the phase start
	sess int           // replay index
	pos  int           // query position within the replay
	k    int           // result-list size; 0 is the server's default
	inst int           // retrieve: replayed-session instance (one Client each)
	from int           // ingest: donor page range [from, to)
	to   int
}

// opRec is what happened to one op.
type opRec struct {
	send, end time.Time
	err       error
	ids       []corpus.PageID
	scores    []float64
}

// queryPicker draws (replay, position, k) with Zipf-skewed replays.
type queryPicker struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	rs   []replay
	ks   []int
}

func newQueryPicker(rng *rand.Rand, rs []replay, spec replaySpec) *queryPicker {
	return &queryPicker{rng: rng, zipf: rand.NewZipf(rng, spec.ZipfS, 1, uint64(len(rs)-1)), rs: rs, ks: spec.Ks}
}

func (p *queryPicker) session() int { return int(p.zipf.Uint64()) }

func (p *queryPicker) query() (sess, pos, k int) {
	sess = p.session()
	pos = p.rng.IntN(len(p.rs[sess].queries) + 1)
	return sess, pos, p.ks[p.rng.IntN(len(p.ks))]
}

// lanes replays whole sessions for the retrieve op: each lane walks one
// Zipf-drawn session from its seed search to its last query, then starts
// another. Round-robin over lanes keeps one session's consecutive ops
// apart, as a harvester's own selection time would.
type lanes struct {
	p    *queryPicker
	cur  []op
	rr   int
	next int // next instance number
}

func newLanes(p *queryPicker, n int) *lanes {
	l := &lanes{p: p, cur: make([]op, n)}
	for i := range l.cur {
		l.cur[i] = l.start()
	}
	return l
}

func (l *lanes) start() op {
	l.next++
	return op{kind: opRetrieve, sess: l.p.session(), inst: l.next - 1}
}

func (l *lanes) pop() op {
	i := l.rr % len(l.cur)
	l.rr++
	o := l.cur[i]
	if o.pos == len(l.p.rs[o.sess].queries) {
		l.cur[i] = l.start()
	} else {
		l.cur[i].pos++
	}
	return o
}

// schedule spaces n ops evenly at rate per second from offset 0.
func schedule(rate, seconds float64, gen func() op) []op {
	n := int(rate * seconds)
	out := make([]op, n)
	for i := range out {
		o := gen()
		o.due = time.Duration(float64(i) / rate * float64(time.Second))
		out[i] = o
	}
	return out
}

// drive sends every op at its due time from `workers` goroutines and
// returns when all have completed. A worker that falls behind sends late;
// latency is still measured from the due time.
func drive(start time.Time, ops []op, workers int, exec func(ctx context.Context, i int, rec *opRec) error, traceOf func(i int) *opTrace) []opRec {
	recs := make([]opRec, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				due := start.Add(ops[i].due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				ctx := context.Background()
				var ot *opTrace
				if traceOf != nil {
					ot = traceOf(i)
				}
				if ot != nil {
					ctx = context.WithValue(ctx, opTraceKey{}, ot)
				}
				rec := &recs[i]
				rec.send = time.Now()
				rec.err = exec(ctx, i, rec)
				rec.end = time.Now()
				if ot != nil {
					ot.finish(due, rec, ops[i].kind)
				}
			}
		}()
	}
	wg.Wait()
	return recs
}

// opStats summarizes the ops of one kind that were due inside a window.
type opStats struct {
	lat       series    // ms from due time; failures count as missed
	lateness  latencies // ms from due time to send
	attempted int
	failed    int
	firstErr  error
}

func summarize(start time.Time, ops []op, recs []opRec, kind opKind, from, to time.Duration) opStats {
	return summarizeWhere(start, ops, recs, kind, from, to, nil)
}

// summarizeWhere is summarize over the ops keep accepts (all when nil).
func summarizeWhere(start time.Time, ops []op, recs []opRec, kind opKind, from, to time.Duration, keep func(i int) bool) opStats {
	var st opStats
	for i, o := range ops {
		if o.kind != kind || !dueIn(o, from, to) || (keep != nil && !keep(i)) {
			continue
		}
		st.attempted++
		due := start.Add(o.due)
		st.lateness = append(st.lateness, ms(recs[i].send.Sub(due)))
		if recs[i].err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = fmt.Errorf("%s op %d: %w", kind, i, recs[i].err)
			}
			st.lat.add(due, missedMs)
			continue
		}
		st.lat.add(due, ms(recs[i].end.Sub(due)))
	}
	st.lateness = st.lateness.sorted()
	return st
}

// searchURL builds the raw JSON search request for the query op. Tokens
// travel one per parameter (tokq=1) so phrase tokens arrive intact.
func searchURL(base string, r replay, pos, k int) string {
	v := url.Values{"tokq": {"1"}, "seed": r.seed}
	if q := r.query(pos); len(q) > 0 {
		v["q"] = q
	}
	if k > 0 {
		v.Set("k", strconv.Itoa(k))
	}
	return base + "/api/v1/search?" + v.Encode()
}

// rawQuery is the query op: GET /api/v1/search in JSON, decoded. The
// ranking is kept in rec when rec is not nil.
func rawQuery(ctx context.Context, u string, rec *opRec) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("search: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var sr webapi.SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return fmt.Errorf("search: decoding response: %w", err)
	}
	if rec != nil {
		for _, h := range sr.Hits {
			rec.ids = append(rec.ids, h.PageID)
			rec.scores = append(rec.scores, h.Score)
		}
	}
	return nil
}

// keepResults stores a retrieve op's ranking for the correctness check.
func keepResults(rec *opRec, res []search.Result) {
	for _, r := range res {
		rec.ids = append(rec.ids, r.Page.ID)
		rec.scores = append(rec.scores, r.Score)
	}
}

// sameRanking compares a served ranking with the reference, exactly.
func sameRanking(rec *opRec, want []search.Result) bool {
	if len(rec.ids) != len(want) {
		return false
	}
	for i, w := range want {
		if rec.ids[i] != w.Page.ID || rec.scores[i] != w.Score {
			return false
		}
	}
	return true
}

// httpServer serves a webapi.Server's handler on loopback.
type httpServer struct {
	srv  *webapi.Server
	hs   *http.Server // nil when srv.Start owns the listener
	base string
}

// serve starts srv. Untraced runs use Server.Start itself; the traced run
// needs middleware around the handler, so it serves the handler from an
// http.Server configured as Start configures its own.
func serve(srv *webapi.Server, wrap func(http.Handler) http.Handler) (*httpServer, error) {
	if wrap == nil {
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		return &httpServer{srv: srv, base: "http://" + addr}, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{
		Handler:           wrap(srv.Handler()),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	go func() { _ = hs.Serve(ln) }()
	return &httpServer{srv: srv, hs: hs, base: "http://" + ln.Addr().String()}, nil
}

// stop shuts the server down. It runs after the results are written;
// idle client connections are closed first so the drain does not wait
// out connections no request will arrive on.
func (s *httpServer) stop() {
	baseTransport().CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if s.hs != nil {
		if err := s.hs.Shutdown(ctx); err != nil {
			_ = s.hs.Close()
		}
	}
	_ = s.srv.Shutdown(ctx)
}

// opTraceKey carries an op's trace through request contexts.
type opTraceKey struct{}

// opTrace is the root of one traced op.
type opTrace struct {
	tr    *tracer
	trace uint64
}

func (ot *opTrace) finish(due time.Time, rec *opRec, kind opKind) {
	d := ot.tr.at(due)
	ot.tr.add(span{Trace: ot.trace, ID: ot.trace, Name: spOp, Start: d, End: ot.tr.at(rec.end), Kind: kind})
	ot.tr.add(span{Trace: ot.trace, ID: ot.tr.newID(), Parent: ot.trace, Name: spLateness, Start: d, End: ot.tr.at(rec.send)})
}

// spanHeader joins a client round trip with the handler that served it.
const spanHeader = "X-L2qbench-Span"

// traceTransport records a webapi.transport span per request of a traced
// op, from RoundTrip to the response body's close.
type traceTransport struct {
	inner http.RoundTripper
	tr    *tracer
}

func (t traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ot, ok := req.Context().Value(opTraceKey{}).(*opTrace)
	if !ok {
		return t.inner.RoundTrip(req)
	}
	id := t.tr.newID()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", ot.trace, id))
	start := t.tr.now()
	resp, err := t.inner.RoundTrip(req)
	record := func() {
		t.tr.add(span{Trace: ot.trace, ID: id, Parent: ot.trace, Name: spTransport, Start: start, End: t.tr.now()})
	}
	if err != nil {
		record()
		return nil, err
	}
	resp.Body = &closeHook{ReadCloser: resp.Body, hook: record}
	return resp, nil
}

// closeHook runs hook once, when the body is closed.
type closeHook struct {
	io.ReadCloser
	once sync.Once
	hook func()
}

func (c *closeHook) Close() error {
	err := c.ReadCloser.Close()
	c.once.Do(c.hook)
	return err
}

// installTraceTransport wraps http.DefaultTransport, which webapi.Client
// and the query op both send through.
func installTraceTransport(tr *tracer) {
	http.DefaultTransport = traceTransport{inner: baseTransport(), tr: tr}
}

// traceHandler records a webapi.server.* span, with request and response
// byte counts, for every request that carries the span header.
func traceHandler(tr *tracer) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h := r.Header.Get(spanHeader)
			if h == "" {
				next.ServeHTTP(w, r)
				return
			}
			var trace, parent uint64
			if _, err := fmt.Sscanf(h, "%d/%d", &trace, &parent); err != nil {
				next.ServeHTTP(w, r)
				return
			}
			start := tr.now()
			cw := &countingWriter{ResponseWriter: w}
			cb := &countingBody{ReadCloser: r.Body}
			r.Body = cb
			next.ServeHTTP(cw, r)
			tr.add(span{Trace: trace, ID: tr.newID(), Parent: parent, Name: routeSpan(r.URL.Path),
				Start: start, End: tr.now(), Count: cb.n, Bytes: cw.n})
		})
	}
}

func routeSpan(path string) spanName {
	switch {
	case strings.HasSuffix(path, "/search"):
		return spServerSearch
	case strings.HasPrefix(path, "/page/"):
		return spServerPage
	case strings.HasSuffix(path, "/ingest"):
		return spServerIngest
	}
	return spServerOther
}

// countingWriter counts response bytes. Unwrap keeps the server's
// per-request write deadline (set through http.ResponseController)
// reaching the real connection.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

type countingBody struct {
	io.ReadCloser
	n int64
}

func (c *countingBody) Read(b []byte) (int, error) {
	n, err := c.ReadCloser.Read(b)
	c.n += int64(n)
	return n, err
}

// httpLayers derives the webapi.* and load.* per-layer metrics from the
// spans of traced ops due inside the window.
func httpLayers(m map[string]metric, ss *spanSet, kinds map[uint64]opKind, opsByKind map[opKind]int, ingestedPages int) {
	in := func(t uint64) bool { _, ok := kinds[t]; return ok }
	for _, x := range []struct {
		name spanName
		key  string
	}{{spServerSearch, "search"}, {spServerPage, "page"}, {spServerIngest, "ingest"}} {
		s := ss.named(x.name, in)
		if len(s) == 0 {
			continue
		}
		u := usSample(s, spanDur)
		put(m, "webapi.server."+x.key+"_us.p50", u.pct(0.5), len(u))
		put(m, "webapi.server."+x.key+"_us.p99", u.pct(0.99), len(u))
	}
	// Transport time is the round trip minus the handler it reached.
	var transport latencies
	bytes := map[opKind]int64{}
	pages := 0
	for _, t := range ss.named(spTransport, in) {
		handler := int64(0)
		for _, ci := range ss.children[t.ID] {
			c := ss.all[ci]
			handler += c.dur()
			k := kinds[c.Trace]
			bytes[k] += c.Bytes
			if k == opRetrieve && c.Name == spServerPage {
				pages++
			}
		}
		transport = append(transport, float64(t.dur()-handler)/1e3)
	}
	transport = transport.sorted()
	put(m, "webapi.transport_us.p50", transport.pct(0.5), len(transport))
	if n := opsByKind[opRetrieve]; n > 0 {
		put(m, "webapi.pages_per_retrieve", float64(pages)/float64(n), n)
		put(m, "webapi.bytes_per_retrieve", float64(bytes[opRetrieve])/float64(n), n)
	}
	if n := opsByKind[opQuery]; n > 0 {
		put(m, "webapi.bytes_per_query", float64(bytes[opQuery])/float64(n), n)
	}
	if ingestedPages > 0 {
		var req int64
		for _, s := range ss.named(spServerIngest, in) {
			req += s.Count
		}
		put(m, "webapi.bytes_per_ingested_page", float64(req)/float64(ingestedPages), ingestedPages)
	}
	var late latencies
	var roots []span
	for _, s := range ss.named(spLateness, in) {
		late = append(late, float64(s.dur())/1e6)
	}
	for _, s := range ss.named(spOp, in) {
		roots = append(roots, s)
	}
	late = late.sorted()
	put(m, "load.lateness_ms.p99", late.pct(0.99), len(late))
	put(m, "trace.unattributed_ratio", ss.unattributedRatio(roots), len(roots))
}

// dueIn reports whether op i of a phase was due inside the timed window.
func dueIn(o op, from, to time.Duration) bool { return o.due >= from && o.due < to }

// seconds converts a float second count to a Duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// errNotes lists the first error of each op kind that failed.
func errNotes(stats ...opStats) []string {
	var out []string
	for _, st := range stats {
		if st.firstErr != nil {
			out = append(out, fmt.Sprintf("%d of %d failed, first: %v", st.failed, st.attempted, st.firstErr))
		}
	}
	return out
}
