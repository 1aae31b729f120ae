package main

// The search workload: an open loop at a fixed rate against a frozen
// webapi.Server over loopback. Ops are the remote harvester's retrieve
// (Client.SearchWithSeedErr: binary search plus the top-k page prefetch,
// one fresh Client per replayed session) and the raw JSON query with
// ?k=. Server handlers, both codecs, html render/parse, scoring and the
// LRU cache do the work; core does nothing.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sync"
	"time"

	"l2q/internal/corpus"
	"l2q/internal/search"
	"l2q/internal/synth"
	"l2q/internal/textproc"
	"l2q/internal/webapi"
)

// frozenSys is one built search server.
type frozenSys struct {
	corpus *corpus.Corpus
	tok    *textproc.Tokenizer
	engine *search.Engine
	http   *httpServer
}

// buildFrozen generates the corpus, builds the index and starts serving.
func buildFrozen(cs corpusSpec, wrap func(h http.Handler) http.Handler) (*frozenSys, error) {
	g, err := synth.Generate(synth.Config{Domain: synth.DomainResearchers, NumEntities: cs.Entities,
		PagesPerEntity: cs.PagesPerEntity, Seed: cs.Seed})
	if err != nil {
		return nil, err
	}
	engine := search.NewEngineOpts(search.BuildIndexOpts(g.Corpus.Pages, search.Options{}), search.Options{})
	hs, err := serve(webapi.NewServer(g.Corpus, engine), wrap)
	if err != nil {
		return nil, err
	}
	return &frozenSys{corpus: g.Corpus, tok: g.Tokenizer, engine: engine, http: hs}, nil
}

func runSearch(o options, base *spec) (*result, error) {
	sp := base.forRun(o)
	ss := sp.Search
	var tr *tracer
	var wrap func(http.Handler) http.Handler
	if o.trace {
		tr = newTracer()
		installTraceTransport(tr)
		wrap = traceHandler(tr)
	}
	// Inputs are generated first: the peak-RSS mark restarts at set-up.
	replays, err := recordReplays(ss.corpusSpec, ss.Replay)
	if err != nil {
		return nil, err
	}
	resetPeakRSS()
	sys, setup, err := timeSetup(func() (*frozenSys, error) { return buildFrozen(ss.corpusSpec, wrap) },
		func(s *frozenSys) { s.http.stop() })
	if err != nil {
		return nil, fmt.Errorf("search set-up: %w", err)
	}
	res := &result{setup: setup, stop: sys.http.stop}
	rng := rand.New(rand.NewPCG(o.seed, 0x5ea4c4))
	picker := newQueryPicker(rng, replays, ss.Replay)
	ln := newLanes(picker, ss.Lanes)
	gen := func() op {
		if rng.Float64() < ss.RetrieveShare {
			return ln.pop()
		}
		s, pos, k := picker.query()
		return op{kind: opQuery, sess: s, pos: pos, k: k}
	}
	warm := seconds(sp.WarmupSeconds)
	length := sp.WarmupSeconds + o.seconds

	ph, err := runSearchPhase(sys, replays, schedule(ss.Rate, length, gen), ss.Workers, tr, warm, warm+seconds(o.seconds))
	if err != nil {
		return nil, err
	}

	to := warm + seconds(o.seconds)
	ret := summarize(ph.start, ph.ops, ph.recs, opRetrieve, warm, to)
	qry := summarize(ph.start, ph.ops, ph.recs, opQuery, warm, to)
	res.rssMB = peakRSSMB()
	res.notes = errNotes(ret, qry)
	res.attempted = ret.attempted + qry.attempted
	res.failed = ret.failed + qry.failed
	cpuPer := ms(ph.win.cpu) / float64(max(res.attempted, 1))
	late := append(ret.lateness, qry.lateness...).sorted()
	res.named = []metric{
		{"retrieve_p50_ms", ret.lat.pct(0.5), "ms", ret.lat.n()},
		{"retrieve_p99_ms", ret.lat.pct(0.99), "ms", ret.lat.n()},
		{"query_p50_ms", qry.lat.pct(0.5), "ms", qry.lat.n()},
		{"query_p99_ms", qry.lat.pct(0.99), "ms", qry.lat.n()},
		{"fail_ratio", ratio(res.failed, res.attempted), "ratio", res.attempted},
		{"offered_ops_per_s", ss.Rate, "1/s", res.attempted},
		{"lateness_p50_ms", late.pct(0.5), "ms", len(late)},
		{"lateness_p99_ms", late.pct(0.99), "ms", len(late)},
	}
	res.e2e = []metric{{"cpu_ms_per_op", cpuPer, "ms", res.attempted}}
	if o.trace {
		res.layers = searchLayers(sp, tr, ph, warm, to)
		res.spans = tr
	}
	res.mismatches = checkFrozen(sys, replays, ph)
	res.correct = len(res.mismatches) == 0
	return res, nil
}

// searchPhase is one run of a schedule against the frozen server.
type searchPhase struct {
	start time.Time
	ops   []op
	recs  []opRec
	win   window
	hits  [2]uint64 // engine cache hits at the window bounds
	ids   []uint64  // trace ID per op; 0 for untraced ops
}

// runSearchPhase dials one Client per replayed-session instance (outside
// the timed region), then drives the schedule.
func runSearchPhase(sys *frozenSys, replays []replay, ops []op, workers int, tr *tracer, warm, to time.Duration) (*searchPhase, error) {
	ctx := context.Background()
	clients := map[int]*webapi.Client{}
	for _, o := range ops {
		if o.kind != opRetrieve || clients[o.inst] != nil {
			continue
		}
		c, err := webapi.DialContext(ctx, sys.http.base, sys.tok, webapi.ClientOptions{
			Codec: webapi.CodecBinary, PrefetchWorkers: runtime.NumCPU()})
		if err != nil {
			return nil, fmt.Errorf("dial: %w", err)
		}
		clients[o.inst] = c
	}
	// A client is dropped once its instance's last op has completed (ops
	// of one instance can finish out of order when a worker runs late).
	left := map[int]int{}
	for _, o := range ops {
		if o.kind == opRetrieve {
			left[o.inst]++
		}
	}
	var mu sync.Mutex
	client := func(o op) *webapi.Client {
		mu.Lock()
		defer mu.Unlock()
		return clients[o.inst]
	}
	release := func(o op) {
		mu.Lock()
		defer mu.Unlock()
		if left[o.inst]--; left[o.inst] == 0 {
			delete(clients, o.inst)
		}
	}
	p := &searchPhase{ops: ops}
	traceOf := p.traceIDs(tr)
	exec := func(ctx context.Context, i int, rec *opRec) error {
		o := ops[i]
		r := replays[o.sess]
		switch o.kind {
		case opRetrieve:
			c := client(o)
			defer release(o)
			res, err := c.SearchWithSeedErr(ctx, r.seed, r.query(o.pos))
			if err != nil {
				return err
			}
			keepResults(rec, res)
			return nil
		default:
			return rawQuery(ctx, searchURL(sys.http.base, r, o.pos, o.k), rec)
		}
	}
	p.start = time.Now().Add(50 * time.Millisecond)
	await := sampleAt(p.start.Add(warm), p.start.Add(to), func(i int) { p.hits[i], _ = sys.engine.CacheStats() })
	p.recs = drive(p.start, ops, workers, exec, traceOf)
	p.win = await()
	return p, nil
}

// checkFrozen compares every served ranking with the in-process engine:
// engine.WithTopK(k).SearchWithSeed for the query op, the default top-k
// for retrieve.
func checkFrozen(sys *frozenSys, replays []replay, p *searchPhase) []string {
	ref := refEngine(sys.corpus.Pages)
	byK := map[int]*search.Engine{0: ref}
	type key struct{ sess, pos, k int }
	memo := map[key][]search.Result{}
	var bad []string
	for i, o := range p.ops {
		rec := &p.recs[i]
		if rec.err != nil {
			continue
		}
		k := o.k
		if o.kind == opRetrieve {
			k = 0
		}
		kk := key{o.sess, o.pos, k}
		want, ok := memo[kk]
		if !ok {
			e := byK[k]
			if e == nil {
				e = ref.WithTopK(k)
				byK[k] = e
			}
			r := replays[o.sess]
			want = e.SearchWithSeed(r.seed, r.query(o.pos))
			memo[kk] = want
		}
		if !sameRanking(rec, want) && len(bad) < 10 {
			bad = append(bad, fmt.Sprintf("search: %s op %d (replay %d, pos %d, k %d) served %v, reference differs",
				o.kind, i, o.sess, o.pos, o.k, rec.ids))
		}
	}
	return bad
}

// traceIDs gives every other op a trace ID when the phase is traced, so
// traced and untraced ops share one window.
func (p *searchPhase) traceIDs(tr *tracer) func(i int) *opTrace {
	if tr == nil {
		return nil
	}
	var traceOf func(int) *opTrace
	p.ids, traceOf = assignIDs(tr, len(p.ops))
	return traceOf
}

// windowRoots maps the trace IDs of the traced ops due in the window to
// their kinds, and counts them per kind.
func windowRoots(ops []op, ids []uint64, from, to time.Duration) (map[uint64]opKind, map[opKind]int) {
	kinds := map[uint64]opKind{}
	n := map[opKind]int{}
	for i, o := range ops {
		if ids[i] != 0 && dueIn(o, from, to) {
			kinds[ids[i]] = o.kind
			n[o.kind]++
		}
	}
	return kinds, n
}

// overheadRatio compares the p50 latency of the traced and the untraced
// ops of one kind inside the window.
func overheadRatio(m map[string]metric, start time.Time, ops []op, recs []opRec, ids []uint64, kind opKind, from, to time.Duration) {
	traced := summarizeWhere(start, ops, recs, kind, from, to, func(i int) bool { return ids[i] != 0 })
	ph := summarizeWhere(start, ops, recs, kind, from, to, func(i int) bool { return ids[i] == 0 })
	if p := ph.lat.pct(0.5); p > 0 {
		put(m, "trace.overhead_ratio", traced.lat.pct(0.5)/p, traced.lat.n())
	}
}

// searchLayers derives the per-layer metrics from the traced ops of the
// window, and the process counters from the whole window.
func searchLayers(sp *spec, tr *tracer, ph *searchPhase, warm, to time.Duration) []metric {
	m := map[string]metric{}
	kinds, n := windowRoots(ph.ops, ph.ids, warm, to)
	ss := indexSpans(tr.snapshot())
	httpLayers(m, ss, kinds, n, 0)
	// Cache counters cover every request; so does the served count.
	served := 0
	for _, o := range ph.ops {
		if dueIn(o, warm, to) {
			served++
		}
	}
	put(m, "search.cache.hit_ratio", ratio(int(ph.hits[1]-ph.hits[0]), served), served)
	runtimeLayers(m, ph.win, served)
	overheadRatio(m, ph.start, ph.ops, ph.recs, ph.ids, opRetrieve, warm, to)
	return layerMetrics(sp, m)
}
