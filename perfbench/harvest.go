package main

// The harvest workload: a closed loop of one-entity batches on one shared
// pipeline.Scheduler, L2QBAL with a fixed query budget, in-memory fetch.
// Selection (inference, the fixpoint solver, template enumeration) is most
// of the CPU; webapi is never called.

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/eval"
	"l2q/internal/pipeline"
	"l2q/internal/search"
)

type harvestSys struct {
	env   *eval.Env
	dms   map[corpus.Aspect]*core.DomainModel
	sched *pipeline.Scheduler
}

// entityRec is one finished harvest job.
type entityRec struct {
	idx    int
	submit time.Time
	end    time.Time
	steps  []time.Time // one per ingested query, in order
	err    error
	st     *sessionTrace
	fired  []core.Query
	pages  []corpus.PageID
}

// harvestPhase is one warm-up + timed window of the closed loop.
type harvestPhase struct {
	win   window
	recs  []*entityRec // every job that finished, warm-up included
	wraps int          // times the target list was exhausted and restarted
	hits  [2]uint64    // traced jobs' engine cache hits at the window bounds
	miss  [2]uint64
}

// inWindow returns the jobs whose result arrived inside the timed window.
func (p *harvestPhase) inWindow() []*entityRec {
	var out []*entityRec
	for _, r := range p.recs {
		if !r.end.Before(p.win.start) && !r.end.After(p.win.end) {
			out = append(out, r)
		}
	}
	return out
}

type harvester struct {
	sys     *harvestSys
	hs      harvestSpec
	targets []target
	next    atomic.Int64
	gateMod int
}

func runHarvest(o options, base *spec) (*result, error) {
	sp := base.forRun(o)
	hs := sp.Harvest
	resetPeakRSS()
	sys, setup, err := timeSetup(func() (*harvestSys, error) {
		env, dms, err := buildEnv(hs.corpusSpec)
		if err != nil {
			return nil, err
		}
		return &harvestSys{env: env, dms: dms, sched: pipeline.New(pipeline.Config{})}, nil
	}, func(s *harvestSys) { s.sched.Close() })
	if err != nil {
		return nil, fmt.Errorf("harvest set-up: %w", err)
	}
	res := &result{setup: setup, stop: sys.sched.Close}
	h := &harvester{sys: sys, hs: hs, targets: targets(sys.env, hs.Aspects, o.seed), gateMod: 53}

	// The traced run traces every other job, so traced and plain jobs
	// share one window and the overhead ratio compares like with like.
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	ph := h.phase(sp.WarmupSeconds, o.seconds, tr)

	res.rssMB = peakRSSMB()
	recs := ph.inWindow()
	var lat, steps series
	for _, r := range recs {
		res.attempted++
		if r.err != nil {
			res.failed++
			if res.failed == 1 {
				res.notes = append(res.notes, fmt.Sprintf("harvest of target %d failed: %v", r.idx, r.err))
			}
			lat.add(r.end, missedMs)
			continue
		}
		lat.add(r.end, ms(r.end.Sub(r.submit)))
		prev := r.submit
		for _, t := range r.steps {
			steps.add(t, ms(t.Sub(prev)))
			prev = t
		}
	}
	n := lat.n()
	secs := ph.win.seconds()
	cpuPer := 0.0
	if n > 0 {
		cpuPer = ms(ph.win.cpu) / float64(n)
	}
	res.named = []metric{
		{"entities_per_s", float64(n-res.failed) / secs, "1/s", n},
		{"entity_p50_ms", lat.pct(0.5), "ms", n},
		{"entity_p90_ms", lat.pct(0.9), "ms", n},
		{"step_p50_ms", steps.pct(0.5), "ms", steps.n()},
		{"step_p99_ms", steps.pct(0.99), "ms", steps.n()},
		{"fail_ratio", ratio(res.failed, res.attempted), "ratio", res.attempted},
		{"target_list_wraps", float64(ph.wraps), "count", 1},
	}
	res.e2e = []metric{{"cpu_ms_per_op", cpuPer, "ms", res.attempted}}

	if o.trace {
		res.layers = harvestLayers(sp, tr, ph)
		res.spans = tr
	}
	res.mismatches = h.gate(ph.recs)
	res.correct = len(res.mismatches) == 0
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// phase runs the closed loop for warm-up + measured seconds. With a
// tracer every other job runs behind the span-recording wrappers.
func (h *harvester) phase(warmup, seconds float64, tr *tracer) *harvestPhase {
	p := &harvestPhase{}
	start := time.Now()
	from := start.Add(time.Duration(warmup * float64(time.Second)))
	to := from.Add(time.Duration(seconds * float64(time.Second)))

	var eng *search.Engine
	if tr != nil {
		// The scheduler re-tunes only a bare *search.Engine, to serial
		// scoring; the wrapper hides the type, so the engine behind it
		// is tuned the same way up front.
		eng = h.sys.env.Engine.WithScoreWorkers(1)
	}
	await := sampleAt(from, to, func(i int) {
		if eng != nil {
			p.hits[i], p.miss[i] = eng.CacheStats()
		}
	})

	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < h.hs.Submitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(to) {
				r, wrapped := h.harvestOne(tr, eng)
				mu.Lock()
				p.recs = append(p.recs, r)
				if wrapped {
					p.wraps++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.win = await()
	return p
}

// harvestOne submits the next target as a one-job batch and waits for it.
func (h *harvester) harvestOne(tr *tracer, eng *search.Engine) (*entityRec, bool) {
	i := int(h.next.Add(1) - 1)
	wrapped := i > 0 && i%len(h.targets) == 0
	t := h.targets[i%len(h.targets)]
	env := h.sys.env
	dm := h.sys.dms[t.aspect]
	sess := env.NewSession(t.entity, t.aspect, dm, nil, uint64(t.entity.ID)+1)
	rec := &entityRec{idx: i, steps: make([]time.Time, 0, h.hs.Queries)}
	var sel core.Selector = core.NewL2QBAL()
	if tr != nil && i%2 == 0 {
		st := newSessionTrace(tr, true)
		rec.st = st
		y := sess.Y
		sess.Y = st.wrapY(y)
		st.y = y
		sess.Engine = tracedRetriever{e: eng, st: st}
		sel = tracedSelector{inner: sel, st: st}
	}
	sess.Trace = func(tr core.TraceRecord) {
		rec.steps = append(rec.steps, time.Now())
		if rec.st != nil {
			rec.st.newPages += tr.NewPages
			rec.st.queries++
		}
	}
	ctx := context.Background()
	rec.submit = time.Now()
	if rec.st != nil {
		rec.st.begin(rec.submit)
	}
	b, err := h.sys.sched.Submit(ctx, []pipeline.Job{{Session: sess, Selector: sel, NQueries: h.hs.Queries}}, pipeline.BatchOptions{})
	if err != nil {
		rec.err = err
		rec.end = time.Now()
		return rec, wrapped
	}
	out := b.Await(ctx)[0]
	rec.end = time.Now()
	rec.err = out.Err
	if rec.st != nil {
		rec.st.finish(rec.end, sess)
	}
	if i%h.gateMod == 0 {
		rec.fired = slices.Clone(out.Fired)
		for _, pg := range sess.Pages() {
			rec.pages = append(rec.pages, pg.ID)
		}
	}
	return rec, wrapped
}

// gate re-runs a sample of finished jobs on the reference path (graph
// rebuilt and candidates re-enumerated every step, cold solves) outside
// any timed window: fired queries and harvested page IDs must match.
func (h *harvester) gate(recs []*entityRec) []string {
	var bad []string
	checked := 0
	for _, r := range recs {
		if r.fired == nil || r.err != nil || checked >= h.hs.GateSample {
			continue
		}
		checked++
		t := h.targets[r.idx%len(h.targets)]
		env := h.sys.env
		cfg := env.Cfg.Core
		cfg.IncrementalGraph, cfg.IncrementalPool, cfg.WarmStart = false, false, false
		ref := core.NewSession(cfg, env.Engine, t.entity, t.aspect, env.Cls.YFunc(t.aspect), h.sys.dms[t.aspect], env.Rec, 1)
		fired, err := ref.RunCtx(context.Background(), core.NewL2QBAL(), h.hs.Queries)
		if err != nil {
			bad = append(bad, fmt.Sprintf("harvest: reference run for entity %d/%s: %v", t.entity.ID, t.aspect, err))
			continue
		}
		var pages []corpus.PageID
		for _, pg := range ref.Pages() {
			pages = append(pages, pg.ID)
		}
		if !slices.Equal(fired, r.fired) {
			bad = append(bad, fmt.Sprintf("harvest: entity %d/%s fired %q, reference %q", t.entity.ID, t.aspect, r.fired, fired))
		}
		if !slices.Equal(pages, r.pages) {
			bad = append(bad, fmt.Sprintf("harvest: entity %d/%s pages %v, reference %v", t.entity.ID, t.aspect, r.pages, pages))
		}
	}
	if checked == 0 {
		bad = append(bad, "harvest: no finished job was sampled for the reference check")
	}
	return bad
}

// sessionTrace is the per-job span state the wrappers share. A job is
// owned by one scheduler worker at a time and ownership passes under the
// scheduler's lock, so the fields need no lock of their own.
type sessionTrace struct {
	tr        *tracer
	trace     uint64
	useDomain bool

	submit        int64
	lastFetchEnd  int64
	lastSelectEnd int64
	candBuf       []core.Query

	y        func(*corpus.Page) bool
	yCalls   int
	distinct map[corpus.PageID]struct{}
	newPages int
	queries  int
	relevant int
	pages    int
}

// newSessionTrace starts a job trace. useDomain must be the selector's
// own candidate flag (L2QBAL uses domain candidates): the candidate pool
// is keyed on it, and any other value would rebuild the pool every step.
func newSessionTrace(tr *tracer, useDomain bool) *sessionTrace {
	return &sessionTrace{tr: tr, trace: tr.newID(), useDomain: useDomain, distinct: map[corpus.PageID]struct{}{}}
}

func (st *sessionTrace) begin(submit time.Time) {
	st.submit = st.tr.at(submit)
	st.lastSelectEnd = st.submit
}

// finish records the root span and the yield of the finished session.
func (st *sessionTrace) finish(end time.Time, sess *core.Session) {
	st.tr.add(span{Trace: st.trace, ID: st.trace, Name: spEntity, Start: st.submit, End: st.tr.at(end)})
	for _, p := range sess.Pages() {
		st.pages++
		if st.y(p) {
			st.relevant++
		}
	}
}

func (st *sessionTrace) wrapY(y func(*corpus.Page) bool) func(*corpus.Page) bool {
	return func(p *corpus.Page) bool {
		st.yCalls++
		st.distinct[p.ID] = struct{}{}
		return y(p)
	}
}

// tracedSelector times Select. It first syncs the candidate pool itself
// (with the selector's own useDomain, so the pool is reused) to split
// candidate generation from inference and selection.
type tracedSelector struct {
	inner core.Selector
	st    *sessionTrace
}

func (w tracedSelector) Name() string { return w.inner.Name() }

func (w tracedSelector) Select(s *core.Session) (core.Selection, bool) {
	st, tr := w.st, w.st.tr
	start := tr.now()
	if st.lastFetchEnd != 0 {
		tr.add(span{Trace: st.trace, ID: tr.newID(), Parent: st.trace, Name: spHandoff, Start: st.lastFetchEnd, End: start})
	}
	id := tr.newID()
	st.candBuf = s.CandidatesAppend(st.candBuf[:0], st.useDomain)
	candEnd := tr.now()
	tr.add(span{Trace: st.trace, ID: tr.newID(), Parent: id, Name: spCandidates, Start: start, End: candEnd, Count: int64(len(st.candBuf))})
	sel, ok := w.inner.Select(s)
	end := tr.now()
	tr.add(span{Trace: st.trace, ID: id, Parent: st.trace, Name: spSelect, Start: start, End: end})
	st.lastSelectEnd = end
	return sel, ok
}

// tracedRetriever times retrieval. It implements core.Retriever and
// core.AppendRetriever like *search.Engine, and deliberately not
// core.ContextRetriever: Session.FetchQueryCtx branches on that.
type tracedRetriever struct {
	e  *search.Engine
	st *sessionTrace
}

var (
	_ core.Retriever       = tracedRetriever{}
	_ core.AppendRetriever = tracedRetriever{}
)

func (w tracedRetriever) fetch(run func()) {
	st, tr := w.st, w.st.tr
	start := tr.now()
	tr.add(span{Trace: st.trace, ID: tr.newID(), Parent: st.trace, Name: spQueue, Start: st.lastSelectEnd, End: start})
	run()
	end := tr.now()
	tr.add(span{Trace: st.trace, ID: tr.newID(), Parent: st.trace, Name: spRetrieve, Start: start, End: end})
	st.lastFetchEnd = end
}

func (w tracedRetriever) SearchWithSeed(seed, query []string) []search.Result {
	var out []search.Result
	w.fetch(func() { out = w.e.SearchWithSeed(seed, query) })
	return out
}

func (w tracedRetriever) SearchWithSeedAppend(dst []search.Result, seed, query []string) []search.Result {
	w.fetch(func() { dst = w.e.SearchWithSeedAppend(dst, seed, query) })
	return dst
}

func (w tracedRetriever) QueryLikelihood(p *corpus.Page, query []string) float64 {
	return w.e.QueryLikelihood(p, query)
}

func (w tracedRetriever) TopK() int { return w.e.TopK() }

// harvestLayers derives the per-layer metrics from the traced jobs of the
// window, and the process counters from the whole window.
func harvestLayers(sp *spec, tr *tracer, ph *harvestPhase) []metric {
	m := map[string]metric{}
	all := ph.inWindow()
	var recs, untraced []*entityRec
	for _, r := range all {
		if r.st != nil {
			recs = append(recs, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	keep := map[uint64]bool{}
	var roots []span
	yCalls, distinct, steps := 0, 0, 0
	for _, r := range recs {
		keep[r.st.trace] = true
		yCalls += r.st.yCalls
		distinct += len(r.st.distinct)
		steps += r.st.queries
	}
	ss := indexSpans(tr.snapshot())
	in := func(t uint64) bool { return keep[t] }
	for _, s := range ss.named(spEntity, in) {
		roots = append(roots, s)
	}
	sel := ss.named(spSelect, in)
	self := usSample(sel, ss.selfNs)
	put(m, "core.select.self_us.p50", self.pct(0.5), len(self))
	put(m, "core.select.self_us.p99", self.pct(0.99), len(self))
	cpus := float64(runtime.GOMAXPROCS(0)) * ph.win.seconds() * 1e9
	winLo, winHi := tr.at(ph.win.start), tr.at(ph.win.end)
	// Only every other job is traced: scale the traced jobs' busy time to
	// the whole load.
	tracedFrac := ratio(len(recs), len(all))
	busy := func(name spanName) (float64, int) {
		v, n := ss.busyShare(name, winLo, winHi, cpus)
		if tracedFrac > 0 {
			v /= tracedFrac
		}
		return v, n
	}
	v, n := busy(spSelect)
	put(m, "core.select.busy_share", v, n)
	cand := ss.named(spCandidates, in)
	cu := usSample(cand, spanDur)
	put(m, "core.candidates.us.p50", cu.pct(0.5), len(cu))
	pool := 0.0
	for _, s := range cand {
		pool += float64(s.Count)
	}
	if len(cand) > 0 {
		put(m, "core.candidates.pool_size.mean", pool/float64(len(cand)), len(cand))
	}
	ret := ss.named(spRetrieve, in)
	ru := usSample(ret, spanDur)
	put(m, "search.retrieve.us.p50", ru.pct(0.5), len(ru))
	v, n = busy(spRetrieve)
	put(m, "search.retrieve.busy_share", v, n)
	hits := ph.hits[1] - ph.hits[0]
	served := int(hits + ph.miss[1] - ph.miss[0])
	put(m, "search.cache.hit_ratio", ratio(int(hits), served), served)
	put(m, "classify.calls_per_step", ratio(yCalls, steps), steps)
	put(m, "classify.distinct_ratio", ratio(distinct, yCalls), yCalls)
	hand := ss.named(spHandoff, in)
	hu := usSample(hand, spanDur)
	put(m, "pipeline.handoff_ms.p50", hu.pct(0.5)/1e3, len(hu))
	put(m, "pipeline.handoff_ms.p99", hu.pct(0.99)/1e3, len(hu))
	runtimeLayers(m, ph.win, len(all))

	// Yield is a quality guard, so it is taken over a fixed set of jobs:
	// the first yieldEntities traced targets of the seed's order.
	rel, pages, newPages, queries, yn := 0, 0, 0, 0, 0
	for _, r := range ph.recs {
		if r.st == nil || r.idx >= 2*sp.Harvest.YieldEntities || r.err != nil {
			continue
		}
		yn++
		rel += r.st.relevant
		pages += r.st.pages
		newPages += r.st.newPages
		queries += r.st.queries
	}
	put(m, "core.yield.relevant_ratio", ratio(rel, pages), yn)
	put(m, "core.yield.new_pages_per_query", ratio(newPages, queries), yn)

	put(m, "trace.unattributed_ratio", ss.unattributedRatio(roots), len(roots))
	tl := entityLatencies(recs)
	pl := entityLatencies(untraced)
	if p := pl.pct(0.5); p > 0 {
		put(m, "trace.overhead_ratio", tl.pct(0.5)/p, tl.n())
	}
	return layerMetrics(sp, m)
}

func entityLatencies(recs []*entityRec) *series {
	var out series
	for _, r := range recs {
		if r.err == nil {
			out.add(r.end, ms(r.end.Sub(r.submit)))
		}
	}
	return &out
}
