package main

// The ingest workload: a live server (NewLiveServer, default memtable and
// fan-in) over a base corpus. Client.Ingest streams a donor corpus with
// disjoint IDs as paced binary batches at a fixed pages/s; beside it the
// query op of the search workload runs open loop at a lower fixed rate.
// Memtable rebuilds, seals and background compaction run, every epoch
// bump empties the cache, and reads merge across segments.

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"l2q/internal/search"
	"l2q/internal/synth"
	"l2q/internal/textproc"
	"l2q/internal/webapi"
)

type liveSys struct {
	live      *search.LiveEngine
	tok       *textproc.Tokenizer
	http      *httpServer
	basePages int
}

// buildLive generates the base corpus, builds the live engine over it and
// starts serving.
func buildLive(cs corpusSpec, wrap func(http.Handler) http.Handler) (*liveSys, error) {
	g, err := synth.Generate(synth.Config{Domain: synth.DomainResearchers, NumEntities: cs.Entities,
		PagesPerEntity: cs.PagesPerEntity, Seed: cs.Seed})
	if err != nil {
		return nil, err
	}
	live := search.NewLiveEngine(g.Corpus.Pages, search.Options{}, search.LiveOptions{})
	hs, err := serve(webapi.NewLiveServer(g.Corpus, live, g.Tokenizer), wrap)
	if err != nil {
		return nil, err
	}
	return &liveSys{live: live, tok: g.Tokenizer, http: hs, basePages: len(g.Corpus.Pages)}, nil
}

// donorIDOffset moves donor entity and page IDs clear of the base corpus.
const donorIDOffset = 1_000_000

// donorPages generates at least n pages of a second corpus (same shape,
// another seed) in ingest form.
func donorPages(cs corpusSpec, n int) ([]webapi.IngestPage, error) {
	entities := (n + cs.PagesPerEntity - 1) / cs.PagesPerEntity
	g, err := synth.Generate(synth.Config{Domain: synth.DomainResearchers, NumEntities: entities,
		PagesPerEntity: cs.PagesPerEntity, Seed: cs.Seed + 1})
	if err != nil {
		return nil, err
	}
	out := make([]webapi.IngestPage, 0, len(g.Corpus.Pages))
	for _, p := range g.Corpus.Pages {
		e := g.Corpus.Entity(p.Entity)
		ip := webapi.IngestPage{
			ID:         p.ID + donorIDOffset,
			Entity:     p.Entity + donorIDOffset,
			EntityName: e.Name,
			SeedQuery:  e.SeedQuery,
			URL:        p.URL,
			Title:      p.Title,
		}
		for _, para := range p.Paras {
			ip.Paras = append(ip.Paras, webapi.IngestParagraph{Text: para.Text, Aspect: string(para.Aspect)})
		}
		for _, l := range p.Links {
			ip.Links = append(ip.Links, l+donorIDOffset)
		}
		out = append(out, ip)
	}
	return out, nil
}

func runIngest(o options, base *spec) (*result, error) {
	sp := base.forRun(o)
	is := sp.Ingest
	var tr *tracer
	var wrap func(http.Handler) http.Handler
	if o.trace {
		tr = newTracer()
		installTraceTransport(tr)
		wrap = traceHandler(tr)
	}
	// Inputs are generated first: the peak-RSS mark restarts at set-up.
	replays, err := recordReplays(is.corpusSpec, is.Replay)
	if err != nil {
		return nil, err
	}
	length := sp.WarmupSeconds + o.seconds
	// The donor must never run dry: it holds every page the schedule can
	// ask for, with a margin. Running out counts as failed batches.
	need := int(math.Ceil(float64(is.BatchPages) * is.BatchRate * length * is.DonorMargin))
	donor, err := donorPages(is.corpusSpec, need)
	if err != nil {
		return nil, err
	}
	resetPeakRSS()
	sys, setup, err := timeSetup(func() (*liveSys, error) { return buildLive(is.corpusSpec, wrap) },
		func(s *liveSys) { s.http.stop() })
	if err != nil {
		return nil, fmt.Errorf("ingest set-up: %w", err)
	}
	res := &result{setup: setup, stop: sys.http.stop}
	cli, err := webapi.DialContext(context.Background(), sys.http.base, sys.tok, webapi.ClientOptions{Codec: webapi.CodecBinary})
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	rng := rand.New(rand.NewPCG(o.seed, 0x16e57))
	picker := newQueryPicker(rng, replays, is.Replay)
	cursor := 0
	ingestGen := func() op {
		o := op{kind: opIngest, from: cursor, to: cursor + is.BatchPages}
		cursor = o.to
		return o
	}
	queryGen := func() op {
		s, pos, k := picker.query()
		return op{kind: opQuery, sess: s, pos: pos, k: k}
	}
	warm := seconds(sp.WarmupSeconds)
	to := warm + seconds(o.seconds)
	ip := &ingestPhaser{sys: sys, cli: cli, donor: donor, replays: replays, warm: warm, to: to}

	ph := ip.run(schedule(is.BatchRate, length, ingestGen), schedule(is.QueryRate, length, queryGen), tr)

	lag := summarize(ph.start, ph.ingest, ph.ingestRecs, opIngest, warm, to)
	qry := summarize(ph.start, ph.query, ph.queryRecs, opQuery, warm, to)
	res.rssMB = peakRSSMB()
	res.notes = errNotes(lag, qry)
	res.attempted = lag.attempted + qry.attempted
	res.failed = lag.failed + qry.failed
	late := append(lag.lateness, qry.lateness...).sorted()
	cpuPer := ms(ph.win.cpu) / float64(max(res.attempted, 1))
	res.named = []metric{
		{"ingest_lag_p50_ms", lag.lat.pct(0.5), "ms", lag.lat.n()},
		{"ingest_lag_p99_ms", lag.lat.pct(0.99), "ms", lag.lat.n()},
		{"query_p50_ms", qry.lat.pct(0.5), "ms", qry.lat.n()},
		{"query_p99_ms", qry.lat.pct(0.99), "ms", qry.lat.n()},
		{"fail_ratio", ratio(res.failed, res.attempted), "ratio", res.attempted},
		{"offered_pages_per_s", is.BatchRate * float64(is.BatchPages), "1/s", lag.attempted},
		{"lateness_p50_ms", late.pct(0.5), "ms", len(late)},
		{"lateness_p99_ms", late.pct(0.99), "ms", len(late)},
	}
	res.e2e = []metric{{"cpu_ms_per_op", cpuPer, "ms", res.attempted}}
	if o.trace {
		res.layers = ingestLayers(sp, tr, ph, warm, to)
		res.spans = tr
	}
	res.mismatches = ip.gate(is.GateQueries, o.seed, ph)
	res.correct = len(res.mismatches) == 0
	return res, nil
}

// ingestPhaser runs the two open loops of one phase against the server.
type ingestPhaser struct {
	sys      *liveSys
	cli      *webapi.Client
	donor    []webapi.IngestPage
	replays  []replay
	warm, to time.Duration
}

// ingestPhase is one phase's schedules, outcomes and engine gauges.
type ingestPhase struct {
	start      time.Time
	ingest     []op
	query      []op
	ingestRecs []opRec
	queryRecs  []opRec
	ingestIDs  []uint64
	queryIDs   []uint64
	acked      []int // pages newly ingested per batch
	win        window
	live       [2]search.LiveMetrics
	hits       [2]uint64
	mu         sync.Mutex
	segsMax    int // most segments seen after a batch inside the window
}

func (ip *ingestPhaser) run(ingest, query []op, tr *tracer) *ingestPhase {
	p := &ingestPhase{ingest: ingest, query: query, acked: make([]int, len(ingest))}
	var ingestTrace, queryTrace func(int) *opTrace
	if tr != nil {
		p.ingestIDs, ingestTrace = assignIDs(tr, len(ingest))
		p.queryIDs, queryTrace = assignIDs(tr, len(query))
	}
	live := ip.sys.live
	p.start = time.Now().Add(50 * time.Millisecond)
	from, to := p.start.Add(ip.warm), p.start.Add(ip.to)
	await := sampleAt(from, to, func(i int) {
		p.live[i] = live.Metrics()
		p.hits[i], _ = live.CacheStats()
	})
	execIngest := func(ctx context.Context, i int, rec *opRec) error {
		o := ingest[i]
		if o.to > len(ip.donor) {
			return fmt.Errorf("ingest: donor corpus exhausted at page %d of %d", o.from, len(ip.donor))
		}
		resp, err := ip.cli.Ingest(ctx, webapi.IngestRequest{Pages: ip.donor[o.from:o.to]})
		if err != nil {
			return err
		}
		p.acked[i] = resp.Ingested
		if tr != nil {
			// Segment counts are sampled after every batch of the traced run.
			if now := time.Now(); now.After(from) && now.Before(to) {
				segs := live.Metrics().Segments
				p.mu.Lock()
				p.segsMax = max(p.segsMax, segs)
				p.mu.Unlock()
			}
		}
		if resp.Ingested != o.to-o.from {
			return fmt.Errorf("ingest: batch of %d acknowledged %d new pages (%d duplicates)", o.to-o.from, resp.Ingested, resp.Duplicates)
		}
		return nil
	}
	execQuery := func(ctx context.Context, i int, rec *opRec) error {
		o := query[i]
		// Rankings move with every batch, so they are not kept; the gate
		// checks the settled engine instead.
		return rawQuery(ctx, searchURL(ip.sys.http.base, ip.replays[o.sess], o.pos, o.k), nil)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.ingestRecs = drive(p.start, ingest, 1, execIngest, ingestTrace)
	}()
	go func() {
		defer wg.Done()
		p.queryRecs = drive(p.start, query, 1, execQuery, queryTrace)
	}()
	wg.Wait()
	p.win = await()
	return p
}

// assignIDs gives every other op of a traced schedule a trace ID (0
// marks an untraced op).
func assignIDs(tr *tracer, n int) ([]uint64, func(int) *opTrace) {
	ids := make([]uint64, n)
	for i := 0; i < n; i += 2 {
		ids[i] = tr.newID()
	}
	return ids, func(i int) *opTrace {
		if ids[i] == 0 {
			return nil
		}
		return &opTrace{tr: tr, trace: ids[i]}
	}
}

// gate checks, after every phase and once compaction has quiesced, that
// the live engine ranks sampled queries exactly as a frozen engine rebuilt
// from its pages, and that every page sent was ingested exactly once.
func (ip *ingestPhaser) gate(n int, seed uint64, p *ingestPhase) []string {
	var bad []string
	live := ip.sys.live
	live.Quiesce()
	sent, acked := 0, 0
	for i, o := range p.ingest {
		if p.ingestRecs[i].err == nil {
			sent += o.to - o.from
		}
		acked += p.acked[i]
	}
	if sent != acked {
		bad = append(bad, fmt.Sprintf("ingest: %d pages sent in acknowledged batches, %d ingested", sent, acked))
	}
	if got := live.NumDocs() - ip.sys.basePages; got != acked {
		bad = append(bad, fmt.Sprintf("ingest: engine grew by %d pages, %d acknowledged", got, acked))
	}
	frozen := refEngine(live.Pages())
	rng := rand.New(rand.NewPCG(seed, 0x9a7e))
	picker := newQueryPicker(rng, ip.replays, replaySpec{ZipfS: 1.01, Ks: []int{0, 5, 20, 50}})
	for i := 0; i < n; i++ {
		s, pos, k := picker.query()
		r := ip.replays[s]
		got := live.SearchWithSeedTopKAppend(nil, k, r.seed, r.query(pos))
		ref := frozen
		if k > 0 {
			ref = frozen.WithTopK(k)
		}
		want := ref.SearchWithSeed(r.seed, r.query(pos))
		rec := &opRec{}
		keepResults(rec, got)
		if !sameRanking(rec, want) {
			bad = append(bad, fmt.Sprintf("ingest: live ranking for replay %d pos %d k %d differs from the frozen rebuild", s, pos, k))
		}
	}
	return bad
}

// ingestLayers derives the per-layer metrics from the traced ops of the
// window, and the cache, live-engine and process counters from the whole
// window.
func ingestLayers(sp *spec, tr *tracer, ph *ingestPhase, warm, to time.Duration) []metric {
	m := map[string]metric{}
	kinds, n := windowRoots(ph.ingest, ph.ingestIDs, warm, to)
	qk, qn := windowRoots(ph.query, ph.queryIDs, warm, to)
	for id, k := range qk {
		kinds[id] = k
	}
	n[opQuery] = qn[opQuery]
	pages, batches, queries := 0, 0, 0
	for i, o := range ph.ingest {
		if dueIn(o, warm, to) {
			batches++
			if ph.ingestIDs[i] != 0 {
				pages += ph.acked[i]
			}
		}
	}
	for _, o := range ph.query {
		if dueIn(o, warm, to) {
			queries++
		}
	}
	ss := indexSpans(tr.snapshot())
	httpLayers(m, ss, kinds, n, pages)
	put(m, "search.cache.hit_ratio", ratio(int(ph.hits[1]-ph.hits[0]), queries), queries)
	a, b := ph.live[0], ph.live[1]
	docs := b.NumDocs - a.NumDocs
	put(m, "search.live.compactions", float64(b.Compactions-a.Compactions), batches)
	put(m, "search.live.write_amp", ratio(int(b.DocsCompacted-a.DocsCompacted), docs), docs)
	put(m, "search.live.segments.max", float64(ph.segsMax), batches)
	put(m, "search.live.epoch_bumps_per_s", float64(b.EpochInvalidations-a.EpochInvalidations)/ph.win.seconds(), batches)
	runtimeLayers(m, ph.win, batches+queries)
	overheadRatio(m, ph.start, ph.ingest, ph.ingestRecs, ph.ingestIDs, opIngest, warm, to)
	return layerMetrics(sp, m)
}
