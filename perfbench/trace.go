package main

// Span recording for the traced run. Spans are recorded from the
// benchmark's own wrappers around the calls into each layer; nothing in
// the program is instrumented. They stay in memory and are written out
// (one JSON object per line) when the run ends.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanName identifies the boundary a span was recorded at.
type spanName uint8

const (
	spEntity       spanName = iota // root: one harvest job, Submit → result
	spOp                           // root: one open-loop op, due → done
	spSelect                       // core: Selector.Select (wrapper)
	spCandidates                   // core: Session.CandidatesAppend pre-call
	spRetrieve                     // search: Retriever call (wrapper)
	spHandoff                      // pipeline: fetch return → next Select start
	spQueue                        // pipeline: Submit or Select end → fetch start
	spLateness                     // load: due → send
	spTransport                    // webapi: client round trip, request → body closed
	spServerSearch                 // webapi: handler, /search
	spServerPage                   // webapi: handler, /page
	spServerIngest                 // webapi: handler, /ingest
	spServerOther                  // webapi: handler, any other route
)

var spanNames = [...]string{
	spEntity:       "harvest.entity",
	spOp:           "load.op",
	spSelect:       "core.select",
	spCandidates:   "core.candidates",
	spRetrieve:     "search.retrieve",
	spHandoff:      "pipeline.handoff",
	spQueue:        "pipeline.queue",
	spLateness:     "load.lateness",
	spTransport:    "webapi.transport",
	spServerSearch: "webapi.server.search",
	spServerPage:   "webapi.server.page",
	spServerIngest: "webapi.server.ingest",
	spServerOther:  "webapi.server.other",
}

func (n spanName) String() string { return spanNames[n] }

// attributed reports whether a span is time spent in a layer: a call into
// one, or the load generator's own lateness. Pipeline queue waits and
// handoffs are not: the unattributed share is the part of each root that
// no layer accounts for.
func (n spanName) attributed() bool {
	switch n {
	case spSelect, spCandidates, spRetrieve, spTransport, spLateness,
		spServerSearch, spServerPage, spServerIngest, spServerOther:
		return true
	}
	return false
}

// span is one recorded interval. Start and End are nanoseconds since the
// tracer's epoch. Kind tags a root with its op kind; Count carries a
// per-span count (candidate pool size, request body bytes) and Bytes the
// response bytes a handler wrote.
type span struct {
	Trace  uint64   `json:"trace"`
	ID     uint64   `json:"id"`
	Parent uint64   `json:"parent"`
	Name   spanName `json:"-"`
	Start  int64    `json:"start"`
	End    int64    `json:"end"`
	Kind   opKind   `json:"kind,omitempty"`
	Count  int64    `json:"count,omitempty"`
	Bytes  int64    `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans from every goroutine of the run.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type line struct {
		span
		Name string `json:"name"`
	}
	for _, s := range t.snapshot() {
		if err := enc.Encode(line{span: s, Name: s.Name.String()}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSet indexes a snapshot for the per-layer analysis.
type spanSet struct {
	all      []span
	children map[uint64][]int // parent span ID → indices into all
	byTrace  map[uint64][]int // trace ID → indices into all
}

func indexSpans(all []span) *spanSet {
	ss := &spanSet{all: all, children: map[uint64][]int{}, byTrace: map[uint64][]int{}}
	for i, s := range all {
		if s.Parent != 0 {
			ss.children[s.Parent] = append(ss.children[s.Parent], i)
		}
		ss.byTrace[s.Trace] = append(ss.byTrace[s.Trace], i)
	}
	return ss
}

// named returns the spans with the given name whose root passes keep.
func (ss *spanSet) named(n spanName, keep func(trace uint64) bool) []span {
	var out []span
	for _, s := range ss.all {
		if s.Name == n && (keep == nil || keep(s.Trace)) {
			out = append(out, s)
		}
	}
	return out
}

// selfNs is a span's duration minus the part its children cover.
func (ss *spanSet) selfNs(s span) int64 {
	var iv [][2]int64
	for _, ci := range ss.children[s.ID] {
		c := ss.all[ci]
		iv = append(iv, [2]int64{c.Start, c.End})
	}
	return s.dur() - covered(iv, s.Start, s.End)
}

// attributedNs is how much of a root's interval the layer-call spans of
// its trace cover.
func (ss *spanSet) attributedNs(root span) int64 {
	var iv [][2]int64
	for _, i := range ss.byTrace[root.Trace] {
		s := ss.all[i]
		if s.ID != root.ID && s.Name.attributed() {
			iv = append(iv, [2]int64{s.Start, s.End})
		}
	}
	return covered(iv, root.Start, root.End)
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if !open || s > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = s, e, true
			continue
		}
		curE = max(curE, e)
	}
	if open {
		total += curE - curS
	}
	return total
}

// usSample converts span durations (ns) to a sorted microsecond sample.
func usSample(spans []span, dur func(span) int64) latencies {
	out := make(latencies, 0, len(spans))
	for _, s := range spans {
		out = append(out, float64(dur(s))/1e3)
	}
	return out.sorted()
}

func spanDur(s span) int64 { return s.dur() }

// unattributedRatio is 1 − Σ attributed ÷ Σ root wall over the roots.
func (ss *spanSet) unattributedRatio(roots []span) float64 {
	var wall, attr int64
	for _, r := range roots {
		wall += r.dur()
		attr += ss.attributedNs(r)
	}
	if wall == 0 {
		return 0
	}
	return 1 - float64(attr)/float64(wall)
}

// busyShare is the share of the window's CPU capacity (cpuNs) that spans
// of one name cover, clipped to the window, with the count of spans
// overlapping it.
func (ss *spanSet) busyShare(name spanName, lo, hi int64, cpuNs float64) (float64, int) {
	var total int64
	n := 0
	for _, s := range ss.all {
		if s.Name == name && s.End > lo && s.Start < hi {
			total += min(s.End, hi) - max(s.Start, lo)
			n++
		}
	}
	return float64(total) / cpuNs, n
}
