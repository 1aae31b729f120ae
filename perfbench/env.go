package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"time"

	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/eval"
	"l2q/internal/synth"
)

// buildEnv generates the researchers corpus, builds the index, trains the
// aspect classifiers on the domain half and learns one domain model per
// aspect: the harvester's whole set-up.
func buildEnv(cs corpusSpec) (*eval.Env, map[corpus.Aspect]*core.DomainModel, error) {
	cfg := eval.DefaultConfig(synth.DomainResearchers)
	cfg.NumEntities = cs.Entities
	cfg.PagesPerEntity = cs.PagesPerEntity
	cfg.Seed = cs.Seed
	cfg.DomainSample = cs.DomainSample
	cfg.NumValidation = 0
	cfg.NumTest = cs.Entities
	env, err := eval.NewEnv(cfg)
	if err != nil {
		return nil, nil, err
	}
	dms := make(map[corpus.Aspect]*core.DomainModel, len(cs.Aspects))
	for _, a := range cs.Aspects {
		dm, err := env.DomainModel(corpus.Aspect(a), 0)
		if err != nil {
			return nil, nil, fmt.Errorf("domain model %s: %w", a, err)
		}
		dms[corpus.Aspect(a)] = dm
	}
	return env, dms, nil
}

// target is one (entity, aspect) harvest.
type target struct {
	entity *corpus.Entity
	aspect corpus.Aspect
}

// targets lists every (test entity, aspect) pair in a seeded order. The
// aspects alternate strictly (each aspect walks its own shuffle of the
// entities), so every stretch of the list carries the same aspect mix:
// aspects differ in cost, and a drifting mix would move the figures.
func targets(env *eval.Env, aspects []string, seed uint64) []target {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	perms := make([][]int, len(aspects))
	for a := range aspects {
		perms[a] = rng.Perm(len(env.TestIDs))
	}
	out := make([]target, 0, len(env.TestIDs)*len(aspects))
	for i := range env.TestIDs {
		for a, name := range aspects {
			id := env.TestIDs[perms[a][i]]
			out = append(out, target{entity: env.G.Corpus.Entity(id), aspect: corpus.Aspect(name)})
		}
	}
	return out
}

// window is one phase's timed interval and the process counters sampled
// at its boundaries.
type window struct {
	start, end time.Time
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

func (w window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// counters is a snapshot of the process counters a window differences.
type counters struct {
	at         time.Time
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

func sampleCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return counters{
		at:         time.Now(),
		cpu:        cpuTime(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
	}
}

func between(a, b counters) window {
	return window{
		start:      a.at,
		end:        b.at,
		cpu:        b.cpu - a.cpu,
		mallocs:    b.mallocs - a.mallocs,
		allocBytes: b.allocBytes - a.allocBytes,
		gcCPU:      b.gcCPU - a.gcCPU,
		totalCPU:   b.totalCPU - a.totalCPU,
	}
}

// sampleAt samples the counters at two instants from a helper goroutine;
// the returned func waits for the second sample. The hook, when set, runs
// right after each sample (e.g. to read an engine's cache counters).
func sampleAt(from, to time.Time, hook func(i int)) func() window {
	done := make(chan window, 1)
	go func() {
		time.Sleep(time.Until(from))
		a := sampleCounters()
		if hook != nil {
			hook(0)
		}
		time.Sleep(time.Until(to))
		b := sampleCounters()
		if hook != nil {
			hook(1)
		}
		done <- between(a, b)
	}()
	return func() window { return <-done }
}

// runtimeLayers derives the runtime.* per-layer metrics of a window.
func runtimeLayers(m map[string]metric, w window, ops int) {
	if ops == 0 {
		return
	}
	m["runtime.allocs_per_entity"] = metric{"runtime.allocs_per_entity", float64(w.mallocs) / float64(ops), "count", ops}
	m["runtime.alloc_mb_per_entity"] = metric{"runtime.alloc_mb_per_entity", float64(w.allocBytes) / float64(ops) / (1 << 20), "MB", ops}
	if w.totalCPU > 0 {
		m["runtime.gc_cpu_fraction"] = metric{"runtime.gc_cpu_fraction", w.gcCPU / w.totalCPU, "ratio", ops}
	}
}

// layerMetrics orders the per-layer metrics as spec.json lists them; a
// layer the workload never reaches reports 0 with sample count 0.
func layerMetrics(sp *spec, m map[string]metric) []metric {
	out := make([]metric, 0, len(sp.PerLayer))
	for _, name := range sp.PerLayer {
		v, ok := m[name]
		if !ok {
			v = metric{Name: name, Unit: layerUnits[name]}
		}
		out = append(out, v)
	}
	return out
}

// layerUnits gives each per-layer metric its unit (for zero rows too).
var layerUnits = map[string]string{
	"core.select.self_us.p50":        "us",
	"core.select.self_us.p99":        "us",
	"core.select.busy_share":         "ratio",
	"core.candidates.us.p50":         "us",
	"core.candidates.pool_size.mean": "count",
	"search.retrieve.us.p50":         "us",
	"search.retrieve.busy_share":     "ratio",
	"search.cache.hit_ratio":         "ratio",
	"classify.calls_per_step":        "count",
	"classify.distinct_ratio":        "ratio",
	"pipeline.handoff_ms.p50":        "ms",
	"pipeline.handoff_ms.p99":        "ms",
	"runtime.allocs_per_entity":      "count",
	"runtime.alloc_mb_per_entity":    "MB",
	"runtime.gc_cpu_fraction":        "ratio",
	"core.yield.relevant_ratio":      "ratio",
	"core.yield.new_pages_per_query": "count",
	"webapi.server.search_us.p50":    "us",
	"webapi.server.search_us.p99":    "us",
	"webapi.server.page_us.p50":      "us",
	"webapi.server.page_us.p99":      "us",
	"webapi.server.ingest_us.p50":    "us",
	"webapi.server.ingest_us.p99":    "us",
	"webapi.transport_us.p50":        "us",
	"webapi.pages_per_retrieve":      "count",
	"webapi.bytes_per_retrieve":      "B",
	"webapi.bytes_per_query":         "B",
	"webapi.bytes_per_ingested_page": "B",
	"search.live.compactions":        "count",
	"search.live.write_amp":          "ratio",
	"search.live.segments.max":       "count",
	"search.live.epoch_bumps_per_s":  "1/s",
	"load.lateness_ms.p99":           "ms",
	"trace.unattributed_ratio":       "ratio",
	"trace.overhead_ratio":           "ratio",
}

// put stores a metric under its own name.
func put(m map[string]metric, name string, v float64, n int) {
	m[name] = metric{name, v, layerUnits[name], n}
}
