// Command l2qbench is the repository's benchmark: one process that builds
// its inputs from a seed, drives one workload against the harvester's
// public surfaces, checks every output it can against an in-process
// reference, and prints its metrics.
//
//	l2qbench --workload harvest|search|ingest --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics with nothing wrapped.
// With --trace 1 every other job or op runs behind span-recording
// wrappers around the calls into each layer, and the run prints the
// per-layer metrics derived from those spans, plus the overhead of
// tracing itself (traced against untraced in the same window). The last
// line of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. The exit code is non-zero when a correctness gate
// fails or the run cannot be set up.
//
// spec.json (embedded) freezes every size and rate, the per-workload
// meaning of each metric, and the per-layer → end-to-end map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	spansDir string
}

func run(args []string) int {
	fs := flag.NewFlagSet("l2qbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: harvest, search or ingest")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed: the same seed builds the same corpus, schedule and entity order")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per phase (warm-up excluded)")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny corpus and short phases, for the benchmark's own tests")
	fs.StringVar(&o.spansDir, "spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "l2qbench: --trace must be 0 or 1")
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "l2qbench: --seconds must be positive")
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "l2qbench:", err)
		return 1
	}
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "l2qbench: unknown workload %q (want harvest, search or ingest)\n", o.workload)
		return 2
	}
	capConnections()

	res, err := w(o, sp)
	if res != nil && res.stop != nil {
		// Teardown (server shutdown, scheduler close) runs only after the
		// results are written, so its drain can never enter a number.
		defer res.stop()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "l2qbench:", err)
		return 1
	}
	res.e2e = append(res.e2e,
		metric{"setup_s", res.setup.cpu, "s", setupRepeats},
		metric{"rss_peak_mb", res.rssMB, "MB", 1})
	if o.trace {
		if res.spans != nil {
			if err := res.spans.write(o.spansDir, o.workload, o.seed); err != nil {
				fmt.Fprintln(os.Stderr, "l2qbench: writing spans:", err)
			}
		}
	}
	for _, n := range res.notes {
		fmt.Fprintln(os.Stderr, "l2qbench:", n)
	}
	if err := report(os.Stdout, o, sp, res); err != nil {
		fmt.Fprintln(os.Stderr, "l2qbench:", err)
		return 1
	}
	if !res.correct {
		for _, m := range res.mismatches {
			fmt.Fprintln(os.Stderr, "l2qbench: correctness:", m)
		}
		return 1
	}
	return 0
}

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(options, *spec) (*result, error){
	"harvest": runHarvest,
	"search":  runSearch,
	"ingest":  runIngest,
}

// metric is one reported number with its sample count.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// result is what a workload hands back to the reporter.
type result struct {
	correct    bool
	mismatches []string
	attempted  int
	failed     int
	setup      setupTimes
	rssMB      float64  // peak RSS from set-up through the timed phases
	notes      []string // first error of each failing op kind
	// e2e holds the generic end-to-end metrics of BENCHMARK.json; named
	// holds the same measurements under the workload's own names (entity,
	// retrieve, query, ingest lag), printed above the result line.
	e2e    []metric
	named  []metric
	layers []metric
	spans  *tracer
	stop   func()
}

// report prints the human-readable table and then the result line.
func report(w *os.File, o options, sp *spec, res *result) error {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	named := append(res.named, metric{"setup_wall_s", res.setup.wall, "s", setupRepeats})
	for _, m := range named {
		fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	want := sp.EndToEnd
	got := res.e2e
	if o.trace {
		want = sp.PerLayer
		got = res.layers
	}
	out := map[string]map[string]any{}
	for _, m := range got {
		if _, dup := out[m.Name]; dup {
			return fmt.Errorf("metric %s reported twice", m.Name)
		}
		out[m.Name] = map[string]any{"value": finite(m.Value), "unit": m.Unit}
		fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	var missing []string
	for _, name := range want {
		if _, ok := out[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 || len(out) != len(want) {
		return fmt.Errorf("reported metrics do not match spec.json: missing %v, reported %d, want %d", missing, len(out), len(want))
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// missedMs stands in for the latency of a failed op: a failure misses
// every latency limit, and JSON has no infinity.
const missedMs = 1e9

func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return missedMs
	}
	return v
}

// baseTransport is http.DefaultTransport capped at nproc connections per
// host. Client and the raw query op both send through
// http.DefaultTransport, so installing it caps every client in the process.
var baseTransport = sync.OnceValue(func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxConnsPerHost = runtime.NumCPU()
	t.MaxIdleConnsPerHost = runtime.NumCPU()
	return t
})

func capConnections() { http.DefaultTransport = baseTransport() }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the peak-RSS high-water mark at the current
// resident size, so input generation done before set-up does not count.
// Where /proc/self/clear_refs is unavailable the mark is left alone.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set since the last reset
// (VmHWM), or the lifetime peak from getrusage where /proc is missing.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// setupRepeats is how many times a run builds its system; setup_s is
// the median, and only the last build is driven.
const setupRepeats = 3

// timeSetup builds the system setupRepeats times, discarding all but the
// last, and returns the median set-up time. Set-up time is the process's
// CPU time (user+system) across the build: on a host whose CPUs are
// shared with other tenants, wall time stretches with whatever the
// neighbours run, while CPU time tracks the work the set-up does.
func timeSetup[T any](build func() (T, error), discard func(T)) (T, setupTimes, error) {
	var last T
	var secs, wall []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			discard(last)
			var zero T
			last = zero
			runtime.GC()
		}
		start, t0 := cpuTime(), time.Now()
		v, err := build()
		if err != nil {
			return last, setupTimes{}, err
		}
		secs = append(secs, (cpuTime() - start).Seconds())
		wall = append(wall, time.Since(t0).Seconds())
		last = v
	}
	return last, setupTimes{cpu: median(secs), wall: median(wall)}, nil
}

// setupTimes are the median CPU and wall seconds of the set-ups.
type setupTimes struct{ cpu, wall float64 }

func median(v []float64) float64 {
	s := slices.Clone(v)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates linearly between the closest ranks of a sorted
// sample (0 for an empty one).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// latencies is one op kind's latency sample in milliseconds.
type latencies []float64

func (l latencies) sorted() latencies {
	s := slices.Clone(l)
	sort.Float64s(s)
	return s
}

// pct reports a percentile of an already sorted sample.
func (l latencies) pct(q float64) float64 { return quantile(l, q) }

// series is a latency sample (ms) with the instant each value was taken.
type series struct {
	at []int64
	v  []float64
}

func (s *series) add(at time.Time, v float64) {
	s.at = append(s.at, at.UnixNano())
	s.v = append(s.v, v)
}

func (s *series) n() int { return len(s.v) }

// maxSlices bounds how many consecutive slices a window's sample is cut
// into for windowed percentiles.
const maxSlices = 8

// pct is the q-quantile of the sample taken as the median over up to
// maxSlices consecutive slices of equal count, each holding at least ten
// values beyond the quantile. A burst of interference that covers a
// minority of the slices then moves the figure little; a slowdown that
// lasts the whole window moves it fully.
func (s *series) pct(q float64) float64 {
	n := len(s.v)
	if n == 0 {
		return 0
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return s.at[idx[a]] < s.at[idx[b]] })
	k := min(maxSlices, int(float64(n)*(1-q)/10))
	k = max(k, 1)
	per := make([]float64, 0, k)
	for j := 0; j < k; j++ {
		lo, hi := j*n/k, (j+1)*n/k
		part := make(latencies, 0, hi-lo)
		for _, i := range idx[lo:hi] {
			part = append(part, s.v[i])
		}
		per = append(per, part.sorted().pct(q))
	}
	return median(per)
}
