package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// benchmarkJSON is the repository's benchmark declaration.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestSpecMatchesBenchmarkJSON holds spec.json's metric lists and units to
// BENCHMARK.json, so the program reports exactly what the file declares.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layers []string
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range bj.PerLayer {
		layers = append(layers, m.Name)
		if u := layerUnits[m.Name]; u != m.Unit {
			t.Errorf("per-layer %s: unit %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, u)
		}
	}
	if !slices.Equal(e2e, sp.EndToEnd) {
		t.Errorf("end-to-end metrics: BENCHMARK.json %v, spec.json %v", e2e, sp.EndToEnd)
	}
	if !slices.Equal(layers, sp.PerLayer) {
		t.Errorf("per-layer metrics: BENCHMARK.json %v, spec.json %v", layers, sp.PerLayer)
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}

// TestSmoke runs every workload at smoke size, plain and traced, and
// checks the result line: correct, every declared metric with its unit.
func TestSmoke(t *testing.T) {
	bj := readBenchmarkJSON(t)
	units := map[string]string{}
	for _, m := range bj.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		units[m.Name] = m.Unit
	}
	for _, w := range bj.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				line := runSmoke(t, w.Name, trace)
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &res); err != nil {
					t.Fatalf("result line %q: %v", line, err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := bj.EndToEnd
				if trace == "1" {
					want = bj.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != units[m.Name] {
						t.Errorf("metric %s: unit %q, declared %q", m.Name, got.Unit, units[m.Name])
					}
					if trace == "0" && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// runSmoke runs one smoke-size workload in-process and returns the last
// line it printed.
func runSmoke(t *testing.T, workload, trace string) string {
	t.Helper()
	out := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
		"--smoke", "--spans", t.TempDir()})
	os.Stdout = stdout
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	r, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var last string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	return last
}
