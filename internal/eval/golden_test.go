//go:build !race

package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"l2q/internal/corpus"
	"l2q/internal/synth"
)

// goldenFigures is the committed result of paperFigures on both domains.
var goldenFigures = filepath.Join("testdata", "figures_golden.json")

// TestPaperFiguresGolden runs the `l2qexp -quick` configuration
// (QuickConfig, default seed) on both domains and compares Fig. 9–13, the
// crawler comparison and the budget comparison, as full-precision JSON,
// against testdata/figures_golden.json. Fig. 14 and every SelectionSec*
// field are wall-clock timings and are left out; everything else is
// deterministic, so any change to a ranking or a figure shows up here.
//
// To regenerate the file after an intended change of results, delete it
// and run
//
//	go test -run TestPaperFiguresGolden ./internal/eval/
//
// The run writes a fresh file and fails; review its diff and commit it.
//
// The test takes about 30 s, so it is skipped under -short, and it is
// left out of race builds, which make it far slower.
func TestPaperFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("paper figures take ~30 s; skipped under -short")
	}
	got := map[corpus.Domain]map[string]any{}
	for _, d := range []corpus.Domain{synth.DomainResearchers, synth.DomainCars} {
		figs, err := paperFigures(QuickConfig(d))
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		got[d] = figs
	}
	gotJSON, err := canonicalJSON(got)
	if err != nil {
		t.Fatal(err)
	}

	want, err := os.ReadFile(goldenFigures)
	if os.IsNotExist(err) {
		if err := os.WriteFile(goldenFigures, gotJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing and has been written; review and commit it", goldenFigures)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, want) {
		t.Fatalf("paper figures differ from %s:\n%s", goldenFigures, firstDiff(want, gotJSON))
	}
}

// paperFigures runs every deterministic figure of one domain, keyed by
// the figure names `l2qexp -json` uses.
func paperFigures(cfg Config) (map[string]any, error) {
	env, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	out := map[string]any{"fig9": env.Fig9()}
	runs := []struct {
		name string
		run  func() (any, error)
	}{
		{"fig10", func() (any, error) { return env.Fig10() }},
		{"fig11", func() (any, error) { return env.Fig11() }},
		{"fig12", func() (any, error) { return env.Fig12() }},
		{"fig13", func() (any, error) { return env.Fig13() }},
		{"crawl", func() (any, error) { return env.CompareCrawler() }},
		{"budget", func() (any, error) { return env.BudgetComparison(context.Background(), cfg.NumQueries) }},
	}
	for _, r := range runs {
		res, err := r.run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		out[r.name] = res
	}
	return out, nil
}

// canonicalJSON marshals v as indented JSON with every SelectionSec*
// field removed. Numbers pass through json.Number, so they keep the
// shortest text that round-trips to the exact float64.
func canonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, err
	}
	dropTimings(tree)
	out, err := json.MarshalIndent(tree, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// dropTimings deletes every object key starting with "SelectionSec".
func dropTimings(v any) {
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			if strings.HasPrefix(k, "SelectionSec") {
				delete(v, k)
				continue
			}
			dropTimings(child)
		}
	case []any:
		for _, child := range v {
			dropTimings(child)
		}
	}
}

// firstDiff shows the first differing line of two texts with a little
// context.
func firstDiff(want, got []byte) string {
	w := strings.Split(string(want), "\n")
	g := strings.Split(string(got), "\n")
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	var b strings.Builder
	for j := max(0, i-3); j < i; j++ {
		fmt.Fprintf(&b, "  %5d   %s\n", j+1, w[j])
	}
	if i < len(w) {
		fmt.Fprintf(&b, "- %5d   %s\n", i+1, w[i])
	}
	if i < len(g) {
		fmt.Fprintf(&b, "+ %5d   %s\n", i+1, g[i])
	}
	return b.String()
}
