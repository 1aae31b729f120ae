package graph

import (
	"math"
	"math/rand/v2"
	"testing"
)

// randomTripartite builds a random page/query/template graph for the
// incremental-mutation property tests.
func randomTripartite(rng *rand.Rand, nP, nQ, nT int, weighted bool) (*Graph, []NodeID, []NodeID, []NodeID) {
	g := New()
	pages := make([]NodeID, nP)
	for i := range pages {
		pages[i] = g.AddNode(KindPage)
	}
	queries := make([]NodeID, nQ)
	for i := range queries {
		queries[i] = g.AddNode(KindQuery)
	}
	templates := make([]NodeID, nT)
	for i := range templates {
		templates[i] = g.AddNode(KindTemplate)
	}
	w := func() float64 {
		if weighted {
			return 0.1 + rng.Float64()
		}
		return 1
	}
	for _, q := range queries {
		for _, p := range pages {
			if rng.Float64() < 0.3 {
				g.AddEdgePQ(p, q, w())
			}
		}
		for _, tm := range templates {
			if rng.Float64() < 0.4 {
				g.AddEdgeQT(q, tm, w())
			}
		}
	}
	return g, pages, queries, templates
}

// TestDetachQueryMatchesRebuild: detaching a query must leave every other
// node's utility exactly as if the query had never been added.
func TestDetachQueryMatchesRebuild(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		rng := rand.New(rand.NewPCG(7, 11))
		g, pages, queries, templates := randomTripartite(rng, 12, 8, 3, weighted)

		// Rebuild without query 5, replaying the same weights: regenerate
		// with the same seed and skip its edges.
		rng2 := rand.New(rand.NewPCG(7, 11))
		h := New()
		hPages := make([]NodeID, len(pages))
		for i := range hPages {
			hPages[i] = h.AddNode(KindPage)
		}
		hQueries := make([]NodeID, len(queries))
		for i := range hQueries {
			hQueries[i] = h.AddNode(KindQuery)
		}
		hTempl := make([]NodeID, len(templates))
		for i := range hTempl {
			hTempl[i] = h.AddNode(KindTemplate)
		}
		w2 := func() float64 {
			if weighted {
				return 0.1 + rng2.Float64()
			}
			return 1
		}
		const skip = 5
		for qi, q := range hQueries {
			for _, p := range hPages {
				if rng2.Float64() < 0.3 {
					if wv := w2(); qi != skip {
						h.AddEdgePQ(p, q, wv)
					}
				}
			}
			for _, tm := range hTempl {
				if rng2.Float64() < 0.4 {
					if wv := w2(); qi != skip {
						h.AddEdgeQT(q, tm, wv)
					}
				}
			}
		}

		v0 := g.Version()
		g.DetachQuery(queries[skip])
		if g.Version() == v0 {
			t.Fatal("DetachQuery did not bump the version")
		}
		if g.NumEdges() != h.NumEdges() {
			t.Fatalf("edge counts differ after detach: %d vs %d", g.NumEdges(), h.NumEdges())
		}
		if g.Degree(queries[skip]) != 0 {
			t.Fatalf("detached query keeps degree %d", g.Degree(queries[skip]))
		}

		for _, mode := range []Mode{Precision, Recall} {
			reg := make([]float64, g.NumNodes())
			for i, p := range pages {
				if i%2 == 0 {
					reg[p] = 0.5
				}
			}
			ra, err := Solve(Problem{G: g, Mode: mode, Reg: reg, Tol: 1e-13})
			if err != nil {
				t.Fatal(err)
			}
			rb, err := Solve(Problem{G: h, Mode: mode, Reg: reg, Tol: 1e-13})
			if err != nil {
				t.Fatal(err)
			}
			for v := range ra.U {
				if v == int(queries[skip]) {
					// The detached vertex itself decays to α·reg = 0.
					if ra.U[v] != 0 {
						t.Fatalf("detached query has utility %g", ra.U[v])
					}
					continue
				}
				if d := math.Abs(ra.U[v] - rb.U[v]); d > 1e-10 {
					t.Fatalf("%v weighted=%v node %d: detach %.15f vs rebuild %.15f",
						mode, weighted, v, ra.U[v], rb.U[v])
				}
			}
		}
	}
}

// TestWarmStartSameFixpoint: warm-starting from an arbitrary (even bad)
// iterate converges to the same solution, in no more iterations when the
// start is the previous solution.
func TestWarmStartSameFixpoint(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	g, pages, _, _ := randomTripartite(rng, 20, 15, 4, true)
	reg := make([]float64, g.NumNodes())
	for _, p := range pages {
		reg[p] = rng.Float64()
	}
	for _, mode := range []Mode{Precision, Recall} {
		cold, err := Solve(Problem{G: g, Mode: mode, Reg: reg, Tol: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		// Warm start at the exact solution: converges immediately.
		warm, err := Solve(Problem{G: g, Mode: mode, Reg: reg, Tol: 1e-12, X0: cold.U})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Iterations > 2 {
			t.Errorf("%v: warm start at solution took %d iterations", mode, warm.Iterations)
		}
		for v := range cold.U {
			if d := math.Abs(cold.U[v] - warm.U[v]); d > 1e-10 {
				t.Fatalf("%v node %d: warm %.15f vs cold %.15f", mode, v, warm.U[v], cold.U[v])
			}
		}
		// Warm start from garbage still converges to the fixpoint.
		bad := make([]float64, len(reg))
		for i := range bad {
			bad[i] = 10 * rng.Float64()
		}
		fromBad, err := Solve(Problem{G: g, Mode: mode, Reg: reg, Tol: 1e-12, X0: bad})
		if err != nil {
			t.Fatal(err)
		}
		for v := range cold.U {
			if d := math.Abs(cold.U[v] - fromBad.U[v]); d > 1e-9 {
				t.Fatalf("%v node %d: from-bad %.15f vs cold %.15f", mode, v, fromBad.U[v], cold.U[v])
			}
		}
	}
}

// TestWarmStartShortX0 covers the grown-graph convention: an X0 from
// before the graph grew is padded with Reg for the new nodes.
func TestWarmStartShortX0(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 2))
	g, pages, queries, _ := randomTripartite(rng, 10, 6, 2, false)
	reg := make([]float64, g.NumNodes())
	for _, p := range pages {
		reg[p] = 1
	}
	prev, err := Solve(Problem{G: g, Mode: Precision, Reg: reg, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	// Grow: one new page connected to an existing query.
	np := g.AddNode(KindPage)
	g.AddEdgePQ(np, queries[0], 1)
	reg2 := append(append([]float64(nil), reg...), 1)
	cold, err := Solve(Problem{G: g, Mode: Precision, Reg: reg2, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Solve(Problem{G: g, Mode: Precision, Reg: reg2, Tol: 1e-12, X0: prev.U})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations >= cold.Iterations {
		t.Errorf("warm start after one-page growth took %d iterations, cold %d",
			warm.Iterations, cold.Iterations)
	}
	for v := range cold.U {
		if d := math.Abs(cold.U[v] - warm.U[v]); d > 1e-10 {
			t.Fatalf("node %d: warm %.15f vs cold %.15f", v, warm.U[v], cold.U[v])
		}
	}
}

// TestDetachQueryPanicsOnNonQuery guards the kind check.
func TestDetachQueryPanicsOnNonQuery(t *testing.T) {
	g := New()
	p := g.AddNode(KindPage)
	defer func() {
		if recover() == nil {
			t.Fatal("DetachQuery(page) did not panic")
		}
	}()
	g.DetachQuery(p)
}
