package graph

import (
	"testing"

	"rfidsched/internal/deploy"
	"rfidsched/internal/randx"
)

// edgeSet is the naive reference the packed graph is checked against: a
// map of unordered vertex pairs.
type edgeSet struct {
	n     int
	edges map[[2]int]bool
}

func (r edgeSet) has(u, v int) bool { return r.edges[[2]int{min(u, v), max(u, v)}] }

// checkAgainst compares every query of g with the reference, including
// IsIndependentSet on random subsets (some with a repeated vertex).
func checkAgainst(t *testing.T, name string, g *Graph, ref edgeSet, rng *randx.RNG) {
	t.Helper()
	if g.N() != ref.n || g.M() != len(ref.edges) {
		t.Fatalf("%s: N=%d M=%d, want %d and %d", name, g.N(), g.M(), ref.n, len(ref.edges))
	}
	maxDeg := 0
	for u := 0; u < ref.n; u++ {
		var want []int32
		for v := 0; v < ref.n; v++ {
			if got := g.HasEdge(u, v); got != ref.has(u, v) {
				t.Fatalf("%s: HasEdge(%d,%d) = %v", name, u, v, got)
			}
			if ref.has(u, v) {
				want = append(want, int32(v))
			}
		}
		if g.HasEdge(u, ref.n) || g.HasEdge(u, -1) {
			t.Fatalf("%s: HasEdge(%d, out of range) = true", name, u)
		}
		nb := g.Neighbors(u)
		if len(nb) != len(want) || g.Degree(u) != len(want) {
			t.Fatalf("%s: Neighbors(%d) = %v, Degree %d, want %v", name, u, nb, g.Degree(u), want)
		}
		for i := range want {
			if nb[i] != want[i] {
				t.Fatalf("%s: Neighbors(%d) = %v, want %v", name, u, nb, want)
			}
		}
		maxDeg = max(maxDeg, len(want))
	}
	if g.MaxDegree() != maxDeg {
		t.Fatalf("%s: MaxDegree = %d, want %d", name, g.MaxDegree(), maxDeg)
	}
	for trial := 0; trial < 200 && ref.n > 0; trial++ {
		set := make([]int, 1+rng.Intn(4))
		for i := range set {
			set[i] = rng.Intn(ref.n)
		}
		want := true
		for i, u := range set {
			for _, v := range set[i+1:] {
				if u == v || ref.has(u, v) {
					want = false
				}
			}
		}
		if got := g.IsIndependentSet(set); got != want {
			t.Fatalf("%s: IsIndependentSet(%v) = %v, want %v", name, set, got, want)
		}
	}
}

// TestGraphMatchesEdgeSet differentially checks the packed conflict rows
// and the adjacency expanded from them against a naive edge set, for
// random edge lists and for the true graphs of random deployments.
func TestGraphMatchesEdgeSet(t *testing.T) {
	rng := randx.New(77)
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(150)
		p := rng.Float64()
		ref := edgeSet{n: n, edges: map[[2]int]bool{}}
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Bool(p) {
					ref.edges[[2]int{u, v}] = true
					if rng.Bool(0.5) {
						edges = append(edges, [2]int{v, u})
					} else {
						edges = append(edges, [2]int{u, v})
					}
				}
			}
		}
		for i := len(edges) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			edges[i], edges[j] = edges[j], edges[i]
		}
		g, err := New(n, edges)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkAgainst(t, "New", g, ref, rng)
	}
	for seed := uint64(1); seed <= 12; seed++ {
		cfg := deploy.Paper(seed, 12, 5)
		cfg.NumReaders, cfg.NumTags = 20+int(seed)*10, 200
		sys, err := deploy.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := edgeSet{n: sys.NumReaders(), edges: map[[2]int]bool{}}
		for u := 0; u < ref.n; u++ {
			for v := u + 1; v < ref.n; v++ {
				if !sys.Independent(u, v) {
					ref.edges[[2]int{u, v}] = true
				}
			}
		}
		checkAgainst(t, "FromSystem", FromSystem(sys), ref, rng)
	}
}
