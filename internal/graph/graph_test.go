package graph

import (
	"testing"

	"rfidsched/internal/geom"
	"rfidsched/internal/model"
)

// pathGraph returns the path 0-1-2-...-n-1.
func pathGraph(t *testing.T, n int) *Graph {
	t.Helper()
	edges := make([][2]int, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	g, err := New(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	for _, c := range []struct {
		n     int
		edges [][2]int
		want  string
	}{
		{-1, nil, "graph: negative vertex count -1"},
		{2, [][2]int{{0, 0}}, "graph: self-loop at 0"},
		{2, [][2]int{{0, 5}}, "graph: edge (0,5) out of range [0,2)"},
		{2, [][2]int{{-1, 1}}, "graph: edge (-1,1) out of range [0,2)"},
		{2, [][2]int{{0, 1}, {1, 0}}, "graph: duplicate edge (1,0)"},
		{3, [][2]int{{0, 2}, {1, 2}, {0, 2}}, "graph: duplicate edge (0,2)"},
	} {
		if _, err := New(c.n, c.edges); err == nil || err.Error() != c.want {
			t.Errorf("New(%d, %v): error %v, want %q", c.n, c.edges, err, c.want)
		}
	}
}

func TestBasicProperties(t *testing.T) {
	g := pathGraph(t, 5)
	if g.N() != 5 || g.M() != 4 {
		t.Errorf("N=%d M=%d", g.N(), g.M())
	}
	if g.Degree(0) != 1 || g.Degree(2) != 2 {
		t.Error("degrees wrong")
	}
	if g.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d", g.MaxDegree())
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Error("HasEdge misses edge")
	}
	if g.HasEdge(0, 2) {
		t.Error("HasEdge invents edge")
	}
}

func TestIsIndependentSet(t *testing.T) {
	g := pathGraph(t, 5)
	if !g.IsIndependentSet([]int{0, 2, 4}) {
		t.Error("alternating set should be independent")
	}
	if g.IsIndependentSet([]int{0, 1}) {
		t.Error("adjacent pair accepted")
	}
	if g.IsIndependentSet([]int{2, 2}) {
		t.Error("duplicate accepted")
	}
	if !g.IsIndependentSet(nil) {
		t.Error("empty set should be independent")
	}
}

func TestHopDistances(t *testing.T) {
	g := pathGraph(t, 6)
	dist := g.HopDistances(0, -1)
	for i := 0; i < 6; i++ {
		if dist[i] != i {
			t.Errorf("dist[%d] = %d", i, dist[i])
		}
	}
	capped := g.HopDistances(0, 2)
	if capped[2] != 2 || capped[3] != -1 {
		t.Errorf("capped distances wrong: %v", capped)
	}
	if d := g.HopDistances(-1, 3); d[0] != -1 {
		t.Error("invalid source should yield all -1")
	}
}

func TestBall(t *testing.T) {
	g := pathGraph(t, 7)
	ball := g.Ball(3, 2)
	want := []int{1, 2, 3, 4, 5}
	if len(ball) != len(want) {
		t.Fatalf("Ball = %v", ball)
	}
	for i := range want {
		if ball[i] != want[i] {
			t.Fatalf("Ball = %v, want %v", ball, want)
		}
	}
	if g.BallSize(3, 2) != 5 {
		t.Errorf("BallSize = %d", g.BallSize(3, 2))
	}
	if got := g.Ball(0, 0); len(got) != 1 || got[0] != 0 {
		t.Errorf("Ball(v,0) = %v", got)
	}
}

func TestComponents(t *testing.T) {
	g, err := New(6, [][2]int{{0, 1}, {1, 2}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %v", comps)
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 {
		t.Errorf("first component = %v", comps[0])
	}
	if len(comps[1]) != 1 || comps[1][0] != 3 {
		t.Errorf("second component = %v", comps[1])
	}
	if len(comps[2]) != 2 || comps[2][0] != 4 {
		t.Errorf("third component = %v", comps[2])
	}
}

func TestEccentricityDiameter(t *testing.T) {
	g := pathGraph(t, 5)
	if e := g.Eccentricity(0); e != 4 {
		t.Errorf("ecc(0) = %d", e)
	}
	if e := g.Eccentricity(2); e != 2 {
		t.Errorf("ecc(2) = %d", e)
	}
	if d := g.Diameter(); d != 4 {
		t.Errorf("diameter = %d", d)
	}
}

func TestFromSystem(t *testing.T) {
	readers := []model.Reader{
		{Pos: geom.Pt(0, 0), InterferenceR: 8, InterrogationR: 4},
		{Pos: geom.Pt(5, 0), InterferenceR: 8, InterrogationR: 4},  // adjacent to 0
		{Pos: geom.Pt(20, 0), InterferenceR: 8, InterrogationR: 4}, // independent
	}
	sys, err := model.NewSystem(readers, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := FromSystem(sys)
	if !g.HasEdge(0, 1) {
		t.Error("missing interference edge 0-1")
	}
	if g.HasEdge(0, 2) || g.HasEdge(1, 2) {
		t.Error("spurious edge to independent reader")
	}
	// Edge relation must agree with independence for every pair.
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if g.HasEdge(i, j) == sys.Independent(i, j) {
				t.Errorf("edge/independence mismatch (%d,%d)", i, j)
			}
		}
	}
}

func TestGreedyColoring(t *testing.T) {
	g := pathGraph(t, 10)
	colors, k := g.GreedyColoring(nil)
	if !g.IsProperColoring(colors) {
		t.Fatal("improper coloring")
	}
	if k != 2 {
		t.Errorf("path should 2-color, got %d", k)
	}
}

func TestGreedyColoringCustomOrder(t *testing.T) {
	g, err := New(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}) // 4-cycle
	if err != nil {
		t.Fatal(err)
	}
	colors, k := g.GreedyColoring([]int{3, 1, 0, 2})
	if !g.IsProperColoring(colors) || k < 2 {
		t.Errorf("coloring %v with %d colors", colors, k)
	}
	// Partial/duplicated order must still color everything.
	colors2, _ := g.GreedyColoring([]int{2, 2, 99})
	if !g.IsProperColoring(colors2) {
		t.Error("partial order coloring improper")
	}
}

func TestDegeneracyOrderColoring(t *testing.T) {
	// Complete graph K5 needs 5 colors regardless of order.
	var edges [][2]int
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	g, err := New(5, edges)
	if err != nil {
		t.Fatal(err)
	}
	ord := g.DegeneracyOrder()
	if len(ord) != 5 {
		t.Fatalf("order = %v", ord)
	}
	colors, k := g.GreedyColoring(ord)
	if !g.IsProperColoring(colors) || k != 5 {
		t.Errorf("K5 colored with %d colors", k)
	}
}

func TestIsProperColoringRejects(t *testing.T) {
	g := pathGraph(t, 3)
	if g.IsProperColoring([]int{0, 0, 1}) {
		t.Error("monochromatic edge accepted")
	}
	if g.IsProperColoring([]int{0, -1, 0}) {
		t.Error("uncolored vertex accepted")
	}
	if g.IsProperColoring([]int{0, 1}) {
		t.Error("wrong length accepted")
	}
}

func TestColorClasses(t *testing.T) {
	classes := ColorClasses([]int{0, 1, 0, 2, 1}, 3)
	if len(classes) != 3 {
		t.Fatalf("classes = %v", classes)
	}
	if len(classes[0]) != 2 || classes[0][0] != 0 || classes[0][1] != 2 {
		t.Errorf("class 0 = %v", classes[0])
	}
	if len(classes[2]) != 1 || classes[2][0] != 3 {
		t.Errorf("class 2 = %v", classes[2])
	}
}

func TestGrowthFunction(t *testing.T) {
	g := pathGraph(t, 9)
	f := g.GrowthFunction(3)
	// Ball(v,r) on a path has <= 2r+1 vertices; max independent set within
	// is ceil((2r+1)/2) = r+1.
	want := []int{1, 2, 3, 4}
	for r, fr := range f {
		if fr != want[r] {
			t.Errorf("f(%d) = %d, want %d", r, fr, want[r])
		}
	}
}

func TestMaxIndependentSetSize(t *testing.T) {
	g := pathGraph(t, 5)
	all := []int{0, 1, 2, 3, 4}
	if s := g.maxIndependentSetSize(all); s != 3 {
		t.Errorf("MIS of P5 = %d, want 3", s)
	}
	if s := g.maxIndependentSetSize(nil); s != 0 {
		t.Errorf("MIS of empty = %d", s)
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := New(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 0 || g.MaxDegree() != 0 || g.Diameter() != 0 {
		t.Error("empty graph stats nonzero")
	}
	if comps := g.Components(); len(comps) != 0 {
		t.Errorf("components = %v", comps)
	}
	colors, k := g.GreedyColoring(nil)
	if len(colors) != 0 || k != 0 {
		t.Error("empty coloring wrong")
	}
}

// Geometric interference graphs are polynomially growth-bounded — the
// assumption Theorems 3/5 of the paper rest on. Empirically: the number of
// mutually independent readers inside an r-hop ball grows at most
// quadratically in r (disk packing), far below the exponential growth a
// general graph allows.
func TestGrowthBoundedOnGeometricGraphs(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		sys, err := model.NewSystem(randomReaders(seed, 40), nil)
		if err != nil {
			t.Fatal(err)
		}
		g := FromSystem(sys)
		f := g.GrowthFunction(4)
		for r := 1; r <= 4; r++ {
			// Packing bound: independent readers within r hops fit inside a
			// disk of radius ~2r*Rmax with pairwise distance > Rmin; the
			// quadratic cap below is loose by design (constants absorbed).
			cap := 8*(2*r+1)*(2*r+1) + 1
			if f[r] > cap {
				t.Errorf("seed %d: f(%d) = %d exceeds quadratic cap %d", seed, r, f[r], cap)
			}
		}
		// Monotone in r.
		for r := 1; r <= 4; r++ {
			if f[r] < f[r-1] {
				t.Errorf("growth function not monotone: f(%d)=%d < f(%d)=%d", r, f[r], r-1, f[r-1])
			}
		}
	}
}

func randomReaders(seed uint64, n int) []model.Reader {
	// Simple LCG so this test needs no extra imports.
	state := seed*2862933555777941757 + 3037000493
	next := func() float64 {
		state = state*2862933555777941757 + 3037000493
		return float64(state>>11) / float64(1<<53)
	}
	readers := make([]model.Reader, n)
	for i := range readers {
		R := 3 + 8*next()
		readers[i] = model.Reader{
			Pos:            geom.Pt(next()*80, next()*80),
			InterferenceR:  R,
			InterrogationR: R / 2,
		}
	}
	return readers
}
