// Package graph implements the interference graph of Definition 7: one node
// per reader, an edge whenever one reader lies inside the other's
// interference region (equivalently, whenever the two readers are NOT
// independent per Definition 2). Algorithms 2 and 3 operate purely on this
// graph — no geometry — which is exactly the paper's "no location
// information" setting. The package also provides the hop-neighborhood,
// coloring and growth-bound utilities those algorithms and the Colorwave
// baseline need.
package graph

import (
	"fmt"
	"math/bits"

	"rfidsched/internal/model"
)

// Graph is an undirected simple graph over vertices 0..n-1. It holds the
// relation twice: as packed conflict rows (a model.ConflictMatrix with
// the self bits set, which the mwfs solver consumes and HasEdge tests) and
// as sorted adjacency lists expanded from those rows for traversal. It is
// immutable after construction and safe for concurrent reads.
type Graph struct {
	n    int
	adj  [][]int32
	m    int // edge count
	conf model.ConflictMatrix
}

// New builds a graph over n vertices from an edge list. Self-loops and
// duplicate edges are rejected.
func New(n int, edges [][2]int) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	conf := model.NewConflictMatrix(n)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			return nil, fmt.Errorf("graph: self-loop at %d", u)
		}
		if u < 0 || v < 0 || u >= n || v >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
		}
		if conf.Conflicts(u, v) {
			return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
		}
		conf.Set(u, v)
	}
	return fromConflicts(n, conf), nil
}

// FromSystem derives the true interference graph of a deployment: an edge
// joins i and j iff they are not independent. This is the graph a perfect
// RF site survey would measure; package survey builds the noisy version.
// The graph shares the system's conflict matrix.
func FromSystem(sys *model.System) *Graph {
	return fromConflicts(sys.NumReaders(), sys.ConflictBits())
}

// fromConflicts expands the rows of conf, minus the self bits, into sorted
// adjacency lists over one backing array.
func fromConflicts(n int, conf model.ConflictMatrix) *Graph {
	deg := 0
	for _, w := range conf.Bits {
		deg += bits.OnesCount64(w)
	}
	g := &Graph{n: n, adj: make([][]int32, n), m: (deg - n) / 2, conf: conf}
	dat := make([]int32, 0, deg-n)
	for v := 0; v < n; v++ {
		start := len(dat)
		dat = conf.AppendNeighbors(dat, v)
		g.adj[v] = dat[start:len(dat):len(dat)]
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MaxDegree returns the maximum degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	d := 0
	for v := 0; v < g.n; v++ {
		if len(g.adj[v]) > d {
			d = len(g.adj[v])
		}
	}
	return d
}

// Neighbors returns the sorted adjacency list of v. Callers must not mutate
// the returned slice.
func (g *Graph) Neighbors(v int) []int32 { return g.adj[v] }

// Conflicts returns the graph's packed conflict rows: bit u of row v is set
// iff u == v or u and v are adjacent. This is the feasibility matrix the
// graph-only schedulers hand to mwfs. Callers must not mutate it.
func (g *Graph) Conflicts() model.ConflictMatrix { return g.conf }

// HasEdge reports whether u and v are adjacent; a v outside [0, N) is
// adjacent to nothing.
func (g *Graph) HasEdge(u, v int) bool {
	return u != v && uint(v) < uint(g.n) && g.conf.Conflicts(u, v)
}

// IsIndependentSet reports whether no two vertices of set are adjacent. In
// the interference graph this is precisely feasibility of a scheduling set.
func (g *Graph) IsIndependentSet(set []int) bool {
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			if set[i] == set[j] || g.HasEdge(set[i], set[j]) {
				return false
			}
		}
	}
	return true
}
