package model

import (
	"fmt"
	"math/bits"
)

// ConflictMatrix is a packed symmetric conflict relation over readers
// 0..n-1: row v occupies Bits[v*Stride : (v+1)*Stride], and bit u of row v
// is set iff readers u and v may not be active in the same slot. A reader
// always conflicts with itself, so every self bit is set. It is the one
// feasibility representation the solvers consume: System.ConflictBits
// derives it from geometry (Def. 2) and graph.Graph from an interference
// graph, possibly a surveyed one.
type ConflictMatrix struct {
	Bits   []uint64
	Stride int
}

// NewConflictMatrix returns an n-reader matrix holding only the self bits.
func NewConflictMatrix(n int) ConflictMatrix {
	m := ConflictMatrix{Stride: (n + 63) / 64}
	m.Bits = make([]uint64, n*m.Stride)
	for v := 0; v < n; v++ {
		m.Set(v, v)
	}
	return m
}

// Row returns reader v's row. Rows of a shared matrix must not be mutated.
func (m ConflictMatrix) Row(v int) []uint64 { return m.Bits[v*m.Stride : (v+1)*m.Stride] }

// Conflicts reports whether readers u and v conflict.
func (m ConflictMatrix) Conflicts(u, v int) bool {
	return m.Bits[u*m.Stride+v>>6]&(1<<(uint(v)&63)) != 0
}

// Set marks readers u and v as conflicting, in both rows.
func (m ConflictMatrix) Set(u, v int) {
	m.Bits[u*m.Stride+v>>6] |= 1 << (uint(v) & 63)
	m.Bits[v*m.Stride+u>>6] |= 1 << (uint(u) & 63)
}

// AppendNeighbors appends the readers that conflict with v, other than v
// itself, to dst in ascending order.
func (m ConflictMatrix) AppendNeighbors(dst []int32, v int) []int32 {
	for k, w := range m.Row(v) {
		for ; w != 0; w &= w - 1 {
			if u := k<<6 + bits.TrailingZeros64(w); u != v {
				dst = append(dst, int32(u))
			}
		}
	}
	return dst
}

// ConflictsWithAny reports whether reader v conflicts with a member of set,
// a bitset of Stride words: one word-AND per 64 readers instead of one
// pairwise test per member.
func (m ConflictMatrix) ConflictsWithAny(v int, set []uint64) bool {
	for k, w := range m.Row(v) {
		if w&set[k] != 0 {
			return true
		}
	}
	return false
}

// CheckCovers returns an error unless the matrix has a full row for each of
// n readers, so a matrix built for a smaller system fails loudly instead of
// reading another reader's bits.
func (m ConflictMatrix) CheckCovers(n int) error {
	if m.Stride < (n+63)/64 || len(m.Bits) < n*m.Stride {
		return fmt.Errorf("model: conflict matrix of %d words at stride %d cannot cover %d readers", len(m.Bits), m.Stride, n)
	}
	return nil
}
