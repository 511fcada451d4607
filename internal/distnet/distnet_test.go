package distnet

import (
	"sync/atomic"
	"testing"

	"rfidsched/internal/graph"
)

func mustGraph(t *testing.T, n int, edges [][2]int) *graph.Graph {
	t.Helper()
	g, err := graph.New(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// flooder floods a token through the graph and records the round it first
// heard it; node 0 originates.
type flooder struct {
	id    int
	g     *graph.Graph
	heard int32 // round+1 when first heard, 0 = never
}

func (f *flooder) Step(round int, inbox []Message) ([]Message, bool) {
	if f.id == 0 && round == 0 {
		atomic.StoreInt32(&f.heard, 1)
		return Broadcast(nil, f.g, 0, "tok"), false
	}
	if atomic.LoadInt32(&f.heard) == 0 && len(inbox) > 0 {
		atomic.StoreInt32(&f.heard, int32(round)+1)
		return Broadcast(nil, f.g, f.id, "tok"), false
	}
	// Park once heard (or after enough silence).
	if atomic.LoadInt32(&f.heard) != 0 || round > 10 {
		return nil, true
	}
	return nil, false
}

func TestFloodReachesByHopDistance(t *testing.T) {
	g := mustGraph(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	nodes := make([]Node, 5)
	fs := make([]*flooder, 5)
	for i := range nodes {
		fs[i] = &flooder{id: i, g: g}
		nodes[i] = fs[i]
	}
	stats, err := NewNetwork(g).Run(nodes, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range fs {
		wantRound := i // hop distance from 0
		if got := int(f.heard) - 1; got != wantRound {
			t.Errorf("node %d heard at round %d, want %d", i, got, wantRound)
		}
	}
	if stats.MessagesSent == 0 {
		t.Error("no messages counted")
	}
	for i, r := range stats.ParkedAtRound {
		if r < 0 {
			t.Errorf("node %d never parked", i)
		}
	}
}

type fn func(round int, inbox []Message) ([]Message, bool)

func (f fn) Step(round int, inbox []Message) ([]Message, bool) { return f(round, inbox) }

func TestRejectsNonNeighborSend(t *testing.T) {
	g := mustGraph(t, 3, [][2]int{{0, 1}})
	nodes := []Node{
		fn(func(round int, _ []Message) ([]Message, bool) {
			return []Message{{From: 0, To: 2, Payload: nil}}, true // 2 is not a neighbor
		}),
		fn(func(int, []Message) ([]Message, bool) { return nil, true }),
		fn(func(int, []Message) ([]Message, bool) { return nil, true }),
	}
	if _, err := NewNetwork(g).Run(nodes, 10); err == nil {
		t.Error("out-of-range send accepted")
	}
}

func TestRejectsForgedSender(t *testing.T) {
	g := mustGraph(t, 2, [][2]int{{0, 1}})
	nodes := []Node{
		fn(func(int, []Message) ([]Message, bool) {
			return []Message{{From: 1, To: 0}}, true // node 0 claims to be node 1
		}),
		fn(func(int, []Message) ([]Message, bool) { return nil, true }),
	}
	if _, err := NewNetwork(g).Run(nodes, 10); err == nil {
		t.Error("forged sender accepted")
	}
}

func TestMaxRoundsExceeded(t *testing.T) {
	g := mustGraph(t, 1, nil)
	nodes := []Node{fn(func(int, []Message) ([]Message, bool) { return nil, false })}
	if _, err := NewNetwork(g).Run(nodes, 5); err == nil {
		t.Error("runaway node not reported")
	}
}

func TestNodeCountMismatch(t *testing.T) {
	g := mustGraph(t, 2, nil)
	if _, err := NewNetwork(g).Run([]Node{}, 5); err == nil {
		t.Error("node count mismatch accepted")
	}
}

func TestInboxSortedBySender(t *testing.T) {
	g := mustGraph(t, 4, [][2]int{{3, 0}, {3, 1}, {3, 2}})
	var got []int
	nodes := []Node{
		fn(func(round int, _ []Message) ([]Message, bool) {
			return []Message{{From: 0, To: 3}}, true
		}),
		fn(func(round int, _ []Message) ([]Message, bool) {
			return []Message{{From: 1, To: 3}}, true
		}),
		fn(func(round int, _ []Message) ([]Message, bool) {
			return []Message{{From: 2, To: 3}}, true
		}),
		fn(func(round int, inbox []Message) ([]Message, bool) {
			if round == 1 {
				for _, m := range inbox {
					got = append(got, m.From)
				}
				return nil, true
			}
			return nil, false
		}),
	}
	if _, err := NewNetwork(g).Run(nodes, 10); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("inbox order = %v", got)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	build := func() ([]Node, *graph.Graph) {
		g := mustGraph(t, 6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
		nodes := make([]Node, 6)
		for i := range nodes {
			i := i
			nodes[i] = fn(func(round int, inbox []Message) ([]Message, bool) {
				if round >= 3 {
					return nil, true
				}
				return Broadcast(nil, g, i, round), false
			})
		}
		return nodes, g
	}
	n1, g1 := build()
	s1, err := NewNetwork(g1).Run(n1, 100)
	if err != nil {
		t.Fatal(err)
	}
	n2, g2 := build()
	s2, err := NewNetwork(g2).Run(n2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if s1.MessagesSent != s2.MessagesSent || s1.Rounds != s2.Rounds {
		t.Errorf("non-deterministic stats: %+v vs %+v", s1, s2)
	}
}

func TestTimeoutStatsStillReturned(t *testing.T) {
	g := mustGraph(t, 1, nil)
	nodes := []Node{fn(func(int, []Message) ([]Message, bool) { return nil, false })}
	stats, err := NewNetwork(g).Run(nodes, 2)
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if stats == nil || stats.Rounds != 2 {
		t.Errorf("stats on timeout: %+v", stats)
	}
}

// pinger sends the same prebuilt broadcast every round and parks at round
// last, so any allocation in a run belongs to the kernel.
type pinger struct {
	out  []Message
	last int
}

func (p *pinger) Step(round int, _ []Message) ([]Message, bool) {
	if round >= p.last {
		return nil, true
	}
	return p.out, false
}

// TestRunAllocsIndependentOfRounds pins the round kernel's buffer reuse:
// a run's buffers are set up in its first rounds, so 200 rounds of
// constant traffic must allocate exactly as much as 20.
func TestRunAllocsIndependentOfRounds(t *testing.T) {
	g := mustGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	allocs := func(rounds int) float64 {
		nodes := make([]Node, g.N())
		for i := range nodes {
			nodes[i] = &pinger{out: Broadcast(nil, g, i, "ping"), last: rounds}
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := NewNetwork(g).Run(nodes, rounds+1); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(20), allocs(200); short != long {
		t.Errorf("Run allocations grow with rounds: %v at 20 rounds, %v at 200", short, long)
	}
}
