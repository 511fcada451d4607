package distnet

import (
	"reflect"
	"testing"

	"rfidsched/internal/fault"
)

// chatter sends payload to a fixed peer every round until lastRound, then
// parks. It records the first round a nonempty inbox arrived.
type chatter struct {
	id, peer  int
	lastRound int
	heardAt   int // -1 until a message arrives
	got       []Message
}

func newChatter(id, peer, lastRound int) *chatter {
	return &chatter{id: id, peer: peer, lastRound: lastRound, heardAt: -1}
}

func (c *chatter) Step(round int, inbox []Message) ([]Message, bool) {
	if len(inbox) > 0 && c.heardAt < 0 {
		c.heardAt = round
		c.got = append(c.got, inbox...)
	}
	if round >= c.lastRound {
		return nil, true
	}
	if c.peer >= 0 {
		return []Message{{From: c.id, To: c.peer, Payload: round}}, false
	}
	return nil, false
}

func TestPermanentCrashRemovesNodeAndBlocksFlood(t *testing.T) {
	// Chain 0-1-2-3-4 with node 2 crashed from the start: the token flood
	// from node 0 must never reach nodes 3 and 4, and the run must still
	// terminate (a crashed node can never park).
	g := mustGraph(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	nodes := make([]Node, 5)
	fs := make([]*flooder, 5)
	for i := range nodes {
		fs[i] = &flooder{id: i, g: g}
		nodes[i] = fs[i]
	}
	plan := fault.MustCompile(fault.Scenario{Events: []fault.Event{fault.Crash(2, 0)}}, 5)
	stats, err := NewNetwork(g).WithFaults(plan).Run(nodes, 100)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CrashedNodes != 1 {
		t.Errorf("CrashedNodes = %d, want 1", stats.CrashedNodes)
	}
	if fs[1].heard == 0 {
		t.Error("node 1 should still hear the flood")
	}
	for _, id := range []int{2, 3, 4} {
		if fs[id].heard != 0 {
			t.Errorf("node %d heard the flood across a crashed relay", id)
		}
	}
	if stats.ParkedAtRound[2] != -1 {
		t.Error("crashed node reported as parked")
	}
}

func TestCrashWithRecoveryReceivesAfterReboot(t *testing.T) {
	g := mustGraph(t, 2, [][2]int{{0, 1}})
	sender := newChatter(0, 1, 8)
	receiver := newChatter(1, -1, 8)
	plan := fault.MustCompile(fault.Scenario{Events: []fault.Event{fault.CrashRecover(1, 0, 3)}}, 2)
	if _, err := NewNetwork(g).WithFaults(plan).Run([]Node{sender, receiver}, 100); err != nil {
		t.Fatal(err)
	}
	// Messages sent while the radio is dark (rounds 0-2) are lost; the
	// first one that can land is sent at round 3 and read at round 4.
	if receiver.heardAt != 4 {
		t.Errorf("receiver heard at round %d, want 4", receiver.heardAt)
	}
}

func TestPartitionCutsAndHeals(t *testing.T) {
	g := mustGraph(t, 3, [][2]int{{0, 1}, {1, 2}})

	// Permanent cut of edge (1,2): node 2 stays deaf.
	relayDeaf := func() (*Stats, *chatter) {
		n0 := newChatter(0, 1, 10)
		n1 := newChatter(1, 2, 10)
		n2 := newChatter(2, -1, 10)
		plan := fault.MustCompile(fault.Scenario{Events: []fault.Event{
			fault.Partition([][2]int{{1, 2}}, 0, fault.Forever),
		}}, 3)
		stats, err := NewNetwork(g).WithFaults(plan).Run([]Node{n0, n1, n2}, 100)
		if err != nil {
			t.Fatal(err)
		}
		return stats, n2
	}
	stats, n2 := relayDeaf()
	if n2.heardAt != -1 {
		t.Error("message crossed a cut edge")
	}
	if stats.PartitionDropped == 0 || stats.PartitionedRounds == 0 {
		t.Errorf("partition telemetry missing: %+v", stats)
	}

	// Healing cut [0,4): traffic resumes once the interval ends.
	n0 := newChatter(0, 1, 10)
	n1 := newChatter(1, 2, 10)
	n2 = newChatter(2, -1, 10)
	plan := fault.MustCompile(fault.Scenario{Events: []fault.Event{
		fault.Partition([][2]int{{1, 2}}, 0, 4),
	}}, 3)
	if _, err := NewNetwork(g).WithFaults(plan).Run([]Node{n0, n1, n2}, 100); err != nil {
		t.Fatal(err)
	}
	if n2.heardAt != 5 {
		t.Errorf("node 2 heard at round %d, want 5 (first send after heal at round 4)", n2.heardAt)
	}
}

func TestStragglerRetainsInbox(t *testing.T) {
	g := mustGraph(t, 2, [][2]int{{0, 1}})
	sender := newChatter(0, 1, 1) // sends once at round 0, parks at round 1
	receiver := newChatter(1, -1, 8)
	plan := fault.MustCompile(fault.Scenario{Events: []fault.Event{
		fault.Straggle(1, 1, 4), // skips rounds 1..4
	}}, 2)
	stats, err := NewNetwork(g).WithFaults(plan).Run([]Node{sender, receiver}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if stats.StragglerSkips != 4 {
		t.Errorf("StragglerSkips = %d, want 4", stats.StragglerSkips)
	}
	// The round-0 message is delivered at round 1, survives the pause, and
	// is finally read at round 5.
	if receiver.heardAt != 5 || len(receiver.got) != 1 {
		t.Errorf("receiver heard at %d with %d messages, want round 5 with 1", receiver.heardAt, len(receiver.got))
	}
}

func TestDuplicationDeliversTwice(t *testing.T) {
	g := mustGraph(t, 2, [][2]int{{0, 1}})
	sender := newChatter(0, 1, 1)
	receiver := newChatter(1, -1, 3)
	plan := fault.MustCompile(fault.Scenario{Events: []fault.Event{
		fault.Duplicate(1, 0, fault.Forever),
	}}, 2)
	stats, err := NewNetwork(g).WithFaults(plan).Run([]Node{sender, receiver}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DuplicatedMessages != 1 {
		t.Errorf("DuplicatedMessages = %d, want 1", stats.DuplicatedMessages)
	}
	if len(receiver.got) != 2 {
		t.Errorf("receiver got %d copies, want 2", len(receiver.got))
	}
}

func TestReorderIsDeterministic(t *testing.T) {
	g := mustGraph(t, 4, [][2]int{{3, 0}, {3, 1}, {3, 2}})
	run := func() ([]int, *Stats) {
		var got []int
		nodes := []Node{
			fn(func(int, []Message) ([]Message, bool) { return []Message{{From: 0, To: 3}}, true }),
			fn(func(int, []Message) ([]Message, bool) { return []Message{{From: 1, To: 3}}, true }),
			fn(func(int, []Message) ([]Message, bool) { return []Message{{From: 2, To: 3}}, true }),
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
		plan := fault.MustCompile(fault.Scenario{Seed: 3, Events: []fault.Event{
			fault.Reorder(0, fault.Forever),
		}}, 4)
		stats, err := NewNetwork(g).WithFaults(plan).Run(nodes, 10)
		if err != nil {
			t.Fatal(err)
		}
		return got, stats
	}
	got1, s1 := run()
	got2, s2 := run()
	if !reflect.DeepEqual(got1, got2) {
		t.Errorf("reorder not reproducible: %v vs %v", got1, got2)
	}
	if len(got1) != 3 {
		t.Fatalf("inbox size %d, want 3", len(got1))
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("stats differ across identical runs:\n%+v\n%+v", s1, s2)
	}
}

// TestParkedNodesReceiveNothing guards the delivery fix: messages addressed
// to a node that has already parked (or parks this very round) are counted
// in UndeliveredDown and never enqueued, so parked inboxes stay empty
// instead of silently growing for the rest of the run.
func TestParkedNodesReceiveNothing(t *testing.T) {
	g := mustGraph(t, 2, [][2]int{{0, 1}})
	sender := newChatter(0, 1, 4) // sends rounds 0..3, parks at 4
	parker := fn(func(int, []Message) ([]Message, bool) { return nil, true })
	stats, err := NewNetwork(g).Run([]Node{sender, parker}, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 parks at round 0; every one of the 4 messages (including the
	// round-0 one, sent in the same round the recipient parked) must be
	// suppressed.
	if stats.MessagesSent != 4 {
		t.Fatalf("MessagesSent = %d, want 4", stats.MessagesSent)
	}
	if stats.UndeliveredDown != 4 {
		t.Errorf("UndeliveredDown = %d, want 4 (parked inbox must stay empty)", stats.UndeliveredDown)
	}
	if stats.MessagesLost != 0 {
		t.Errorf("suppressed deliveries miscounted as loss: %+v", stats)
	}
}

func TestRateOneLossDropsEverything(t *testing.T) {
	g := mustGraph(t, 2, [][2]int{{0, 1}})
	sender := newChatter(0, 1, 3)
	receiver := newChatter(1, -1, 3)
	plan := fault.MustCompile(fault.Scenario{Events: []fault.Event{fault.Loss(1.0, 0, fault.Forever)}}, 2)
	stats, err := NewNetwork(g).WithFaults(plan).Run([]Node{sender, receiver}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if receiver.heardAt != -1 {
		t.Error("message survived rate-1 loss")
	}
	if stats.MessagesLost == 0 || stats.MessagesLost != stats.MessagesSent-stats.UndeliveredDown {
		t.Errorf("loss accounting off: %+v", stats)
	}
}
