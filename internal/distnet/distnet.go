// Package distnet is the message-passing substrate for Algorithm 3: a
// synchronous (BSP-style) network of reader nodes. Each node runs its Step
// function once per round and may send messages only to its neighbors in
// the interference graph; messages sent in round t are delivered at round
// t+1. The kernel steps the live nodes one after another, in id order, on
// the caller's goroutine: within a round no node can observe another's
// Step, so the sequential order is invisible to the protocol. Node
// isolation is enforced by the kernel itself, which refuses any message
// addressed beyond the sender's radio range or carrying a forged sender.
//
// The synchronous model matches the paper's setting (slotted time is
// already assumed for tag reading) and makes executions deterministic:
// inboxes are sorted by sender at delivery time, so a seeded run always
// produces the same schedule.
//
// Failure injection is scripted through package fault (WithFaults): reader
// crashes stop a node from stepping and sending, partitions cut edge
// traffic, stragglers skip rounds, and probabilistic loss, duplication and
// reordering perturb delivery — all reproducibly from a scenario seed.
package distnet

import (
	"fmt"
	"runtime"
	"slices"

	"rfidsched/internal/fault"
	"rfidsched/internal/graph"
	"rfidsched/internal/obs"
)

// Message is a payload in flight between adjacent nodes.
type Message struct {
	From, To int
	Payload  any
}

// Node is the per-reader protocol logic. Implementations receive the round
// number and this round's inbox and return messages to send (delivered next
// round). Returning done=true parks the node: Step is no longer called, and
// when every node is done the network halts.
//
// The inbox slice is owned by the kernel and valid only during Step; a node
// that keeps messages must copy them. The kernel reads the outbox before
// that node's next Step, so a node may reuse one outbox buffer across
// rounds.
type Node interface {
	Step(round int, inbox []Message) (outbox []Message, done bool)
}

// Stats summarizes one network run.
type Stats struct {
	Rounds        int
	MessagesSent  int
	MessagesLost  int // dropped by Bernoulli loss injection (subset of MessagesSent)
	MaxInboxSize  int
	ParkedAtRound []int // round at which each node declared done (-1 = never)

	// Fault telemetry (all zero without WithFaults).
	CrashedNodes       int // nodes removed by permanent fail-stop crashes
	PartitionedRounds  int // rounds during which at least one edge was cut
	PartitionDropped   int // messages dropped on cut edges
	DuplicatedMessages int // extra copies delivered by duplication faults
	StragglerSkips     int // (node, round) Steps skipped by straggle faults
	UndeliveredDown    int // messages addressed to parked or crashed nodes
}

// Network executes nodes over an interference-graph topology.
type Network struct {
	g *graph.Graph

	// plan scripts failure injection; nil runs fault-free.
	plan *fault.Plan

	// tracer receives msg_dropped events; nil traces nothing. Events are
	// emitted in delivery order, so their order is deterministic for a
	// fixed seed.
	tracer obs.Tracer
}

// NewNetwork builds a network with the given topology.
func NewNetwork(g *graph.Graph) *Network { return &Network{g: g} }

// WithFaults attaches a compiled fault plan (see package fault). The plan's
// tick axis is the round number. Returns the network for chaining.
func (n *Network) WithFaults(plan *fault.Plan) *Network {
	n.plan = plan
	return n
}

// WithTracer attaches a trace sink for per-message drop events (cause
// "down", "partition" or "loss" — the same taxonomy as the Stats counters
// UndeliveredDown / PartitionDropped / MessagesLost). Returns the network
// for chaining.
func (n *Network) WithTracer(tr obs.Tracer) *Network {
	n.tracer = tr
	return n
}

// yieldEvery is how many rounds Run steps between yields of the caller's
// goroutine. The rounds contain no scheduling point of their own. On a
// single P the garbage collector's background mark worker would then wait
// for the runtime's 10 ms preemption tick while the nodes keep allocating,
// and the heap would overshoot its goal: without the yield, paper-scale
// Algorithm 3 covering schedules at GOMAXPROCS=1 peak about 20% higher in
// resident memory. On a 2-vCPU x86-64 VM a yield costs well under a
// microsecond and 32 paper-scale rounds take tens of microseconds.
const yieldEvery = 32

// Run drives the nodes until all are done (or permanently crashed) or
// maxRounds elapses. It returns an error if a node addresses a non-neighbor
// (a protocol bug: radios cannot reach beyond the interference range) or if
// maxRounds is exhausted with undone nodes.
//
// Under a fault plan: permanently crashed nodes are removed from the run
// (they can never park, so waiting for them would always time out); nodes
// in a crash-with-recovery window lose their pending inbox and skip Steps
// until the reboot; straggling nodes skip Steps but keep accumulating
// messages; messages over cut edges, to dark radios, or sacrificed to
// Bernoulli loss are dropped with per-cause telemetry. Parked nodes never
// receive new messages — their inboxes stay empty (see UndeliveredDown).
func (n *Network) Run(nodes []Node, maxRounds int) (*Stats, error) {
	if len(nodes) != n.g.N() {
		return nil, fmt.Errorf("distnet: %d nodes for %d-vertex topology", len(nodes), n.g.N())
	}
	stats := &Stats{ParkedAtRound: make([]int, len(nodes))}
	for i := range stats.ParkedAtRound {
		stats.ParkedAtRound[i] = -1
	}
	plan := n.plan
	done := make([]bool, len(nodes))   // parked by protocol decision
	failed := make([]bool, len(nodes)) // removed by permanent crash
	remaining := len(nodes)

	// Two inbox arenas, swapped every round: nodes read inboxes while
	// deliveries fill next. Truncating with [:0] keeps the capacity.
	inboxes := make([][]Message, len(nodes))
	next := make([][]Message, len(nodes))
	var scratch []Message // reorder permutation buffer

	type result struct {
		id     int
		outbox []Message
		done   bool
	}
	results := make([]result, 0, len(nodes))

	for round := 0; remaining > 0; round++ {
		if round >= maxRounds {
			return stats, fmt.Errorf("distnet: %d nodes still running after %d rounds", remaining, maxRounds)
		}
		stats.Rounds = round + 1
		if round%yieldEvery == 0 {
			runtime.Gosched()
		}

		// Fault bookkeeping for this round.
		if plan != nil {
			for id := range nodes {
				if !done[id] && !failed[id] && plan.PermanentlyDown(id, round) {
					failed[id] = true
					stats.CrashedNodes++
					remaining--
				}
			}
			if remaining == 0 {
				break
			}
			if plan.AnyCut(round) {
				stats.PartitionedRounds++
			}
		}
		crashedNow := func(id int) bool { return plan != nil && plan.Crashed(id, round) }

		// Step the live nodes in id order, so results are born sorted. A
		// node that is down or dark loses its inbox: it is not carried
		// into next.
		results = results[:0]
		for id := range nodes {
			if done[id] || failed[id] || crashedNow(id) {
				continue
			}
			if plan != nil && plan.Straggling(id, round) {
				// Alive but paused: the Step is skipped, the inbox kept.
				stats.StragglerSkips++
				next[id] = append(next[id], inboxes[id]...)
				continue
			}
			out, d := nodes[id].Step(round, inboxes[id])
			results = append(results, result{id: id, outbox: out, done: d})
		}

		// Park first, deliver second: a message sent to a node that parked
		// this same round must not enqueue, regardless of id order.
		for _, res := range results {
			if l := len(inboxes[res.id]); l > stats.MaxInboxSize {
				stats.MaxInboxSize = l
			}
			if res.done {
				done[res.id] = true
				stats.ParkedAtRound[res.id] = round
				remaining--
			}
		}
		for _, res := range results {
			for _, m := range res.outbox {
				if m.From != res.id {
					return stats, fmt.Errorf("distnet: node %d forged sender %d", res.id, m.From)
				}
				if !n.g.HasEdge(m.From, m.To) {
					return stats, fmt.Errorf("distnet: node %d sent beyond radio range to %d", m.From, m.To)
				}
				stats.MessagesSent++
				switch {
				case done[m.To] || failed[m.To] || crashedNow(m.To):
					// Parked or dark recipients never enqueue: delivering
					// would only grow an inbox nobody reads.
					stats.UndeliveredDown++
					if n.tracer != nil {
						n.tracer.Emit(obs.EvMessageDropped(round, m.From, m.To, "down"))
					}
				case plan != nil && plan.Cut(m.From, m.To, round):
					stats.PartitionDropped++
					if n.tracer != nil {
						n.tracer.Emit(obs.EvMessageDropped(round, m.From, m.To, "partition"))
					}
				case plan != nil && plan.Drop(round):
					stats.MessagesLost++
					if n.tracer != nil {
						n.tracer.Emit(obs.EvMessageDropped(round, m.From, m.To, "loss"))
					}
				default:
					next[m.To] = append(next[m.To], m)
					if plan != nil && plan.Duplicated(round) {
						stats.DuplicatedMessages++
						next[m.To] = append(next[m.To], m)
					}
				}
			}
		}
		// Deterministic delivery order (sorted by sender), then scripted
		// reordering if a reorder fault is active.
		for _, box := range next {
			if len(box) < 2 {
				continue
			}
			slices.SortStableFunc(box, func(a, b Message) int { return a.From - b.From })
			if plan != nil && plan.Reordered(round) {
				scratch = append(scratch[:0], box...)
				for i, j := range plan.Perm(len(box)) {
					box[i] = scratch[j]
				}
			}
		}
		inboxes, next = next, inboxes
		for id := range next {
			next[id] = next[id][:0]
		}
	}
	return stats, nil
}

// Broadcast appends to dst one message per neighbor of from and returns
// the extended slice.
func Broadcast(dst []Message, g *graph.Graph, from int, payload any) []Message {
	for _, to := range g.Neighbors(from) {
		dst = append(dst, Message{From: from, To: int(to), Payload: payload})
	}
	return dst
}
