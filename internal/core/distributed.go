package core

import (
	"fmt"
	"math"
	"slices"

	"rfidsched/internal/distnet"
	"rfidsched/internal/fault"
	"rfidsched/internal/graph"
	"rfidsched/internal/model"
	"rfidsched/internal/mwfs"
	"rfidsched/internal/obs"
)

// Distributed is Algorithm 3: the fully distributed One-Shot scheduler
// without location information (Section V-B). Every reader runs the same
// node program over the interference-graph radio topology, and the distnet
// kernel delivers only messages between interference neighbors:
//
//	Step 1  Each White reader collects (id, weight, adjacency) records from
//	        its (2c+2)-hop neighborhood by flooding.
//	Step 2  A reader that holds the maximum weight among all White readers
//	        within 2c+2 hops becomes a coordinator ("head") and computes
//	        the local solutions Γ_0, Γ_1, ... with the same growth rule as
//	        Algorithm 2 (stop when w(Γ_{r+1}) < ρ·w(Γ_r)), capped at c.
//	Step 3  The head announces RESULT(Γ_r̄) within r̄+1+2c+2 hops; readers in
//	        Γ_r̄ turn Red (activated), other readers of N(head)^{r̄+1} turn
//	        Black (removed), everyone else stays White and the protocol
//	        repeats on the surviving subgraph.
//
// Ties on weight are broken by reader id so that coordinator election is a
// total order — the paper's plain ">=" would elect two adjacent equal-
// weight heads. Simultaneous heads are necessarily more than 2c+2 hops
// apart in the surviving subgraph, which (as in the paper's Figure 5
// argument) keeps their local solutions mutually feasible; Theorem 6 then
// gives w(X) >= w(OPT)/ρ.
//
// The epoch structure is synchronous: 2c+2 rounds of information flooding,
// one compute-and-announce round, 3c+3 (>= r̄+1+2c+2) rounds of result
// flooding, then a decision round. Deciding readers park; the rest start
// the next epoch. Progress is guaranteed because every epoch has at least
// one head (the global maximum among White readers) and a head always
// leaves the White set.
type Distributed struct {
	G   *graph.Graph
	Rho float64

	// C is the control parameter c = c(ρ) bounding the growth radius. 0
	// derives it from the Theorem 5 argument: w(Γ_r) >= ρ^r·w(v) while
	// w(Γ_r) <= |ball|·w(v) <= n·w(v), so r̄ <= log_ρ(n).
	C int

	// SolverNodes caps each local MWFS branch-and-bound (0 = default).
	SolverNodes int

	// MaxRounds caps the protocol run; 0 derives a safe bound. Exceeding it
	// returns an error from OneShot.
	MaxRounds int

	// LossRate, when positive, injects independent per-message loss into
	// the radio network (failure injection for robustness studies). The
	// flooding phases are naturally redundant — records travel every path
	// of the ball — so moderate loss mostly costs nothing, but heavy loss
	// can split coordinator elections; OneShot reports the outcome
	// faithfully (possibly returning a set that must be checked against
	// IsFeasible, or a timeout error when nodes cannot converge).
	LossRate float64
	// LossSeed seeds the loss process (reproducible failures).
	LossSeed uint64

	// Faults scripts richer failure injection (crashes, partitions,
	// stragglers, duplication, reordering; see package fault) against the
	// protocol network; its tick axis is the protocol round. A scenario
	// with Seed 0 inherits LossSeed so the whole failure stream hangs off
	// one knob. Combines with LossRate: the legacy rate is folded into the
	// same plan as an always-on loss event.
	Faults *fault.Scenario

	// Strict makes OneShot verify the decided set against the interference
	// graph and error on dependence instead of returning it. Under severe
	// faults (e.g. a fully partitioned network) every node elects itself
	// head and turns Red, which is exactly the kind of silent garbage the
	// robustness contract forbids; Strict turns it into a checkable error
	// that Retrying can respond to.
	Strict bool

	// LastStats records network statistics of the most recent OneShot call
	// (rounds, messages). Diagnostic; not safe for concurrent use.
	LastStats *distnet.Stats

	// Tracer receives protocol-level trace events (see package obs): one
	// election_completed per OneShot call, plus per-message drop events
	// from the radio network under faults. nil disables tracing; like
	// LastStats, the call counter makes a traced scheduler not safe for
	// concurrent OneShot calls.
	Tracer obs.Tracer

	// Metrics, when non-nil, times each OneShot protocol execution into the
	// "span.election.seconds" histogram (see obs.StartSpan). Pure
	// observation, like Tracer; the MCS driver wires its own registry in
	// through SetMetrics.
	Metrics *obs.Registry

	// calls counts OneShot invocations, indexing election_completed
	// events so a trace orders the elections of one covering schedule.
	calls int
}

// NewDistributed builds Algorithm 3 with growth threshold rho on graph g.
func NewDistributed(g *graph.Graph, rho float64) *Distributed {
	if rho <= 1 {
		rho = 1.25
	}
	return &Distributed{G: g, Rho: rho}
}

// Name implements model.OneShotScheduler.
func (d *Distributed) Name() string { return "Alg3-Distributed" }

// SetMetrics routes span telemetry into reg — the hook core.RunMCS uses to
// extend MCSOptions.Metrics down into the protocol layer.
func (d *Distributed) SetMetrics(reg *obs.Registry) { d.Metrics = reg }

// ControlParameter returns the effective c.
func (d *Distributed) ControlParameter() int {
	if d.C > 0 {
		return d.C
	}
	n := d.G.N()
	if n < 2 {
		return 1
	}
	c := int(math.Log(float64(n))/math.Log(d.Rho)) + 1
	if c > 32 {
		c = 32
	}
	return c
}

// OneShot implements model.OneShotScheduler by executing the protocol.
func (d *Distributed) OneShot(sys *model.System) ([]int, error) {
	n := d.G.N()
	if n == 0 {
		return nil, nil
	}
	c := d.ControlParameter()
	epochLen := 5*c + 6
	maxRounds := d.MaxRounds
	if maxRounds <= 0 {
		maxRounds = epochLen * (n + 2)
	}

	decisions := make([]int8, n)
	// One weight oracle for every node program: the kernel runs Steps one
	// at a time, and the clone keeps their scratch off the caller's system.
	oracle := sys.Clone()
	nodes := make([]distnet.Node, n)
	for id := 0; id < n; id++ {
		nodes[id] = &alg3Node{
			id:          id,
			g:           d.G,
			sys:         oracle,
			rho:         d.Rho,
			c:           c,
			epochLen:    epochLen,
			solverNodes: d.SolverNodes,
			decisions:   decisions,
			known:       map[int]infoRec{},
			seenResults: map[int]bool{},
		}
	}
	net := distnet.NewNetwork(d.G)
	if err := d.attachFaults(net); err != nil {
		return nil, err
	}
	if d.Tracer != nil {
		net.WithTracer(d.Tracer)
	}
	call := d.calls
	d.calls++
	electionSpan := obs.StartSpan(d.Metrics, obs.SpanElection)
	stats, err := net.Run(nodes, maxRounds)
	electionSpan.End()
	d.LastStats = stats
	if err != nil {
		return nil, fmt.Errorf("core: distributed protocol: %w", err)
	}

	var X []int
	for id, dec := range decisions {
		if dec == decidedRed {
			X = append(X, id)
		}
	}
	slices.Sort(X)
	if d.Tracer != nil {
		// Emitted before the Strict feasibility check: the election did
		// complete, even when it decided a dependent set the check rejects.
		d.Tracer.Emit(obs.EvElectionCompleted(call, stats.Rounds, stats.MessagesSent, X))
	}
	if d.Strict && !d.G.IsIndependentSet(X) {
		return nil, fmt.Errorf("core: distributed protocol decided a dependent set of %d readers (faults split the coordinator election)", len(X))
	}
	return X, nil
}

// attachFaults compiles the LossRate knob and the Faults scenario into one
// plan on net. No faults configured leaves net untouched.
func (d *Distributed) attachFaults(net *distnet.Network) error {
	sc := fault.Scenario{Seed: d.LossSeed}
	if d.Faults != nil {
		sc.Events = append(sc.Events, d.Faults.Events...)
		if d.Faults.Seed != 0 {
			sc.Seed = d.Faults.Seed
		}
	}
	if d.LossRate > 0 {
		sc.Events = append(sc.Events, fault.Loss(d.LossRate, 0, fault.Forever))
	}
	if sc.IsZero() {
		return nil
	}
	plan, err := sc.Compile(d.G.N())
	if err != nil {
		return fmt.Errorf("core: fault scenario: %w", err)
	}
	net.WithFaults(plan)
	return nil
}

const (
	decidedWhite int8 = iota
	decidedRed
	decidedBlack
)

// infoRec is the Step-1 flooding payload: identity, one-shot singleton
// weight, and radio adjacency of the origin.
type infoRec struct {
	Origin int
	Weight int
	Nbrs   []int32
}

// resultMsg is the Step-3 announcement: the head's committed local MWFS and
// the neighborhood it removes.
type resultMsg struct {
	Head    int
	Gamma   []int
	Removed []int
}

type alg3Node struct {
	id          int
	g           *graph.Graph
	sys         *model.System
	rho         float64
	c           int
	epochLen    int
	solverNodes int
	decisions   []int8

	// Per-epoch flooding state. The fresh lists hold received payloads
	// as they arrived (boxed infoRec / resultMsg), so forwarding does not
	// box a record again on every hop.
	state        int8
	known        map[int]infoRec
	freshInfo    []any
	seenResults  map[int]bool
	freshResults []any
	out          []distnet.Message // outbox, reused across rounds

	// knownRed accumulates, across epochs, every reader this node has
	// heard committed (Red) in announcements. A head passes them to its
	// local solver as context so its Γ is judged by marginal weight —
	// interrogation overlap with already-committed clusters is charged to
	// the new candidates. The announcement radius r̄+1+2c+2 guarantees the
	// relevant prior results were heard.
	knownRed map[int]bool
}

// Step implements distnet.Node.
func (nd *alg3Node) Step(round int, inbox []distnet.Message) ([]distnet.Message, bool) {
	re := round % nd.epochLen
	collect := 2*nd.c + 2

	if re == 0 {
		// New epoch: forget the previous epoch's view — the White set
		// shrank, so distances and weights must be re-collected.
		clear(nd.known)
		clear(nd.seenResults)
		nd.freshResults = nd.freshResults[:0]
		self := infoRec{Origin: nd.id, Weight: nd.sys.SingletonWeight(nd.id), Nbrs: nd.g.Neighbors(nd.id)}
		nd.known[nd.id] = self
		nd.freshInfo = append(nd.freshInfo[:0], self)
	}

	// Ingest.
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case infoRec:
			if _, ok := nd.known[p.Origin]; !ok {
				nd.known[p.Origin] = p
				nd.freshInfo = append(nd.freshInfo, m.Payload)
			}
		case resultMsg:
			if !nd.seenResults[p.Head] {
				nd.seenResults[p.Head] = true
				nd.freshResults = append(nd.freshResults, m.Payload)
				nd.apply(p)
			}
		}
	}

	out := nd.out[:0]
	switch {
	case re < collect:
		// Step 1: flood info records.
		for _, rec := range nd.freshInfo {
			out = distnet.Broadcast(out, nd.g, nd.id, rec)
		}
		nd.freshInfo = nd.freshInfo[:0]

	case re == collect:
		// Step 2: coordinator election and local computation.
		if nd.isHead() {
			res := nd.computeResult()
			nd.seenResults[nd.id] = true
			nd.apply(res)
			out = distnet.Broadcast(out, nd.g, nd.id, res)
		}

	case re < nd.epochLen-1:
		// Step 3: flood announcements.
		for _, res := range nd.freshResults {
			out = distnet.Broadcast(out, nd.g, nd.id, res)
		}
		nd.freshResults = nd.freshResults[:0]

	default:
		// Decision round: Red/Black park, White continues into the next
		// epoch.
		if nd.state != decidedWhite {
			nd.decisions[nd.id] = nd.state
			return nil, true
		}
	}
	nd.out = out
	return out, false
}

func (nd *alg3Node) apply(res resultMsg) {
	if nd.knownRed == nil {
		nd.knownRed = map[int]bool{}
	}
	for _, v := range res.Gamma {
		nd.knownRed[v] = true
	}
	for _, v := range res.Gamma {
		if v == nd.id {
			nd.state = decidedRed
			return
		}
	}
	for _, v := range res.Removed {
		if v == nd.id {
			nd.state = decidedBlack
			return
		}
	}
}

// isHead reports whether this node's (weight, id) is maximal among every
// White node it heard from. Lower id wins weight ties.
func (nd *alg3Node) isHead() bool {
	mine := nd.known[nd.id]
	for _, rec := range nd.known {
		if rec.Weight > mine.Weight ||
			(rec.Weight == mine.Weight && rec.Origin < nd.id) {
			return false
		}
	}
	return true
}

// computeResult runs the Algorithm 2 growth rule on the locally collected
// White subgraph around this head.
func (nd *alg3Node) computeResult() resultMsg {
	adj := nd.localAdjacency()
	indep := func(u, v int) bool {
		for _, w := range adj[u] {
			if w == v {
				return false
			}
		}
		return true
	}
	committed := make([]int, 0, len(nd.knownRed))
	for v := range nd.knownRed {
		committed = append(committed, v)
	}
	slices.Sort(committed)
	opts := mwfs.Options{MaxNodes: nd.solverNodes, Independent: indep, Context: committed}

	cur := mwfs.Solve(nd.sys, []int{nd.id}, opts)
	r := 0
	for r < nd.c {
		ball := nd.localBall(adj, r+1)
		next := mwfs.Solve(nd.sys, ball, opts)
		if float64(next.Weight) < nd.rho*float64(cur.Weight) {
			break
		}
		cur = next
		r++
	}
	return resultMsg{Head: nd.id, Gamma: cur.Set, Removed: nd.localBall(adj, r+1)}
}

// localAdjacency restricts collected adjacency lists to White nodes the
// head actually heard from, yielding the local White subgraph.
func (nd *alg3Node) localAdjacency() map[int][]int {
	adj := make(map[int][]int, len(nd.known))
	for o, rec := range nd.known {
		for _, w := range rec.Nbrs {
			if _, ok := nd.known[int(w)]; ok {
				adj[o] = append(adj[o], int(w))
			}
		}
	}
	return adj
}

// localBall is BFS to radius r on the local White subgraph from this node.
func (nd *alg3Node) localBall(adj map[int][]int, r int) []int {
	dist := map[int]int{nd.id: 0}
	queue := []int{nd.id}
	out := []int{nd.id}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if dist[u] >= r {
			continue
		}
		for _, w := range adj[u] {
			if _, ok := dist[w]; !ok {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
				out = append(out, w)
			}
		}
	}
	slices.Sort(out)
	return out
}
