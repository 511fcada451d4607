// Distributed: Algorithm 3 running as a real message-passing protocol —
// one node program per reader, synchronous rounds, hop-bounded flooding over
// the interference-graph radio topology, no central entity. The example
// reports the communication cost (rounds, messages) alongside schedule
// quality, and shows how the control parameter c trades locality against
// the ρ guarantee.
package main

import (
	"fmt"
	"log/slog"
	"os"

	"rfidsched"
	"rfidsched/internal/obs"
)

func main() {
	logger := obs.NewLogger(os.Stderr, slog.LevelInfo)
	sys, err := rfidsched.PaperDeployment(404, 12, 5)
	if err != nil {
		obs.Fatal(logger, "generating deployment", err)
	}
	g := rfidsched.InterferenceGraph(sys)
	fmt.Printf("network: %d reader nodes, %d radio links, max degree %d\n\n",
		g.N(), g.M(), g.MaxDegree())

	// One protocol execution = one One-Shot Schedule computation.
	alg := rfidsched.NewDistributed(g, 1.25)
	X, err := alg.OneShot(sys)
	if err != nil {
		obs.Fatal(logger, "distributed one-shot", err)
	}
	fmt.Printf("one-shot result: %d readers activated, weight %d\n", len(X), sys.Weight(X))
	fmt.Printf("protocol cost:   %d synchronous rounds, %d messages (c = %d)\n\n",
		alg.LastStats.Rounds, alg.LastStats.MessagesSent, alg.ControlParameter())

	// The control parameter c bounds how far a coordinator may grow its
	// local solution. Small c = short epochs and few messages; large c =
	// the full Theorem 5 safety margin.
	fmt.Printf("%-6s %8s %10s %10s %8s\n", "c", "weight", "rounds", "messages", "slots")
	for _, c := range []int{2, 4, 8, 16} {
		a := rfidsched.NewDistributed(g, 1.25)
		a.C = c
		one := sys.Clone()
		X, err := a.OneShot(one)
		if err != nil {
			obs.Fatal(logger, "distributed one-shot", err)
		}
		w := one.Weight(X)
		rounds, msgs := a.LastStats.Rounds, a.LastStats.MessagesSent

		full := sys.Clone()
		res, err := rfidsched.RunCoveringSchedule(full, a, rfidsched.MCSOptions{})
		if err != nil {
			obs.Fatal(logger, "covering schedule", err)
		}
		fmt.Printf("%-6d %8d %10d %10d %8d\n", c, w, rounds, msgs, res.Size)
	}

	fmt.Println("\nevery decision was made from hop-local information only;")
	fmt.Println("the runtime verifies no node ever messaged beyond its radio range.")
}
