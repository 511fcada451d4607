package main

import (
	"reflect"
	"testing"
	"time"

	"rfidsched/internal/core"
	"rfidsched/internal/deploy"
	"rfidsched/internal/graph"
	"rfidsched/internal/obs"
)

func smallDeployment(t *testing.T) *deploy.Deployment {
	t.Helper()
	cfg := paperConfig(11, 20, 300)
	cfg.Side = 50
	d, err := generate(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestTracedSchedulerKeepsSlots: wrapping a scheduler for tracing must not
// change a single slot of its covering schedule.
func TestTracedSchedulerKeepsSlots(t *testing.T) {
	dep := smallDeployment(t)
	for _, alg := range algs {
		run := func(traced bool) (*core.MCSResult, *recorder) {
			sys, err := dep.ToSystem()
			if err != nil {
				t.Fatal(err)
			}
			var g *graph.Graph
			if needsGraph(alg) {
				g = graph.FromSystem(sys)
			}
			sched := newScheduler(alg, g)
			var rec *recorder
			opts := core.MCSOptions{RecordSlots: true}
			if traced {
				rec = newRecorder()
				sched = &tracedScheduler{inner: sched, rec: rec, name: "core.oneshot." + alg, stats: &layerStats{}}
				opts.Metrics = obs.NewRegistry()
			}
			res, err := core.RunMCS(sys, sched, opts)
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			return res, rec
		}
		plain, _ := run(false)
		traced, rec := run(true)
		if !reflect.DeepEqual(plain.Slots, traced.Slots) {
			t.Errorf("%s: traced slots %v, untraced %v", alg, traced.Slots, plain.Slots)
		}
		if n := len(rec.snapshot()); n != traced.Size {
			t.Errorf("%s: %d one-shot spans for %d slots", alg, n, traced.Size)
		}
	}
}

// TestTracedSchedulerForwards: every optional interface core.RunMCS probes
// reaches the wrapped scheduler.
func TestTracedSchedulerForwards(t *testing.T) {
	sys, err := smallDeployment(t).ToSystem()
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromSystem(sys)

	growth := core.NewGrowth(g, rho)
	tg := &tracedScheduler{inner: growth}
	tg.SetWorkers(3)
	dl := core.NewPollBudget(5)
	tg.SetDeadline(dl)
	if growth.Workers != 3 || growth.Deadline != dl {
		t.Errorf("SetWorkers/SetDeadline not forwarded: workers %d, deadline %p", growth.Workers, growth.Deadline)
	}

	dist := core.NewDistributed(g, rho)
	reg := obs.NewRegistry()
	(&tracedScheduler{inner: dist}).SetMetrics(reg)
	if dist.Metrics != reg {
		t.Error("SetMetrics not forwarded")
	}

	// A run with a poll budget reports the inner scheduler's truncations
	// through the wrapper's Anytime.
	opts := core.MCSOptions{RecordSlots: true, SlotPollBudget: 1}
	plain, err := core.RunMCS(sys.Clone(), core.NewPTAS(), opts)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := core.RunMCS(sys.Clone(), &tracedScheduler{inner: core.NewPTAS()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.AnytimeSlots == 0 || !reflect.DeepEqual(plain, traced) {
		t.Errorf("budgeted run: plain %d anytime slots, traced %d; results equal: %v",
			plain.AnytimeSlots, traced.AnytimeSlots, reflect.DeepEqual(plain, traced))
	}

	// A stateless scheduler has no checkpoint blob and accepts none.
	if blob, err := tg.CheckpointState(); blob != nil || err != nil {
		t.Errorf("CheckpointState = %q, %v; want nil, nil", blob, err)
	}
	if tg.RestoreState([]byte("{}")) == nil {
		t.Error("RestoreState accepted a blob for a stateless scheduler")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "op", ID: 1, Start: 0, End: 100 * ms},
		{Name: "a", ID: 2, Parent: 1, Start: 10 * ms, End: 40 * ms},
		{Name: "b", ID: 3, Parent: 1, Start: 50 * ms, End: 90 * ms},
		{Name: "c", ID: 4, Parent: 3, Start: 60 * ms, End: 70 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 30 * ms, 2: 30 * ms, 3: 30 * ms, 4: 10 * ms}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}
