package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"rfidsched/internal/baseline"
	"rfidsched/internal/deploy"
	"rfidsched/internal/graph"
	"rfidsched/internal/model"
	"rfidsched/internal/survey"
)

// scheduleGolden is the pinned outcome of one covering schedule: the
// schedule length and an FNV-1a hash over the per-slot activation sets
// (stall-guard fallbacks marked), so any change to a single slot shows.
type scheduleGolden struct {
	slots int
	hash  uint64
}

func (g scheduleGolden) String() string { return fmt.Sprintf("{%d, %#x}", g.slots, g.hash) }

func scheduleGoldenOf(res *MCSResult) scheduleGolden {
	h := fnv.New64a()
	for _, s := range res.Slots {
		fmt.Fprintln(h, s.Active, s.Fallback)
	}
	return scheduleGolden{slots: res.Size, hash: h.Sum64()}
}

// paperGoldenWant holds values recorded with the per-pair feasibility
// predicate in mwfs (before the conflict-matrix kernel); any change to what
// Algorithms 1–3 judge feasible, or to the order the solver explores,
// shows up here as a changed length or hash.
var paperGoldenWant = map[string]scheduleGolden{
	"101/alg1":         {7, 0xbb7e3417e896393f},
	"101/alg2":         {7, 0x2cbffd1e04dd1e52},
	"102/alg1":         {6, 0x5b09085c2946142a},
	"102/alg2":         {6, 0x6c0f5ad60a824c4},
	"104/alg1":         {6, 0xf52386ff5cccb8a6},
	"104/alg2":         {6, 0x2e6f49ff9fe5494c},
	"1001/alg1":        {4, 0x1563ee22375f3016},
	"1001/alg2":        {4, 0x9333ffe1d75515ce},
	"1002/alg1":        {3, 0x8b5a229673265f34},
	"1002/alg2":        {3, 0x757a1fb711bfb1fa},
	"1003/alg1":        {5, 0xf8c7090887c34fd5},
	"1003/alg2":        {5, 0x628688c7b0c648ad},
	"survey/alg2":      {5, 0x6995b2f9ec6a6e97},
	"survey/alg3":      {5, 0x241e20c6e182f106},
	"survey/colorwave": {12, 0x209bf499b1a82532},
}

// TestPaperAlgorithmsGolden pins covering schedules of the paper's
// algorithms on dense (120×2400) and paper-scale (50×1200) deployments on
// the true interference graph, and of the graph-only algorithms on a
// survey-estimated graph whose noise adds and drops edges.
func TestPaperAlgorithmsGolden(t *testing.T) {
	type tc struct {
		name  string
		sys   *model.System
		sched model.OneShotScheduler
	}
	var cases []tc
	gen := func(seed uint64, readers, tags int) *model.System {
		cfg := deploy.Paper(seed, 12, 5)
		cfg.NumReaders, cfg.NumTags = readers, tags
		sys, err := deploy.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	for _, d := range []struct {
		seed          uint64
		readers, tags int
	}{{101, 120, 2400}, {102, 120, 2400}, {104, 120, 2400}, {1001, 50, 1200}, {1002, 50, 1200}, {1003, 50, 1200}} {
		if (testing.Short() || raceEnabled) && d.readers > 50 {
			continue
		}
		sys := gen(d.seed, d.readers, d.tags)
		g := graph.FromSystem(sys)
		cases = append(cases,
			tc{fmt.Sprintf("%d/alg1", d.seed), sys, NewPTAS()},
			tc{fmt.Sprintf("%d/alg2", d.seed), sys, NewGrowth(g, 1.25)})
	}

	sys := gen(1001, 50, 1200)
	sg, rep, err := survey.EstimateGraph(sys, survey.Params{ShadowSigma: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FalsePositive == 0 || rep.FalseNegative == 0 {
		t.Fatalf("survey noise must both add and drop edges: %+v", rep)
	}
	cases = append(cases,
		tc{"survey/alg2", sys, NewGrowth(sg, 1.25)},
		tc{"survey/alg3", sys, NewDistributed(sg, 1.25)},
		tc{"survey/colorwave", sys, baseline.NewColorwave(sg, 7)})

	for _, c := range cases {
		res, err := RunMCS(c.sys.Clone(), c.sched, MCSOptions{RecordSlots: true})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := scheduleGoldenOf(res)
		if want, ok := paperGoldenWant[c.name]; !ok || got != want {
			t.Errorf("%s: got %v, want %v", c.name, got, want)
			t.Logf("\t%q: %v,", c.name, got)
		}
	}
}
