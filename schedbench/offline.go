package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"rfidsched/internal/baseline"
	"rfidsched/internal/core"
	"rfidsched/internal/deploy"
	"rfidsched/internal/graph"
	"rfidsched/internal/model"
	"rfidsched/internal/obs"
	"rfidsched/internal/randx"
	"rfidsched/internal/verify"
)

// algs are the algorithms every offline operation runs, in run order.
var algs = []string{"alg1", "alg2", "alg3", "ghc"}

// rho is the growth threshold of Alg. 2 and Alg. 3, the CLI and service
// default.
const rho = 1.25

// offlineSpec is a closed-loop MCS workload: a fixed list of deployments,
// each solved and verified by every algorithm per operation. The list does
// not change with the benchmark seed, which only orders the operations:
// schedule cost varies by tens of percent from one deployment to the next,
// and a seed-drawn list would carry that variation into every comparison
// between runs.
type offlineSpec struct {
	readers, tags int
	// seeds are the deployment seeds. Their number is odd, so the median
	// operation is one record's cluster of timings, not the gap between two.
	seeds []uint64
	// repeat is how many times an operation runs an algorithm whose MCS
	// run takes a few ms among ones that take a second: one such run a
	// pass is at the mercy of a single collection. The operation counts
	// the mean of the repeats.
	repeat map[string]int
}

var offlineSpecs = map[string]offlineSpec{
	// The paper's Section VI setting, 33 deployments.
	"paper-mcs": {readers: 50, tags: 1200, seeds: seedRange(1001, 33)},
	// 120 readers and 2400 tags on the same field. Alg. 2 ranges over two
	// orders of magnitude across deployments at this density; the list has
	// one easy instance for it and two where its growth balls are large
	// (about 7 ms, 200 ms and 500 ms per MCS run).
	"dense-mcs": {readers: 120, tags: 2400, seeds: []uint64{101, 102, 104}, repeat: map[string]int{"ghc": 16}},
}

func seedRange(first uint64, n int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = first + uint64(i)
	}
	return s
}

func paperConfig(seed uint64, readers, tags int) deploy.Config {
	cfg := deploy.Paper(seed, 12, 5)
	cfg.NumReaders, cfg.NumTags = readers, tags
	return cfg
}

// generate draws one deployment record, traced as a deploy span.
func generate(rec *recorder, cfg deploy.Config) (*deploy.Deployment, error) {
	id := rec.start("deploy.generate", 0, 0)
	defer rec.end(id)
	sys, err := deploy.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate deployment %d: %w", cfg.Seed, err)
	}
	return deploy.ToDeployment(sys), nil
}

func newScheduler(alg string, g *graph.Graph) model.OneShotScheduler {
	switch alg {
	case "alg1":
		return core.NewPTAS()
	case "alg2":
		return core.NewGrowth(g, rho)
	case "alg3":
		return core.NewDistributed(g, rho)
	default:
		return baseline.GHC{}
	}
}

func needsGraph(alg string) bool { return alg == "alg2" || alg == "alg3" }

// pipeline holds what the traced configuration threads through one
// operation; the zero value is the untraced configuration.
type pipeline struct {
	rec   *recorder
	reg   *obs.Registry
	stats *layerStats
}

// runMCS takes one deployment record through the library path a caller
// follows: Deployment.ToSystem → graph.FromSystem → scheduler →
// core.RunMCS → verify.Schedule. It returns the schedule length.
func (p *pipeline) runMCS(dep *deploy.Deployment, alg string, parent, op int) (int, error) {
	rec := p.rec
	mcsID := rec.start("mcs."+alg, parent, op)
	defer rec.end(mcsID)

	id := rec.start("model.build", mcsID, op)
	sys, err := dep.ToSystem()
	rec.end(id)
	if err != nil {
		return 0, fmt.Errorf("%s: build system: %w", alg, err)
	}
	pristine := sys.Clone()
	var g *graph.Graph
	if needsGraph(alg) {
		id = rec.start("graph.build", mcsID, op)
		g = graph.FromSystem(sys)
		rec.end(id)
		if p.stats != nil {
			p.stats.graphs++
			p.stats.graphEdges += g.M()
			p.stats.graphMaxDegree = max(p.stats.graphMaxDegree, g.MaxDegree())
		}
	}
	sched := newScheduler(alg, g)
	runID := rec.start("core.run_mcs", mcsID, op)
	if rec != nil {
		sched = &tracedScheduler{inner: sched, rec: rec, name: "core.oneshot." + alg, parent: runID, op: op, stats: p.stats}
	}
	res, err := core.RunMCS(sys, sched, core.MCSOptions{RecordSlots: true, Metrics: p.reg})
	rec.end(runID)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", alg, err)
	}

	id = rec.start("verify.schedule", mcsID, op)
	_, err = verify.Schedule(pristine, res, verify.Options{RequireFeasible: alg != "ghc"})
	rec.end(id)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", alg, err)
	}
	if res.Incomplete || res.TotalRead != pristine.CoverableCount() {
		return 0, fmt.Errorf("%s: schedule read %d of %d coverable tags", alg, res.TotalRead, pristine.CoverableCount())
	}
	return res.Size, nil
}

// warmSeeds are the paper-scale deployments every offline set-up solves
// with each algorithm before the timed window, so the first timed pass
// does not pay for page faults and heap growth. They are fixed, so set-up
// time does not vary with the seed.
var warmSeeds = seedRange(1001, 5)

// offlineSetup generates the instance list and warms every algorithm.
func offlineSetup(spec offlineSpec, rec *recorder) ([]*deploy.Deployment, error) {
	deps := make([]*deploy.Deployment, len(spec.seeds))
	for i, s := range spec.seeds {
		d, err := generate(rec, paperConfig(s, spec.readers, spec.tags))
		if err != nil {
			return nil, err
		}
		deps[i] = d
	}
	var p pipeline
	for _, s := range warmSeeds {
		warm, err := generate(nil, paperConfig(s, 50, 1200))
		if err != nil {
			return nil, err
		}
		for _, alg := range algs {
			if _, err := p.runMCS(warm, alg, 0, 0); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return deps, nil
}

// mcsRun is one MCS run of the window.
type mcsRun struct {
	pass, op, rec, alg int
	traced             bool
	weight             float64 // in its operation: 1 over the repeats
}

// runOffline runs a closed-loop workload with one caller: whole passes over
// the instance list, in seed-shuffled order, until the window has elapsed.
// An operation is one record solved and verified by every algorithm. Each
// MCS run is timed on the CPU clock and taken to the reference speed with
// the calibration kernel runs around it (calib.go); the report carries
// the unscaled times too. In the traced configuration untraced and traced
// passes alternate, so the tracing overhead is measured inside one
// process; no kernel runs there, and no time is scaled.
func runOffline(name string, cfg runConfig) (*outcome, error) {
	spec := offlineSpecs[name]
	out := newOutcome()
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	out.rec = rec

	var deps []*deploy.Deployment
	for i := range setupRuns {
		setupRec := rec
		if i > 0 {
			setupRec = nil // one set-up's deploy spans are enough
		}
		sec, err := timeSetup(func() (err error) {
			deps, err = offlineSetup(spec, setupRec)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		out.setups = append(out.setups, sec)
	}
	calBytes := calAllocBytes()
	runtime.GC()

	traced := &pipeline{rec: rec, reg: obs.NewRegistry(), stats: &layerStats{}}
	order := randx.New(cfg.seed ^ 0x6f72646572) // "order"
	sizes := make([][]int, len(deps))           // per record and algorithm; -1 until solved
	for r := range sizes {
		sizes[r] = []int{-1, -1, -1, -1}
	}
	var runs []mcsRun
	var stretches []stretch // of each run
	var smp *sampler
	if !cfg.trace {
		smp = startSampler()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	op, passes := 0, 0
	for ; ; passes++ {
		tracedPass := cfg.trace && passes%2 == 1
		p := &pipeline{}
		if tracedPass {
			p = traced
		}
		for _, r := range order.Perm(len(deps)) {
			op++
			out.attempted++
			opID := p.rec.start("op", 0, op)
			ok := true
			for a, alg := range algs {
				reps := max(1, spec.repeat[alg])
				for range reps {
					mk := smp.mark()
					size, err := p.runMCS(deps[r], alg, opID, op)
					stretches = append(stretches, smp.since(mk))
					runs = append(runs, mcsRun{pass: passes, op: op, rec: r, alg: a, traced: tracedPass, weight: 1 / float64(reps)})
					if err == nil && sizes[r][a] >= 0 && sizes[r][a] != size {
						err = fmt.Errorf("%s: schedule length %d, earlier run %d", alg, size, sizes[r][a])
					}
					if err != nil {
						ok = false
						out.note(fmt.Errorf("record %d: %w", r, err))
						continue
					}
					sizes[r][a] = size
				}
			}
			p.rec.end(opID)
			if !ok {
				out.failed++
			}
		}
		if time.Since(start) >= cfg.seconds && (!cfg.trace || passes >= 1) {
			passes++
			break
		}
	}
	smp.halt()
	runtime.ReadMemStats(&ms1)

	slots := 0
	for _, s := range sizes {
		for _, v := range s {
			slots += max(v, 0)
		}
	}
	// Sum the MCS times per operation and per pass, and collect them per
	// algorithm and record.
	opCPU := make([]float64, op)
	opRaw := make([]float64, op)
	passCPU := make([]float64, passes)
	tracedPass := make([]bool, passes)
	cell := make([][][]float64, len(algs)) // per algorithm and record: scaled ms of each pass
	for a := range cell {
		cell[a] = make([][]float64, len(deps))
	}
	for i, run := range runs {
		v := smp.scaled(stretches[i])
		opCPU[run.op-1] += v * run.weight
		opRaw[run.op-1] += stretches[i].cpu * run.weight
		passCPU[run.pass] += v * run.weight
		tracedPass[run.pass] = run.traced
		cell[run.alg][run.rec] = append(cell[run.alg][run.rec], v)
	}
	mcsRuns := float64(len(deps) * len(algs))
	var perPass []float64
	for _, c := range passCPU {
		perPass = append(perPass, mcsRuns*1000/c)
	}
	t := tailOf(opCPU)
	out.e2e["schedules_per_cpu_s"] = median(perPass)
	out.e2e["op_cpu_p50_ms"] = median(opCPU)
	out.e2e["op_cpu_tail_ms"] = t.Value
	// Per algorithm: each record's median over the passes, so a pass that
	// a collection hit counts once, then the mean over the instance list.
	for a, alg := range algs {
		perRecord := make([]float64, len(deps))
		for r := range deps {
			perRecord[r] = median(cell[a][r])
		}
		out.e2e["mcs_cpu_ms."+alg] = mean(perRecord)
	}
	out.e2e["slots_total"] = float64(slots)
	alloc := ms1.TotalAlloc - ms0.TotalAlloc - uint64(smp.runs())*calBytes
	out.e2e["alloc_mb_per_op"] = float64(alloc) / 1e6 / float64(op)
	out.report["tail"] = t
	out.report["pass_schedules_per_cpu_s"] = perPass
	out.report["calibration"] = calReport(smp)
	out.report["unscaled_op_cpu_p50_ms"] = median(opRaw)
	out.report["records"] = len(deps)
	out.report["operation"] = "one record solved and verified by alg1, alg2, alg3 and ghc"
	out.gc(&ms0, &ms1)

	if cfg.trace {
		offlineLayers(out, traced, passCPU, tracedPass)
	}
	return out, nil
}

// offlineLayers derives the per-layer metrics of a traced offline run from
// its spans, the registry handed to core.RunMCS and the scheduler counters.
func offlineLayers(out *outcome, p *pipeline, passCPU []float64, tracedPass []bool) {
	spans := p.rec.snapshot()
	self := selfTimes(spans)
	var tracedCPU, untracedCPU []float64
	for i, c := range passCPU {
		if tracedPass[i] {
			tracedCPU = append(tracedCPU, c)
		} else {
			untracedCPU = append(untracedCPU, c)
		}
	}
	var tracedTotal time.Duration
	for _, s := range spans {
		if s.Name == "op" {
			tracedTotal += s.dur()
		}
	}
	var selfSum time.Duration
	byLayer := map[string]float64{}
	for _, s := range spans {
		if s.Op == 0 {
			continue // set-up
		}
		selfSum += self[s.ID]
		byLayer[layerOf(s.Name)] += ms(self[s.ID])
	}
	out.report["self_ms_by_layer"] = byLayer
	out.report["traced_wall_ms"] = ms(tracedTotal)

	L := out.layers
	L["trace.self_sum_share"] = selfSum.Seconds() / tracedTotal.Seconds()
	L["trace.overhead_share"] = median(tracedCPU)/median(untracedCPU) - 1
	L["deploy.generate_ms"] = meanSpanMS(spans, "deploy.generate")
	L["model.build_ms"] = meanSpanMS(spans, "model.build")
	L["graph.build_ms"] = meanSpanMS(spans, "graph.build")
	L["verify.schedule_ms"] = meanSpanMS(spans, "verify.schedule")
	for _, alg := range algs {
		L["core.oneshot_ms."+alg] = meanSpanMS(spans, "core.oneshot."+alg)
	}
	var runSelf []float64
	for _, s := range spans {
		if s.Name == "core.run_mcs" {
			runSelf = append(runSelf, ms(self[s.ID]))
		}
	}
	L["core.mcs_self_ms"] = mean(runSelf)
	st := p.stats
	L["graph.edges"] = ratio(st.graphEdges, st.graphs)
	L["graph.max_degree"] = float64(st.graphMaxDegree)
	L["core.growth.max_radius"] = float64(st.growthMaxRadius)
	L["core.growth.coordinators"] = ratio(st.growthCoordinators, st.growthSlots)
	L["distnet.rounds_per_slot"] = ratio(st.distRounds, st.distSlots)
	L["distnet.messages_per_slot"] = ratio(st.distMessages, st.distSlots)
	L["distnet.election_ms"] = p.reg.Histogram(obs.SpanMetric(obs.SpanElection)).Snapshot().Mean * 1000
}

// layerOf maps a span name to its layer: the module the call enters.
func layerOf(name string) string {
	switch {
	case name == "op" || strings.HasPrefix(name, "mcs."):
		return "schedbench" // the benchmark's glue: clones, scheduler set-up
	case strings.HasPrefix(name, "core.oneshot."):
		return "core.oneshot"
	}
	return name
}
