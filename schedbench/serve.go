package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"rfidsched/internal/core"
	"rfidsched/internal/deploy"
	"rfidsched/internal/obs"
	"rfidsched/internal/randx"
	"rfidsched/internal/serve"
	"rfidsched/internal/verify"
)

// The serve-zipf traffic mix. The pool is twice the service's 256-entry
// cache, so the Zipf tail keeps producing misses (about 11% of requests)
// that solve, fill the cache and evict. At that share the slowest misses,
// Alg. 3 MCS solves, are about 2% of requests, so p99 falls inside their
// cluster of latencies rather than on its edge.
const (
	poolKeys    = 512
	zipfS       = 1.1 // Zipf exponent of key popularity
	oneshotEach = 4   // one key in four asks for a one-shot set, the rest for an MCS
	warmupDraws = 2 * poolKeys
	latencyMS   = 100.0 // p99 limit of a ladder rung; cold paper-scale solves take ≤ 60 ms
)

// ladder is the fixed list of offered rates (requests per second), lowest
// first; nominalRate is the rung the metrics are read at. It runs for
// three quarters of the window, about 4500 samples at 30 s: enough for the
// tail to be read at p99, where the cache misses are. The other rungs share
// the last quarter and find max_rps, which the report carries. One
// connection on one P saturates at about 300 requests per second on a
// two-vCPU VM, the calibration kernel included.
var ladder = []float64{100, 200, 300, 450}

const nominalRate = 200.0

// serveConns is the number of connections the load generator uses. With
// one, no two requests are in flight together, so the process CPU time
// that passes during a round trip is that request's own cost, client and
// service together.
const serveConns = 1

// poolKey is one distinct request of the pool.
type poolKey struct {
	alg, mode string
	inline    bool
	cfg       deploy.Config // draws the deployment the request describes
	body      []byte
}

// poolSeed draws the deployments of the request pool. It is fixed, like
// the offline instance lists: a miss's cost varies by tens of percent from
// one deployment to the next, and with a seed-drawn pool the tail, where
// the misses are, moved by a quarter between seeds. The benchmark seed
// draws the request sequence and the arrival times.
const poolSeed = 0x706f6f6c // "pool"

// buildPool draws the request pool. Key i is the i-th most popular, and
// its kind follows from i alone, so every run sends the same traffic
// shape. The algorithms take turns. Inline deployments and generator specs
// alternate in blocks of four keys, which leaves half the keys inline but
// 60-75% of each algorithm's traffic: the median request then lies inside
// the inline cluster of latencies, not in the gap between inline (about
// 2 ms) and generator (under 1 ms) hits. Every fourth block of eight keys
// asks for one-shot sets.
func buildPool(rec *recorder) ([]poolKey, error) {
	rng := randx.New(poolSeed)
	keys := make([]poolKey, poolKeys)
	for i := range keys {
		k := &keys[i]
		k.alg = algs[i%len(algs)]
		k.inline = (i/4)%2 == 0
		k.mode = serve.ModeMCS
		if (i/(2*len(algs)))%oneshotEach == oneshotEach-1 {
			k.mode = serve.ModeOneShot
		}
		cfg := paperConfig(rng.Uint64(), 50, 1200)
		k.cfg = cfg
		req := serve.Request{Algorithm: k.alg, Mode: k.mode}
		if k.inline {
			d, err := generate(rec, cfg)
			if err != nil {
				return nil, err
			}
			req.Deployment = d
		} else {
			req.Generator = &serve.Generator{
				Seed: cfg.Seed, Readers: cfg.NumReaders, Tags: cfg.NumTags,
				Side: cfg.Side, LambdaR: cfg.LambdaR, LambdaSmallR: cfg.LambdaSmallR,
			}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("encode request %d: %w", i, err)
		}
		k.body = body
	}
	return keys, nil
}

// service is the scheduling service under test, mounted on a loopback
// listener and configured like the rfidserved defaults.
type service struct {
	srv    *serve.Server
	reg    *obs.Registry
	http   *http.Server
	done   chan struct{}
	url    string
	client *http.Client
}

func startService(conns int) (*service, error) {
	reg := obs.NewRegistry()
	srv := serve.NewServer(serve.Options{
		Shards:          4,
		WorkersPerShard: 2,
		QueueDepth:      64,
		CacheEntries:    256,
		Metrics:         reg,
		AccessLog:       obs.NewJSONLogger(io.Discard, slog.LevelInfo),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(0)
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &service{
		srv:  srv,
		reg:  reg,
		http: &http.Server{Handler: srv.Handler()},
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String() + "/v1/schedule",
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// stop closes the listener, waits for the serving goroutine, and drains
// the worker pool.
func (s *service) stop() error {
	s.client.CloseIdleConnections()
	err := s.http.Close()
	<-s.done
	return errors.Join(err, s.srv.Drain(time.Minute))
}

// checker holds the correctness state of a serve run: the first result
// bytes seen for each key, which every later answer must equal.
type checker struct {
	keys  []poolKey
	drawn int // keys of the request sequence sent so far
	mu    sync.Mutex
	first map[int][]byte
}

// envelope is serve.Response with the result left undecoded, so its bytes
// can be compared: cold, cached and merged answers must be bit-identical;
// only the Cached flag may differ.
type envelope struct {
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

// post sends key k and checks the answer: status 200, verified, and the
// same result bytes as every earlier answer for k. It returns the process
// CPU time that passed during the round trip, before the checks, with the
// calibration kernel's runs left out.
func (c *checker) post(s *service, k int, rec *recorder, op int, smp *sampler) (stretch, error) {
	var cpu stretch
	root := rec.start("loadgen.request", 0, op)
	defer rec.end(root)
	id := rec.start("http.roundtrip", root, op)
	mk := smp.mark()
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(c.keys[k].body))
	if err != nil {
		rec.end(id)
		return cpu, fmt.Errorf("key %d: %w", k, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	cpu = smp.since(mk)
	rec.end(id)
	if err != nil {
		return cpu, fmt.Errorf("key %d: read response: %w", k, err)
	}
	if resp.StatusCode != http.StatusOK {
		return cpu, fmt.Errorf("key %d: status %d: %.200s", k, resp.StatusCode, body)
	}
	id = rec.start("client.check", root, op)
	defer rec.end(id)
	var env envelope
	var res serve.Result
	if err := json.Unmarshal(body, &env); err != nil {
		return cpu, fmt.Errorf("key %d: decode response: %w", k, err)
	}
	if err := json.Unmarshal(env.Result, &res); err != nil {
		return cpu, fmt.Errorf("key %d: decode result: %w", k, err)
	}
	if !res.Verified {
		return cpu, fmt.Errorf("key %d: result not verified", k)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	prev, seen := c.first[k]
	if !seen {
		c.first[k] = env.Result
	} else if !bytes.Equal(prev, env.Result) {
		return cpu, fmt.Errorf("key %d: result differs from the first answer for its fingerprint", k)
	}
	return cpu, nil
}

// reverify checks the first answer for key k against the deployment it
// describes, with verify.Schedule for MCS answers, and returns the
// schedule length (0 for a one-shot set).
func (c *checker) reverify(k int, rec *recorder, op int) (int, error) {
	key := c.keys[k]
	var res serve.Result
	if err := json.Unmarshal(c.first[k], &res); err != nil {
		return 0, fmt.Errorf("key %d: %w", k, err)
	}
	// The deployment is drawn again here, outside the timed window, so
	// the pool does not keep 512 of them on the heap the service's
	// collector has to mark.
	dep, err := generate(nil, key.cfg)
	if err != nil {
		return 0, fmt.Errorf("key %d: %w", k, err)
	}
	id := rec.start("model.build", 0, op)
	sys, err := dep.ToSystem()
	rec.end(id)
	if err != nil {
		return 0, fmt.Errorf("key %d: %w", k, err)
	}
	feasible := key.alg != "ghc"
	if key.mode == serve.ModeOneShot {
		switch {
		case feasible && !sys.IsFeasible(res.Active):
			return 0, fmt.Errorf("key %d: one-shot set %v is not feasible", k, res.Active)
		case sys.Weight(res.Active) != res.Weight || len(sys.Covered(res.Active, nil)) != res.TagsRead:
			return 0, fmt.Errorf("key %d: one-shot weight %d or tags %d disagree with the model", k, res.Weight, res.TagsRead)
		}
		return 0, nil
	}
	mcs := &core.MCSResult{
		Algorithm:  res.Algorithm,
		Size:       res.Slots,
		TotalRead:  res.TagsRead,
		Incomplete: res.Incomplete,
		Fallbacks:  res.Fallbacks,
		Slots:      make([]core.SlotRecord, len(res.Schedule)),
	}
	for i, sl := range res.Schedule {
		mcs.Slots[i] = core.SlotRecord{Active: sl.Active, TagsRead: sl.TagsRead, Fallback: sl.Fallback}
	}
	id = rec.start("verify.schedule", 0, op)
	_, err = verify.Schedule(sys, mcs, verify.Options{RequireFeasible: feasible})
	rec.end(id)
	if err != nil {
		return 0, fmt.Errorf("key %d: %w", k, err)
	}
	if res.Incomplete || res.Slots != len(res.Schedule) || res.TagsRead != sys.CoverableCount() {
		return 0, fmt.Errorf("key %d: schedule of %d slots reads %d of %d coverable tags", k, res.Slots, res.TagsRead, sys.CoverableCount())
	}
	return res.Slots, nil
}

// nextKeys returns the next n keys of the request sequence, a fixed Zipf
// draw that the rungs of a run walk in turn. The sequence is the same for
// every seed, as the offline instance lists are, and with one connection
// so is the cache's answer to each request. A seed-drawn sequence put a
// different set of Alg. 3 solves (22-50 ms each) at the tail of every run
// and moved p99 by 14% between seeds. The seed draws the arrival times.
func (c *checker) nextKeys(n int) []int {
	keys := zipfKeys(poolSeed^0x72657173, c.drawn+n)[c.drawn:] // "reqs"
	c.drawn += n
	return keys
}

// zipfKeys draws n key indices with Zipf-distributed popularity.
func zipfKeys(seed uint64, n int) []int {
	z := rand.NewZipf(rand.New(rand.NewPCG(seed, 0x7a697066)), zipfS, 1, poolKeys-1)
	keys := make([]int, n)
	for i := range keys {
		keys[i] = int(z.Uint64())
	}
	return keys
}

// serveSetup generates the pool, starts the service and warms its cache
// with closed-loop requests drawn from the same distribution.
func serveSetup(conns int, rec *recorder) (*service, *checker, error) {
	keys, err := buildPool(rec)
	if err != nil {
		return nil, nil, err
	}
	s, err := startService(conns)
	if err != nil {
		return nil, nil, err
	}
	c := &checker{keys: keys, first: map[int][]byte{}}
	for _, k := range zipfKeys(poolSeed^0x7761726d, warmupDraws) { // "warm"
		if _, err := c.post(s, k, nil, 0, nil); err != nil {
			return nil, nil, errors.Join(fmt.Errorf("warm-up: %w", err), s.stop())
		}
	}
	return s, c, nil
}

// serveCounters is the service's cumulative per-phase time and counts.
type serveCounters struct {
	phaseSec     map[string]float64 // total seconds per phase
	requests     float64
	hits, misses float64
	evictions    float64
	solves       float64
	merged       float64
	rejected     float64
	electionN    int
	electionSec  float64
}

var servePhases = []string{
	serve.PhaseDecode, serve.PhaseCache, serve.PhaseQueue, serve.PhaseSolve,
	serve.PhaseVerify, serve.PhaseEncode, serve.PhaseWait,
}

// plus adds b's counts to c's; summed over the traced stretches, the
// difference of two sums is what those stretches did.
func (c serveCounters) plus(b serveCounters) serveCounters {
	sum := serveCounters{phaseSec: map[string]float64{}}
	for _, p := range servePhases {
		sum.phaseSec[p] = c.phaseSec[p] + b.phaseSec[p]
	}
	sum.requests = c.requests + b.requests
	sum.hits, sum.misses = c.hits+b.hits, c.misses+b.misses
	sum.evictions = c.evictions + b.evictions
	sum.solves = c.solves + b.solves
	sum.merged = c.merged + b.merged
	sum.rejected = c.rejected + b.rejected
	sum.electionN, sum.electionSec = c.electionN+b.electionN, c.electionSec+b.electionSec
	return sum
}

func readCounters(reg *obs.Registry) serveCounters {
	c := serveCounters{phaseSec: map[string]float64{}}
	for _, p := range servePhases {
		h := reg.Histogram("serve.phase." + p + ".seconds").Snapshot()
		c.phaseSec[p] = float64(h.N) * h.Mean
	}
	n := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	c.requests = n("serve.requests")
	c.hits, c.misses = n("serve.cache.hits"), n("serve.cache.misses")
	c.evictions = n("serve.cache.evictions")
	c.solves = n("serve.solves")
	c.merged = n("serve.singleflight.merged")
	c.rejected = n("serve.rejected.queue_full") + n("serve.rejected.draining")
	e := reg.Histogram(obs.SpanMetric(obs.SpanElection)).Snapshot()
	c.electionN, c.electionSec = e.N, float64(e.N)*e.Mean
	return c
}

// rungRun is what one rate of the ladder measured.
type rungRun struct {
	samples []sample
	keys    []int     // the key each request sent
	cpuMS   []float64 // CPU time of each round trip at the reference speed
	rawMS   []float64 // the same as measured
	smp     *sampler  // the calibration kernel runs
	wall    time.Duration
}

// runRung offers one rate for dur. With calibrate set the calibration
// kernel runs alongside, and each round trip's CPU time is also taken to
// the reference speed.
func runRung(s *service, c *checker, seed uint64, rate float64, dur time.Duration, conns int, rec *recorder, calibrate bool) rungRun {
	due := poissonSchedule(randx.New(seed), rate, dur)
	r := rungRun{keys: c.nextKeys(len(due))}
	var smp *sampler
	if calibrate {
		smp = startSampler()
	}
	stretches := make([]stretch, len(due))
	cutoff := dur + time.Duration(latencyMS)*time.Millisecond
	t0 := time.Now()
	r.samples = openLoop(due, conns, cutoff, func(i int) error {
		var err error
		stretches[i], err = c.post(s, r.keys[i], rec, i+1, smp)
		return err
	})
	r.wall = time.Since(t0)
	smp.halt()
	r.cpuMS, r.rawMS = make([]float64, len(due)), make([]float64, len(due))
	for i, st := range stretches {
		r.cpuMS[i], r.rawMS[i] = smp.scaled(st), st.cpu
	}
	r.smp = smp
	return r
}

// answered returns the indices of the requests that were sent and
// answered correctly.
func (r rungRun) answered() []int {
	var ok []int
	for i, smp := range r.samples {
		if smp.sent && smp.err == nil {
			ok = append(ok, i)
		}
	}
	return ok
}

// runServe runs the open-loop workload: the nominal rate first, then the
// remaining rungs of the ladder upwards until one fails its conditions.
func runServe(name string, cfg runConfig) (*outcome, error) {
	out := newOutcome()
	conns := serveConns
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	out.rec = rec

	var s *service
	var c *checker
	for i := range setupRuns {
		setupRec := rec
		if i > 0 {
			setupRec = nil // one set-up's deploy spans are enough
			if err := s.stop(); err != nil {
				return nil, fmt.Errorf("stop service: %w", err)
			}
		}
		sec, err := timeSetup(func() (err error) {
			s, c, err = serveSetup(conns, setupRec)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		out.setups = append(out.setups, sec)
	}
	calBytes := calAllocBytes()
	runtime.GC()

	if cfg.trace {
		err := serveTraced(out, s, c, cfg, conns)
		return out, errors.Join(err, s.stop())
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	before := readCounters(s.reg)
	seed := randx.New(cfg.seed ^ 0x6c616464) // "ladd"
	nominalDur := cfg.seconds * 3 / 4
	rungDur := (cfg.seconds - nominalDur) / time.Duration(len(ladder)-1)
	var rungs []rung
	record := func(rate float64, samples []sample) rung {
		r := summarise(rate, samples, latencyMS)
		rungs = append(rungs, r)
		for _, smp := range samples {
			if !smp.sent {
				continue
			}
			out.attempted++
			if smp.err != nil {
				out.failed++
				out.note(smp.err)
			}
		}
		return r
	}
	nominal := runRung(s, c, seed.Uint64(), nominalRate, nominalDur, conns, nil, true)
	var msN runtime.MemStats
	runtime.ReadMemStats(&msN)
	record(nominalRate, nominal.samples)
	nominalSent := out.attempted
	for _, rate := range ladder {
		if rate == nominalRate {
			continue
		}
		rr := runRung(s, c, seed.Uint64(), rate, rungDur, conns, nil, false)
		if r := record(rate, rr.samples); !r.Pass && rate > nominalRate {
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	after := readCounters(s.reg)

	maxRPS := 0.0
	for _, r := range rungs {
		if r.Pass && r.Rate > maxRPS {
			maxRPS = r.Rate
		}
	}
	slots, err := reverifyAll(out, s, c, nil)
	if err := errors.Join(err, s.stop()); err != nil {
		return nil, err
	}

	lat := make([]float64, len(nominal.samples))
	for i, smp := range nominal.samples {
		lat[i] = smp.latency()
	}
	perAlg, perAlgWall := map[string][]float64{}, map[string][]float64{}
	var cpu, raw []float64
	total := 0.0
	for _, i := range nominal.answered() {
		cpu = append(cpu, nominal.cpuMS[i])
		raw = append(raw, nominal.rawMS[i])
		total += nominal.cpuMS[i]
		if k := c.keys[nominal.keys[i]]; k.mode == serve.ModeMCS && k.inline {
			perAlg[k.alg] = append(perAlg[k.alg], nominal.cpuMS[i])
			perAlgWall[k.alg] = append(perAlgWall[k.alg], lat[i])
		}
	}
	t := tailOf(cpu)
	out.e2e["op_cpu_p50_ms"] = median(cpu)
	out.e2e["op_cpu_tail_ms"] = t.Value
	out.e2e["schedules_per_cpu_s"] = float64(len(cpu)) * 1000 / total
	// Per algorithm: the median of its MCS requests that carry their
	// deployment inline, nine in ten of them cache hits. Misses would
	// dominate a mean, and the tail already carries them; with generator
	// requests (hits under 1 ms) in the mix, the median fell in the gap
	// between the two clusters.
	wallMCS := map[string]float64{}
	for _, alg := range algs {
		out.e2e["mcs_cpu_ms."+alg] = median(perAlg[alg])
		wallMCS[alg] = median(perAlgWall[alg])
	}
	out.e2e["slots_total"] = float64(slots)
	alloc := msN.TotalAlloc - ms0.TotalAlloc - uint64(nominal.smp.runs())*calBytes
	out.e2e["alloc_mb_per_op"] = float64(alloc) / 1e6 / float64(max(nominalSent, 1))
	out.report["tail"] = t
	out.report["calibration"] = calReport(nominal.smp)
	out.report["unscaled"] = map[string]any{
		"op_cpu_p50_ms":         median(raw),
		"wall_throughput_per_s": float64(len(cpu)) / nominal.wall.Seconds(),
		"wall_latency_p50_ms":   median(lat),
		"wall_latency_tail":     tailOf(lat),
		"wall_mcs_ms":           wallMCS,
		"max_rps":               maxRPS,
	}
	out.report["rungs"] = rungs
	out.report["nominal_rate"] = nominalRate
	out.report["cache_hits"] = after.hits - before.hits
	out.report["cache_misses"] = after.misses - before.misses
	out.report["latency_limit_ms"] = latencyMS
	out.report["operation"] = "one request: CPU time of its round trip; wall latency from its due time"
	out.gc(&ms0, &ms1)
	return out, nil
}

// reverifyAll asks for every key of the pool once more, closed loop, and
// re-verifies one answer per key independently of the service. It returns
// the summed MCS length over the pool's MCS keys.
func reverifyAll(out *outcome, s *service, c *checker, rec *recorder) (int, error) {
	slots := 0
	for k := range c.keys {
		out.attempted++
		_, err := c.post(s, k, nil, 0, nil)
		var n int
		if err == nil {
			n, err = c.reverify(k, rec, 0)
		}
		if err != nil {
			out.failed++
			out.note(err)
			continue
		}
		slots += n
	}
	if slots == 0 {
		return 0, errors.New("re-verification produced no MCS schedule")
	}
	return slots, nil
}

// tracedSegments is how many stretches the traced configuration splits
// its window into, alternately untraced and traced, so that the machine's
// drift over the window falls on both sides of the overhead ratio.
const tracedSegments = 8

// serveTraced is the traced configuration: the nominal rate in alternate
// untraced and traced stretches, reading the service's own phase
// histograms and counters over the traced ones.
func serveTraced(out *outcome, s *service, c *checker, cfg runConfig, conns int) error {
	var ms0, ms1 runtime.MemStats
	seed := randx.New(cfg.seed ^ 0x74726163) // "trac"
	seg := cfg.seconds / tracedSegments
	var plainRT, tracedRT, late []float64
	var before, after serveCounters
	after.phaseSec, before.phaseSec = map[string]float64{}, map[string]float64{}
	for i := range tracedSegments {
		traced := i%2 == 1
		var rec *recorder
		if traced {
			rec = out.rec
			if i == 1 {
				runtime.ReadMemStats(&ms0)
			}
			before = before.plus(readCounters(s.reg))
		}
		r := runRung(s, c, seed.Uint64(), nominalRate, seg, conns, rec, false)
		for _, smp := range r.samples {
			if smp.sent {
				out.attempted++
				if smp.err != nil {
					out.failed++
					out.note(smp.err)
				}
			}
		}
		// The median round trip is a cache hit on either side, whichever
		// keys each stretch of the request sequence holds.
		rt := &plainRT
		if traced {
			rt = &tracedRT
			after = after.plus(readCounters(s.reg))
			for _, smp := range r.samples {
				late = append(late, ms(smp.release-smp.due))
			}
		}
		for _, i := range r.answered() {
			*rt = append(*rt, r.rawMS[i])
		}
	}
	runtime.ReadMemStats(&ms1)
	_, err := reverifyAll(out, s, c, out.rec)

	L := out.layers
	L["trace.overhead_share"] = median(tracedRT)/median(plainRT) - 1
	L["loadgen.late_ms"] = quantile(late, 0.99)

	reqs := after.requests - before.requests
	serverSec := 0.0
	for _, p := range servePhases {
		d := after.phaseSec[p] - before.phaseSec[p]
		serverSec += d
		L["serve."+p+"_ms"] = d * 1000 / reqs
	}
	spans := out.rec.snapshot()
	L["serve.http_ms"] = meanSpanMS(spans, "http.roundtrip") - serverSec*1000/reqs
	lookups := (after.hits - before.hits) + (after.misses - before.misses)
	L["serve.cache_lookups"] = lookups
	L["serve.cache_hit_ratio"] = (after.hits - before.hits) / lookups
	L["serve.cache_evictions"] = after.evictions - before.evictions
	L["serve.solves"] = after.solves - before.solves
	L["serve.singleflight_merged"] = after.merged - before.merged
	L["serve.rejected"] = after.rejected - before.rejected
	if n := after.electionN - before.electionN; n > 0 {
		L["distnet.election_ms"] = (after.electionSec - before.electionSec) * 1000 / float64(n)
	}
	L["deploy.generate_ms"] = meanSpanMS(spans, "deploy.generate")
	L["model.build_ms"] = meanSpanMS(spans, "model.build")
	L["verify.schedule_ms"] = meanSpanMS(spans, "verify.schedule")
	out.gc(&ms0, &ms1)
	inside := "the service runs this layer inside its workers, past the benchmark's HTTP-side spans"
	for _, name := range []string{"core.oneshot_ms.alg1", "core.oneshot_ms.alg2", "core.oneshot_ms.alg3",
		"core.oneshot_ms.ghc", "core.mcs_self_ms", "core.growth.max_radius", "core.growth.coordinators",
		"graph.build_ms", "graph.edges", "graph.max_degree", "distnet.rounds_per_slot", "distnet.messages_per_slot"} {
		out.absent[name] = inside
	}
	out.absent["trace.self_sum_share"] = "the open loop leaves the connection idle between requests, so spans do not cover the wall time"
	out.report["serve_phase_ms_per_request"] = serverSec * 1000 / reqs
	out.report["traced_requests"] = reqs
	return err
}
