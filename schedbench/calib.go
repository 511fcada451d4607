package main

import (
	"runtime"
	"sync"
	"time"
)

// Machine-speed calibration.
//
// On a shared two-vCPU VM the speed of one binary moves by 20-40% over
// seconds to minutes, as the host's other tenants load its caches and
// memory. Steal time is near zero then, so the process CPU clock moves as
// much as the wall clock: neither can compare one run with the next. The
// benchmark therefore runs a fixed kernel of its own every calEvery, and
// reports CPU time at a reference speed:
//
//	reported = CPU time × calRefMS / (the kernel's CPU time around it)
//
// The kernel runs on a goroutine of its own every calEvery, whatever the
// work is doing; with one P (see run) the work stops meanwhile, and the
// kernel's CPU time is subtracted from it. A long solve is then scaled by
// the machine's speed during it, not at its ends.
//
// The kernel allocates a binary tree and walks it: allocation, collection
// and pointer chasing, the work the scheduler's own costs are most
// sensitive to. Over six runs each on that VM, with raw times spreading by
// up to 0.34 (interquartile range over median), scaled paper-mcs times
// spread by at most 0.05 and dense-mcs times by 0.09. A hash-map kernel, a
// sort kernel and mixes of the three did worse. The kernel is the
// benchmark's code, not the program's, so a change to the program still
// moves the reported times one for one.

// calDepth is the depth of the kernel's tree: 2^(calDepth+1)-1 nodes.
const calDepth = 13

// calRefMS is the kernel's CPU time at the reference speed, about its
// median on that VM.
const calRefMS = 0.8

// calEvery is how often the kernel runs, on the wall clock.
const calEvery = 10 * time.Millisecond

// calWindow is how many kernel runs before and after a stretch of work
// take part in its scale, besides those inside it. The machine's speed
// moves within a second, so the window is short; a single run reads up to
// twice too slow when it falls in a collection, so it is not shorter.
const calWindow = 2

type calNode struct {
	left, right *calNode
	depth       int
}

func calTree(depth int) *calNode {
	n := &calNode{depth: depth}
	if depth > 0 {
		n.left, n.right = calTree(depth-1), calTree(depth-1)
	}
	return n
}

// count returns the number of nodes under n, itself included.
func (n *calNode) count() int {
	if n == nil {
		return 0
	}
	return 1 + n.left.count() + n.right.count()
}

const calNodes = 1<<(calDepth+1) - 1

// calibrate runs the kernel once and returns its CPU time, in ms and as a
// duration.
func calibrate() (float64, time.Duration) {
	c0 := cpuTime()
	if n := calTree(calDepth).count(); n != calNodes {
		panic("calibration tree has the wrong size")
	}
	d := cpuTime() - c0
	return ms(d), d
}

// calAllocBytes is what one calibrate call allocates, so the allocation
// metrics can leave the kernel out.
func calAllocBytes() uint64 {
	calibrate() // first call outside the measurement
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	calibrate()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// sampler runs the kernel every calEvery until halted. A nil sampler runs
// nothing and scales nothing: the traced configuration uses one, so that
// no span holds a kernel run.
type sampler struct {
	mu     sync.Mutex
	cal    []float64     // ms of each kernel run
	kernel time.Duration // CPU time of all kernel runs so far
	stop   chan struct{}
	done   chan struct{}
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(calEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.run()
			}
		}
	}()
	return s
}

func (s *sampler) run() {
	v, d := calibrate()
	s.mu.Lock()
	s.cal = append(s.cal, v)
	s.kernel += d
	s.mu.Unlock()
}

// halt stops the kernel goroutine, waits for it, and runs the kernel once
// more, so that the last stretch of work has a run after it.
func (s *sampler) halt() {
	if s == nil {
		return
	}
	close(s.stop)
	<-s.done
	s.run()
}

// runs is the number of kernel runs so far.
func (s *sampler) runs() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cal)
}

// mark is a point on the work's CPU clock.
type mark struct {
	cpu, kernel time.Duration
	seq         int // kernel runs before it
}

func (s *sampler) mark() mark {
	if s == nil {
		return mark{cpu: cpuTime()}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return mark{cpu: cpuTime(), kernel: s.kernel, seq: len(s.cal)}
}

// stretch is the work between two marks: its CPU time with the kernel's
// left out, and the kernel runs inside it.
type stretch struct {
	cpu    float64 // ms
	lo, hi int     // kernel runs [lo, hi) fell inside
}

func (s *sampler) since(m mark) stretch {
	e := s.mark()
	return stretch{cpu: ms(e.cpu - m.cpu - (e.kernel - m.kernel)), lo: m.seq, hi: e.seq}
}

// scaled returns the stretch's CPU time at the reference speed: times
// calRefMS over the median of the kernel runs inside it and calWindow on
// each side. Call it after halt.
func (s *sampler) scaled(st stretch) float64 {
	if s == nil {
		return st.cpu
	}
	lo, hi := max(0, st.lo-calWindow), min(len(s.cal), st.hi+calWindow)
	return st.cpu * calRefMS / median(s.cal[lo:hi])
}

// timeSetup runs one set-up from a collected heap and returns its CPU time
// in seconds at the reference speed.
func timeSetup(setup func() error) (float64, error) {
	runtime.GC()
	s := startSampler()
	m := s.mark()
	err := setup()
	st := s.since(m)
	s.halt()
	return s.scaled(st) / 1000, err
}

// calReport summarises the kernel runs of a run for its report line.
func calReport(s *sampler) map[string]float64 {
	if s == nil {
		return nil
	}
	return map[string]float64{
		"runs": float64(len(s.cal)), "p25_ms": quantile(s.cal, 0.25),
		"median_ms": median(s.cal), "p75_ms": quantile(s.cal, 0.75),
	}
}
