package main

import (
	"runtime"
	"testing"
	"time"
)

// TestKernel: the calibration kernel takes a time the CPU clock can read.
func TestKernel(t *testing.T) {
	var sum time.Duration
	for range 20 {
		_, d := calibrate()
		sum += d
	}
	t.Logf("kernel: %v", sum/20)
	if sum/20 < 50*time.Microsecond {
		t.Errorf("kernel takes %v, too short for the CPU clock", sum/20)
	}
}

// TestSamplerLeavesKernelOut: the kernel runs every calEvery while work
// goes on, on the one P, and its time is not part of the work's.
func TestSamplerLeavesKernelOut(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := startSampler()
	m := s.mark()
	c0 := cpuTime()
	for cpuTime()-c0 < 20*calEvery {
	}
	st := s.since(m)
	s.halt()
	whole := ms(20 * calEvery)
	if st.hi-st.lo < 5 {
		t.Errorf("%d kernel runs during %v ms of work", st.hi-st.lo, whole)
	}
	if st.cpu >= whole || st.cpu < whole/2 {
		t.Errorf("work read %.1f ms of %.1f ms with the kernel's runs taken out", st.cpu, whole)
	}
	if v := s.scaled(st); v <= 0 {
		t.Errorf("scaled time %v", v)
	}
}

// TestScaledUsesMedianAround: a stretch is scaled by the median of the
// kernel runs inside it and calWindow on each side, so one slow run does
// not move it.
func TestScaledUsesMedianAround(t *testing.T) {
	s := &sampler{cal: []float64{calRefMS, calRefMS, 5 * calRefMS, calRefMS, calRefMS, 9, 9, 9}}
	if v := s.scaled(stretch{cpu: 10, lo: 2, hi: 3}); v != 10 {
		t.Errorf("scaled = %v at the reference speed, want 10", v)
	}
	s.cal = []float64{2 * calRefMS, 2 * calRefMS, 2 * calRefMS}
	if v := s.scaled(stretch{cpu: 10, lo: 1, hi: 1}); v != 5 {
		t.Errorf("scaled = %v with the kernel twice as slow, want 5", v)
	}
	var none *sampler
	if v := none.scaled(stretch{cpu: 10}); v != 10 {
		t.Errorf("a nil sampler scaled 10 to %v", v)
	}
}
