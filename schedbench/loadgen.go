package main

import (
	"math"
	"sync"
	"time"

	"rfidsched/internal/randx"
)

// sample is one request of an open-loop run. Times are offsets from the
// start of the run.
type sample struct {
	due     time.Duration // when the schedule says the request is sent
	release time.Duration // when the generator handed it to a connection
	start   time.Duration // when a connection began sending it
	end     time.Duration // when the response was read
	sent    bool          // false: abandoned in a backlog at the cut-off
	err     error
}

// latency is measured from the due time, so a request that waited behind a
// stalled one carries that wait (no coordinated omission). An abandoned or
// failed request misses any limit.
func (s sample) latency() float64 {
	if !s.sent || s.err != nil {
		return math.Inf(1)
	}
	return ms(s.end - s.due)
}

// poissonSchedule draws the due times of a Poisson process with the given
// rate (per second) over dur.
func poissonSchedule(rng *randx.RNG, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.Exponential(rate)
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// openLoop sends request i at due[i] over conns connections by calling
// do(i), and returns when every request has been answered or abandoned.
// The calling goroutine releases requests on schedule, whatever the
// connections are doing; a request still waiting for a connection at
// cutoff after the start is abandoned, which bounds an overloaded run.
func openLoop(due []time.Duration, conns int, cutoff time.Duration, do func(i int) error) []sample {
	samples := make([]sample, len(due))
	queue := make(chan int, len(due)) // sized to the number of sends: release never blocks
	var wg sync.WaitGroup
	t0 := time.Now()
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s := &samples[i]
				s.start = time.Since(t0)
				if s.start > cutoff {
					continue
				}
				s.sent = true
				s.err = do(i)
				s.end = time.Since(t0)
			}
		}()
	}
	for i, d := range due {
		if wait := d - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		samples[i].due = d
		samples[i].release = time.Since(t0)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return samples
}

// rung summarises one rate of the ladder. A latency percentile that falls
// on an abandoned or failed request reads -1.
type rung struct {
	Rate       float64 `json:"rate"`
	Requests   int     `json:"requests"`
	Abandoned  int     `json:"abandoned"`
	Failed     int     `json:"failed"`
	P50MS      float64 `json:"p50_ms"`
	P99MS      float64 `json:"p99_ms"`
	LateP99MS  float64 `json:"late_p99_ms"`
	LagGrowing bool    `json:"lag_growing"`
	Pass       bool    `json:"pass"`
}

// summarise applies the ladder's three conditions to one rung: p99 within
// the limit, no failures, and a send lag that does not grow over the rung.
func summarise(rate float64, samples []sample, limitMS float64) rung {
	r := rung{Rate: rate, Requests: len(samples)}
	lat := make([]float64, 0, len(samples))
	late := make([]float64, 0, len(samples))
	for _, s := range samples {
		if !s.sent {
			r.Abandoned++
		} else if s.err != nil {
			r.Failed++
		}
		lat = append(lat, s.latency())
		late = append(late, ms(s.release-s.due))
	}
	if len(samples) == 0 {
		return r
	}
	r.P50MS = finiteOr(quantile(lat, 0.5), -1)
	r.P99MS = quantile(lat, 0.99)
	r.LateP99MS = quantile(late, 0.99)
	r.LagGrowing = lagGrowing(samples, limitMS)
	r.Pass = r.P99MS <= limitMS && r.Failed == 0 && r.Abandoned == 0 && !r.LagGrowing
	r.P99MS = finiteOr(r.P99MS, -1)
	return r
}

func finiteOr(v, alt float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return alt
	}
	return v
}

// lagGrowing reports a backlog that builds up over the rung: the mean wait
// for a connection in the last third exceeds the first third's by more than
// a tenth of the latency limit.
func lagGrowing(samples []sample, limitMS float64) bool {
	n := len(samples) / 3
	if n == 0 {
		return false
	}
	lag := func(part []sample) float64 {
		sum := 0.0
		for _, s := range part {
			if !s.sent {
				return math.Inf(1)
			}
			sum += ms(s.start - s.due)
		}
		return sum / float64(len(part))
	}
	return lag(samples[len(samples)-n:])-lag(samples[:n]) > limitMS/10
}
