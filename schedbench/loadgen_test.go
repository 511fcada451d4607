package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rfidsched/internal/randx"
)

func TestPoissonSchedule(t *testing.T) {
	a := poissonSchedule(randx.New(3), 500, 10*time.Second)
	b := poissonSchedule(randx.New(3), 500, 10*time.Second)
	if len(a) != len(b) || a[0] != b[0] || a[len(a)-1] != b[len(b)-1] {
		t.Fatal("same seed gave different schedules")
	}
	if n := len(a); n < 4700 || n > 5300 {
		t.Errorf("%d arrivals in 10 s at 500/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("due times out of order at %d", i)
		}
	}
}

// TestOpenLoopCarriesStall is the coordinated-omission check: the handler
// stalls once, and every request due during the stall must carry the wait
// in its latency, while the generator itself keeps to its schedule.
func TestOpenLoopCarriesStall(t *testing.T) {
	const (
		gap   = 5 * time.Millisecond
		stall = 200 * time.Millisecond
		n     = 100
	)
	var calls atomic.Int64
	var mu sync.Mutex // one stalled handler holds up both connections
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if calls.Add(1) == 10 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := srv.Client()

	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	samples := openLoop(due, 2, time.Minute, func(int) error {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return err
	})

	// The stalled request is the tenth to reach the handler; find it as the
	// sample with the longest service time.
	stalled := 0
	for i, s := range samples {
		if s.err != nil || !s.sent {
			t.Fatalf("request %d: sent %v, err %v", i, s.sent, s.err)
		}
		if s.end-s.start > samples[stalled].end-samples[stalled].start {
			stalled = i
		}
	}
	stallEnd := samples[stalled].end
	behind := 0
	for i, s := range samples {
		if i <= stalled || s.due >= stallEnd-10*time.Millisecond {
			continue
		}
		behind++
		// Both connections wait on the stalled handler, so each of these
		// ends after it (less the few ms between two goroutines' clocks).
		if got, min := ms(s.end-s.due), ms(stallEnd-s.due)-5; got < min {
			t.Errorf("request %d due at %v: latency %.1f ms, but the stall held it %.1f ms", i, s.due, got, min)
		}
	}
	if want := int(stall/gap) / 2; behind < want {
		t.Errorf("only %d requests queued behind the stall, want at least %d", behind, want)
	}
	first := samples[stalled+1]
	if lat := ms(first.end - first.due); lat < ms(stall)*0.8 {
		t.Errorf("first request behind the stall reads %.1f ms, want about %v", lat, stall)
	}
	var late []float64
	for _, s := range samples {
		late = append(late, ms(s.release-s.due))
	}
	if p99 := quantile(late, 0.99); p99 > 20 {
		t.Errorf("generator ran %.1f ms late at p99; the schedule must not wait for responses", p99)
	}
}

func TestRungConditions(t *testing.T) {
	ok := func(due, lat time.Duration) sample {
		return sample{due: due, release: due, start: due, end: due + lat, sent: true}
	}
	var fast, slow, backlog []sample
	for i := range 300 {
		d := time.Duration(i) * time.Millisecond
		fast = append(fast, ok(d, 2*time.Millisecond))
		slow = append(slow, ok(d, 150*time.Millisecond))
		s := ok(d, 2*time.Millisecond)
		s.start += time.Duration(i) * 100 * time.Microsecond // waits longer and longer for a connection
		s.end += s.start - s.due
		backlog = append(backlog, s)
	}
	if r := summarise(100, fast, latencyMS); !r.Pass {
		t.Errorf("fast rung failed: %+v", r)
	}
	if r := summarise(100, slow, latencyMS); r.Pass {
		t.Errorf("rung over the latency limit passed: %+v", r)
	}
	if r := summarise(100, backlog, latencyMS); r.Pass || !r.LagGrowing {
		t.Errorf("rung with a growing backlog passed: %+v", r)
	}
	abandoned := append([]sample(nil), fast...)
	abandoned[len(abandoned)-1].sent = false
	if r := summarise(100, abandoned, latencyMS); r.Pass || r.Abandoned != 1 {
		t.Errorf("rung with an abandoned request passed: %+v", r)
	}
}
