package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"rfidsched/internal/core"
	"rfidsched/internal/model"
	"rfidsched/internal/obs"
)

// span is one timed call into a layer. Times are offsets from the
// recorder's start, so a written trace needs no wall-clock anchor.
type span struct {
	Name   string        `json:"name"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a root span
	Op     int           `json:"op"`     // operation the span belongs to
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder is the
// untraced configuration: every method is a no-op returning 0, so the timed
// code calls it unconditionally.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id (ids start at 1).
func (r *recorder) start(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Op: op, Start: now})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes every span as one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's. Children arrive in start order (ids grow with time).
func covered(parent span, kids []span) time.Duration {
	var total, reach time.Duration
	reach = parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, reach), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return total
}

// layerStats accumulates the counts the layers expose: interference-graph
// size, and per one-shot solve the distnet network cost (Alg. 3) and the
// growth-ball shape (Alg. 2).
type layerStats struct {
	graphs, graphEdges, graphMaxDegree  int
	distSlots, distRounds, distMessages int
	growthSlots, growthCoordinators     int
	growthMaxRadius                     int
}

// tracedScheduler wraps a scheduler to time each OneShot call as a span
// under the current MCS run. It forwards every optional interface that
// core.RunMCS probes for, so wrapping changes nothing core.RunMCS does:
// for an inner scheduler without the interface the forwarded call is the
// neutral one (no-op setter, not truncated, no checkpoint blob).
type tracedScheduler struct {
	inner  model.OneShotScheduler
	rec    *recorder
	name   string // span name
	parent int    // span the OneShot spans hang under
	op     int
	stats  *layerStats
}

func (t *tracedScheduler) Name() string { return t.inner.Name() }

func (t *tracedScheduler) OneShot(sys *model.System) ([]int, error) {
	id := t.rec.start(t.name, t.parent, t.op)
	X, err := t.inner.OneShot(sys)
	t.rec.end(id)
	if t.stats != nil {
		switch s := t.inner.(type) {
		case *core.Distributed:
			if s.LastStats != nil {
				t.stats.distSlots++
				t.stats.distRounds += s.LastStats.Rounds
				t.stats.distMessages += s.LastStats.MessagesSent
			}
		case *core.Growth:
			t.stats.growthSlots++
			t.stats.growthCoordinators += s.LastCoordinators
			t.stats.growthMaxRadius = max(t.stats.growthMaxRadius, s.LastMaxRadius)
		}
	}
	return X, err
}

func (t *tracedScheduler) SetMetrics(reg *obs.Registry) {
	if s, ok := t.inner.(interface{ SetMetrics(*obs.Registry) }); ok {
		s.SetMetrics(reg)
	}
}

func (t *tracedScheduler) SetWorkers(n int) {
	if s, ok := t.inner.(interface{ SetWorkers(int) }); ok {
		s.SetWorkers(n)
	}
}

func (t *tracedScheduler) SetDeadline(dl *core.Deadline) {
	if s, ok := t.inner.(core.DeadlineSetter); ok {
		s.SetDeadline(dl)
	}
}

func (t *tracedScheduler) Anytime() bool {
	s, ok := t.inner.(core.AnytimeReporter)
	return ok && s.Anytime()
}

func (t *tracedScheduler) CheckpointState() ([]byte, error) {
	if s, ok := t.inner.(core.SchedulerCheckpointer); ok {
		return s.CheckpointState()
	}
	return nil, nil
}

func (t *tracedScheduler) RestoreState(data []byte) error {
	if s, ok := t.inner.(core.SchedulerCheckpointer); ok {
		return s.RestoreState(data)
	}
	if len(data) > 0 {
		return errors.New("schedbench: checkpoint blob for a stateless scheduler")
	}
	return nil
}

// The wrapper must satisfy every interface core.RunMCS probes.
var (
	_ core.DeadlineSetter                        = (*tracedScheduler)(nil)
	_ core.AnytimeReporter                       = (*tracedScheduler)(nil)
	_ core.SchedulerCheckpointer                 = (*tracedScheduler)(nil)
	_ interface{ SetWorkers(int) }               = (*tracedScheduler)(nil)
	_ interface{ SetMetrics(reg *obs.Registry) } = (*tracedScheduler)(nil)
)
