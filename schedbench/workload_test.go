package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"rfidsched/internal/serve"
)

// TestSlotsTotalBitStable: two runs with one seed solve the same instances
// to the same schedule lengths; another seed draws other instances.
func TestSlotsTotalBitStable(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the paper-mcs instance list three times")
	}
	run := func(seed uint64) float64 {
		out, err := runOffline("paper-mcs", runConfig{seed: seed, seconds: 1})
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != 0 || len(out.errors) != 0 {
			t.Fatalf("seed %d: %d failed: %v", seed, out.failed, out.errors)
		}
		return out.e2e["slots_total"]
	}
	a, b := run(5), run(5)
	if a != b || a == 0 {
		t.Errorf("slots_total %v then %v with the same seed", a, b)
	}
	if c := run(6); c == a {
		t.Logf("seeds 5 and 6 both sum to %v slots", c)
	}
}

// TestServeChecksCatchTampering: the byte comparison and the independent
// re-verification reject answers that differ from what the service and
// the model say.
func TestServeChecksCatchTampering(t *testing.T) {
	s, c, err := serveSetup(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.stop(); err != nil {
			t.Error(err)
		}
	}()
	k := -1
	for i, key := range c.keys {
		if key.mode == serve.ModeMCS && key.alg == "alg2" && c.first[i] != nil {
			k = i
			break
		}
	}
	if k < 0 {
		t.Fatal("warm-up answered no alg2 MCS key")
	}
	if _, err := c.post(s, k, nil, 0, nil); err != nil {
		t.Fatalf("repeat request: %v", err)
	}
	if _, err := c.reverify(k, nil, 0); err != nil {
		t.Fatalf("re-verify: %v", err)
	}

	good := c.first[k]
	c.first[k] = bytes.Replace(good, []byte(`"verified": true`), []byte(`"verified": true `), 1)
	if _, err := c.post(s, k, nil, 0, nil); err == nil {
		t.Error("an answer that differs from the first one was accepted")
	}

	var res serve.Result
	if err := json.Unmarshal(good, &res); err != nil {
		t.Fatal(err)
	}
	res.Schedule = res.Schedule[:len(res.Schedule)-1]
	res.Slots--
	c.first[k], _ = json.Marshal(res)
	if _, err := c.reverify(k, nil, 0); err == nil {
		t.Error("a schedule missing its last slot passed re-verification")
	}
}
