package core

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"testing"

	"rfidsched/internal/deploy"
	"rfidsched/internal/distnet"
	"rfidsched/internal/fault"
	"rfidsched/internal/graph"
	"rfidsched/internal/model"
)

// statsRecorder wraps Algorithm 3 and keeps the network statistics of every
// one-shot call, so a covering schedule can be pinned slot by slot.
type statsRecorder struct {
	*Distributed
	stats []distnet.Stats
}

func (r *statsRecorder) OneShot(sys *model.System) ([]int, error) {
	X, err := r.Distributed.OneShot(sys)
	if r.LastStats != nil {
		r.stats = append(r.stats, *r.LastStats)
	}
	return X, err
}

// alg3Golden is the pinned outcome of one Algorithm 3 covering schedule:
// the per-slot activation sets and every distnet.Stats field over all
// slots (counters summed, MaxInboxSize maximized, ParkedAtRound hashed).
type alg3Golden struct {
	slots string // per-slot Active sets, "|"-separated; "*" marks a stall-guard fallback

	rounds, sent, lost, maxInbox                          int
	crashed, partRounds, partDropped, dup, skips, undeliv int
	parked                                                uint64 // FNV-1a over every slot's ParkedAtRound
}

func (g alg3Golden) String() string {
	return fmt.Sprintf("{%q, %d, %d, %d, %d, %d, %d, %d, %d, %d, %d, %#x}",
		g.slots, g.rounds, g.sent, g.lost, g.maxInbox,
		g.crashed, g.partRounds, g.partDropped, g.dup, g.skips, g.undeliv, g.parked)
}

// alg3GoldenScenarios returns one configuration per fault kind. The
// partition cuts every radio link of readers 0 and 1 for the first 60
// rounds of each protocol run.
func alg3GoldenScenarios(g *graph.Graph) []struct {
	name string
	set  func(*Distributed)
} {
	var cut [][2]int
	for _, u := range []int{0, 1} {
		for _, v := range g.Neighbors(u) {
			cut = append(cut, [2]int{u, int(v)})
		}
	}
	events := func(seed uint64, evs ...fault.Event) func(*Distributed) {
		return func(d *Distributed) { d.Faults = &fault.Scenario{Seed: seed, Events: evs} }
	}
	return []struct {
		name string
		set  func(*Distributed)
	}{
		{"none", func(*Distributed) {}},
		{"loss", func(d *Distributed) { d.LossRate, d.LossSeed = 0.05, 7 }},
		{"crash", events(0, fault.Crash(3, 40))},
		{"crash-recover", events(0, fault.CrashRecover(7, 10, 60))},
		{"straggle", events(0, fault.Straggle(5, 2, 30))},
		{"partition", events(0, fault.Partition(cut, 0, 60))},
		{"duplicate", events(5, fault.Duplicate(0.2, 0, fault.Forever))},
		{"reorder", events(5, fault.Reorder(0, fault.Forever))},
	}
}

// alg3GoldenWant was recorded with the goroutine-per-node distnet kernel;
// any semantic drift of the kernel or of the Algorithm 3 node program shows
// up here as a changed set, count or hash.
var alg3GoldenWant = map[string]alg3Golden{
	"1001/none":          {"0,4,8,9,10,11,12,15,17,18,20,22,24,25,29,30,31,33,34,35,39,40,44,49|5,6,12,14,19,23,27,38,41,43,47|16,26|13,32,37", 1632, 24247, 0, 74, 0, 0, 0, 0, 0, 1211, 0xc3c8cd9793f9f883},
	"1001/loss":          {"0,4,8,9,10,11,12,15,17,18,20,22,23,24,25,29,30,31,33,34,35,39,40,44,49|5,6,12,14,15,19,27,38,41,43,47|16,23,26|13,32,37", 1728, 23160, 1187, 71, 0, 0, 0, 0, 0, 1215, 0xa40052c79074164e},
	"1001/crash":         {"0,4,8,9,10,11,12,15,17,18,20,22,24,25,29,30,31,33,34,35,39,40,44,49|5,6,12,14,19,23,27,38,41,43,47|16,26|13,32,37", 1632, 23234, 0, 74, 4, 0, 0, 0, 0, 1561, 0x9415ead7ce917128},
	"1001/crash-recover": {"0,4,7,8,9,10,11,12,15,17,18,20,22,24,25,29,30,31,33,34,35,39,40,44,49|5,6,7,12,14,19,23,27,33,38,41,43,47|7,16,26,33|7,13,32,33,37|7,33|7,33|33*", 2208, 34263, 0, 74, 0, 0, 0, 0, 0, 1253, 0xd3cfc9f411392b84},
	"1001/straggle":      {"0,4,8,9,10,11,12,15,17,18,20,22,24,25,29,30,31,33,34,35,39,40,44,49|5,6,12,14,19,23,27,38,41,43,47|16,26|13,32,37", 1632, 24247, 0, 146, 0, 0, 0, 0, 120, 1211, 0xc3c8cd9793f9f883},
	"1001/partition":     {"0,1,4,8,9,10,11,12,15,17,18,20,22,24,25,29,30,31,33,34,35,39,40,44,49|1,5,6,12,14,19,23,27,33,38,41,43,47|1,16,26,33|1,13,32,33,37|1,33|1,33|33*", 1920, 32331, 0, 59, 0, 420, 504, 0, 0, 1303, 0x49359d2785eedfa8},
	"1001/duplicate":     {"0,4,8,9,10,11,12,15,17,18,20,22,24,25,29,30,31,33,34,35,39,40,44,49|5,6,12,14,19,23,27,38,41,43,47|16,26|13,32,37", 1632, 24247, 0, 88, 0, 0, 0, 4368, 0, 1211, 0xc3c8cd9793f9f883},
	"1001/reorder":       {"0,4,8,9,10,11,12,15,17,18,20,22,24,25,29,30,31,33,34,35,39,40,44,49|5,6,12,14,19,23,27,38,41,43,47|16,26|13,32,37", 1632, 24247, 0, 74, 0, 0, 0, 0, 0, 1211, 0xc3c8cd9793f9f883},
	"1002/none":          {"0,2,3,4,6,8,9,10,14,15,17,18,20,21,26,28,29,30,33,35,36,42,44,45,47,49|5,6,7,8,12,16,23,24,31,32,38,39,43,46,48|2,6,13,19,34,41|2,6|2,6|2*", 1920, 21309, 0, 29, 0, 0, 0, 0, 0, 367, 0x97fe2cd94bcbf54b},
	"1002/loss":          {"0,2,3,4,6,8,9,10,14,15,17,18,20,21,26,28,29,30,33,35,36,42,44,45,47,49|5,6,7,8,12,16,23,24,31,32,38,39,43,46,48|2,6,13,19,34,41|2,6|2,6|2*", 1920, 20070, 1047, 26, 0, 0, 0, 0, 0, 391, 0xf55e564d5d54826f},
	"1002/crash":         {"0,2,4,6,8,9,10,14,15,17,18,20,21,26,28,29,30,33,35,36,42,44,45,47,49|5,6,7,8,12,16,23,24,31,32,38,39,43,46,48|2,6,13,34,41|2,6|2,6|2,3*|19", 1920, 23335, 0, 29, 7, 0, 0, 0, 0, 681, 0x5bad2b7b2bc90cbc},
	"1002/crash-recover": {"0,2,3,4,6,7,8,9,10,14,15,17,18,20,21,26,28,29,30,33,35,36,42,44,45,47,49|6,7,8,12,16,23,24,31,32,38,39,43,44,46,48|2,6,7,8,13,19,34,41,44|2,6,7,8,44|2,6,7,8,44|44,2*|5,7", 2208, 23823, 0, 29, 0, 0, 0, 0, 0, 395, 0x45f2eb6c9488b9de},
	"1002/straggle":      {"0,2,3,4,6,8,9,10,14,15,17,18,20,21,26,28,29,30,33,35,36,42,44,45,47,49|5,6,7,8,12,16,23,24,31,32,38,39,43,46,48|2,6,13,19,34,41|2,6|2,6|2*", 1920, 21309, 0, 29, 0, 0, 0, 0, 180, 367, 0x97fe2cd94bcbf54b},
	"1002/partition":     {"0,1,2,3,4,6,8,9,10,14,17,18,20,21,26,28,29,30,33,36,42,43,44,45,46,49|0,1,2,5,6,7,8,12,15,16,23,24,31,32,38,47,48|0,1,2,6,12,13,22,34,41|0,1,2,6,12|0,1,2,6,12|0,2,19*|39", 1920, 15331, 0, 24, 0, 420, 385, 0, 0, 502, 0xdfd855ace5ce8f72},
	"1002/duplicate":     {"0,2,3,4,6,8,9,10,14,15,17,18,20,21,26,28,29,30,33,35,36,42,44,45,47,49|5,6,7,8,12,16,23,24,31,32,38,39,43,46,48|2,6,13,19,34,41|2,6|2,6|2*", 1920, 21309, 0, 32, 0, 0, 0, 3896, 0, 367, 0x97fe2cd94bcbf54b},
	"1002/reorder":       {"0,2,3,4,6,8,9,10,14,15,17,18,20,21,26,28,29,30,33,35,36,42,44,45,47,49|5,6,7,8,12,16,23,24,31,32,38,39,43,46,48|2,6,13,19,34,41|2,6|2,6|2*", 1920, 21309, 0, 29, 0, 0, 0, 0, 0, 367, 0x97fe2cd94bcbf54b},
	"1003/none":          {"0,3,9,10,14,16,18,20,21,24,25,29,30,31,37,39,42,43,44,45,46,47,48|1,2,5,8,11,15,17,19,22,32,33,34,49|6,13,23,28|7|41", 1920, 44625, 0, 42, 0, 0, 0, 0, 0, 695, 0xf9b7cbf0413e18a1},
	"1003/loss":          {"0,1,2,3,9,10,14,16,18,20,21,24,25,29,30,31,37,39,42,43,44,45,46,47,48|1,5,8,11,15,17,19,22,30,32,33,34,49|2,6,13,23,28,31|7|41", 1920, 40987, 2133, 39, 0, 0, 0, 0, 0, 667, 0x480fd1dc557acfd},
	"1003/crash":         {"0,9,10,14,16,18,20,21,24,25,29,30,31,36,37,39,42,43,44,45,46,47,48|1,2,5,11,15,19,22,32,33,34,49|6,23,28|7|41|||3*|8,17|13", 3168, 70668, 0, 42, 10, 0, 0, 0, 0, 1640, 0xcfeec15dd2ba167},
	"1003/crash-recover": {"0,3,9,10,14,16,18,20,21,24,25,29,30,31,37,39,42,43,44,45,46,47,48|1,2,5,8,11,15,17,19,22,32,33,34,49|6,7,13,23,28|7|41", 2016, 49013, 0, 42, 0, 0, 0, 0, 0, 686, 0xc5210435c177233e},
	"1003/straggle":      {"0,3,9,10,14,16,18,20,21,24,25,29,30,31,37,39,42,43,44,45,46,47,48|1,2,5,8,11,15,17,19,22,32,33,34,49|6,13,23,28|7|41", 1920, 44625, 0, 42, 0, 0, 0, 0, 150, 695, 0xf9b7cbf0413e18a1},
	"1003/partition":     {"0,1,3,9,10,14,16,18,20,21,24,25,29,30,31,37,39,42,43,44,45,46,47,48|1,2,5,8,11,15,17,19,22,32,33,34,49|6,13,23,28,31|7|41", 1824, 40098, 0, 40, 0, 300, 180, 0, 0, 822, 0x4aefcba8310a595a},
	"1003/duplicate":     {"0,3,9,10,14,16,18,20,21,24,25,29,30,31,37,39,42,43,44,45,46,47,48|1,2,5,8,11,15,17,19,22,32,33,34,49|6,13,23,28|7|41", 1920, 44625, 0, 51, 0, 0, 0, 8366, 0, 695, 0xf9b7cbf0413e18a1},
	"1003/reorder":       {"0,3,9,10,14,16,18,20,21,24,25,29,30,31,37,39,42,43,44,45,46,47,48|1,2,5,8,11,15,17,19,22,32,33,34,49|6,13,23,28|7|41", 1920, 44625, 0, 42, 0, 0, 0, 0, 0, 695, 0xf9b7cbf0413e18a1},
}

// TestDistributedGolden pins Algorithm 3 covering schedules on three paper
// deployments under every fault kind against values recorded from an
// earlier build, so a kernel change that alters protocol semantics fails
// here even when it is self-consistent run to run.
func TestDistributedGolden(t *testing.T) {
	for _, seed := range []uint64{1001, 1002, 1003} {
		dep, err := deploy.Generate(deploy.Paper(seed, 12, 5))
		if err != nil {
			t.Fatal(err)
		}
		g := graph.FromSystem(dep)
		for _, sc := range alg3GoldenScenarios(g) {
			name := fmt.Sprintf("%d/%s", seed, sc.name)
			sys := dep.Clone()
			rec := &statsRecorder{Distributed: NewDistributed(g, 1.25)}
			sc.set(rec.Distributed)
			res, err := RunMCS(sys, rec, MCSOptions{RecordSlots: true})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := alg3GoldenOf(res, rec.stats)
			if want, ok := alg3GoldenWant[name]; !ok || got != want {
				t.Errorf("%s:\n got  %v\n want %v", name, got, want)
				t.Logf("\t%q: %v,", name, got)
			}
		}
	}
}

func alg3GoldenOf(res *MCSResult, stats []distnet.Stats) alg3Golden {
	var g alg3Golden
	sets := make([]string, len(res.Slots))
	for i, s := range res.Slots {
		ids := make([]string, len(s.Active))
		for j, v := range s.Active {
			ids[j] = strconv.Itoa(v)
		}
		sets[i] = strings.Join(ids, ",")
		if s.Fallback {
			sets[i] += "*"
		}
	}
	g.slots = strings.Join(sets, "|")
	h := fnv.New64a()
	for _, st := range stats {
		g.rounds += st.Rounds
		g.sent += st.MessagesSent
		g.lost += st.MessagesLost
		g.maxInbox = max(g.maxInbox, st.MaxInboxSize)
		g.crashed += st.CrashedNodes
		g.partRounds += st.PartitionedRounds
		g.partDropped += st.PartitionDropped
		g.dup += st.DuplicatedMessages
		g.skips += st.StragglerSkips
		g.undeliv += st.UndeliveredDown
		fmt.Fprintln(h, st.ParkedAtRound)
	}
	g.parked = h.Sum64()
	return g
}

// TestDistributedOneShotAllocs bounds the allocations of one Algorithm 3
// election on a paper deployment. A per-round goroutine, inbox array or
// payload re-boxing in the kernel or node program costs tens of thousands
// of allocations here; the bound leaves headroom over the buffer-reusing
// path.
func TestDistributedOneShotAllocs(t *testing.T) {
	sys, err := deploy.Generate(deploy.Paper(1001, 12, 5))
	if err != nil {
		t.Fatal(err)
	}
	d := NewDistributed(graph.FromSystem(sys), 1.25)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := d.OneShot(sys); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 5000 // measured 2251; a per-round allocating kernel costs ~39k
	if allocs > bound {
		t.Errorf("Algorithm 3 OneShot: %.0f allocations, want at most %d", allocs, bound)
	}
}
