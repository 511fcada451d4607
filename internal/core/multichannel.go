package core

import (
	"fmt"

	"rfidsched/internal/model"
)

// MultiChannel is the dense-reading-mode extension: with C frequency
// channels available, two readers only collide (RTc) when they share a
// channel, so each slot can activate up to C interleaved feasible sets.
// RRc is unaffected — tags cannot tell channels apart — so interrogation
// overlaps still cost weight, which bounds how much extra throughput
// channels can buy. The paper's Section VII mentions this mode as related
// work; the ablation benchmark BenchmarkMultiChannel measures the RTc/RRc
// split it implies.
//
// Assignment is greedy: readers in descending singleton-weight order are
// placed on the first channel where they remain independent of that
// channel's members and strictly increase the channeled weight.
type MultiChannel struct {
	// Channels is the number of available frequency channels (>= 1).
	Channels int
}

// Name implements a scheduler-like identity for reporting.
func (m MultiChannel) Name() string { return fmt.Sprintf("MultiChannel(%d)", m.Channels) }

// Assignment is a multi-channel activation plan for one slot.
type Assignment struct {
	Readers  []int
	Channels []int // Channels[i] is the channel of Readers[i], in [0, C)
}

// Weight evaluates the plan on the system.
func (a Assignment) Weight(sys *model.System) int {
	return sys.WeightChanneled(a.Readers, a.Channels)
}

// OneShot computes a channel assignment for the next slot.
func (m MultiChannel) OneShot(sys *model.System) (Assignment, error) {
	c := m.Channels
	if c < 1 {
		return Assignment{}, fmt.Errorf("core: MultiChannel needs >= 1 channel, have %d", c)
	}
	n := sys.NumReaders()
	order := make([]int, n)
	single := make([]int, n)
	for i := range order {
		order[i] = i
		single[i] = sys.SingletonWeight(i) // O(1) counter read, scored once
	}
	// Heaviest singleton first; ties by index.
	insertionSortBy(order, func(a, b int) bool {
		if single[a] != single[b] {
			return single[a] > single[b]
		}
		return a < b
	})

	var plan Assignment
	// Per-channel independence is a word-AND against the channel's member
	// bitset — same verdicts as the pairwise Independent loop, one test per
	// 64 members.
	conf := sys.ConflictBits()
	chBits := make([][]uint64, c)
	for ch := range chBits {
		chBits[ch] = make([]uint64, conf.Stride)
	}
	curW := 0
	for _, v := range order {
		if single[v] == 0 {
			break // nothing below can add weight either
		}
		bestCh, bestW := -1, curW
		for ch := 0; ch < c; ch++ {
			if conf.ConflictsWithAny(v, chBits[ch]) {
				continue
			}
			plan.Readers = append(plan.Readers, v)
			plan.Channels = append(plan.Channels, ch)
			if w := plan.Weight(sys); w > bestW {
				bestCh, bestW = ch, w
			}
			plan.Readers = plan.Readers[:len(plan.Readers)-1]
			plan.Channels = plan.Channels[:len(plan.Channels)-1]
		}
		if bestCh >= 0 {
			plan.Readers = append(plan.Readers, v)
			plan.Channels = append(plan.Channels, bestCh)
			chBits[bestCh][uint(v)>>6] |= 1 << (uint(v) & 63)
			curW = bestW
		}
	}
	return plan, nil
}

// RunMultiChannelMCS iterates OneShot until every coverable tag is read,
// returning the schedule length — directly comparable to RunMCS sizes.
func RunMultiChannelMCS(sys *model.System, m MultiChannel, maxSlots int) (int, error) {
	if maxSlots <= 0 {
		maxSlots = 100000
	}
	slots := 0
	for sys.UnreadCoverableCount() > 0 {
		if slots >= maxSlots {
			return slots, fmt.Errorf("core: multi-channel schedule incomplete after %d slots", slots)
		}
		plan, err := m.OneShot(sys)
		if err != nil {
			return slots, err
		}
		covered := sys.CoveredChanneled(plan.Readers, plan.Channels, nil)
		if len(covered) == 0 {
			// Same cross-overlap endgame as the single-channel driver:
			// fall back to the global greedy feasible set on channel 0.
			fb := greedyFallback(sys)
			ch := make([]int, len(fb))
			covered = sys.CoveredChanneled(fb, ch, nil)
		}
		for _, t := range covered {
			sys.MarkRead(int(t))
		}
		slots++
	}
	return slots, nil
}

// insertionSortBy sorts ints in place with a custom order; candidate lists
// are small enough that this beats sort.Slice overhead.
func insertionSortBy(a []int, less func(x, y int) bool) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && less(a[j], a[j-1]); j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}
