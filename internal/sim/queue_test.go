package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refQueue is the original O(n) queueRing, kept as the oracle for the
// sorted head-indexed ring: an unordered slice that inflight compacts in
// place, with admit finding its order statistic by quickselect over a
// scratch copy.
type refQueue struct {
	times   []float64
	scratch []float64
}

func (q *refQueue) push(t float64) { q.times = append(q.times, t) }

func (q *refQueue) inflight(now float64) int {
	n := 0
	for _, t := range q.times {
		if t > now {
			q.times[n] = t
			n++
		}
	}
	q.times = q.times[:n]
	return n
}

func (q *refQueue) earliest() float64 {
	e := math.Inf(1)
	for _, t := range q.times {
		if t < e {
			e = t
		}
	}
	return e
}

func (q *refQueue) admit(now float64, capacity int) float64 {
	n := q.inflight(now)
	if n < capacity {
		return now
	}
	need := n - capacity + 1
	q.scratch = append(q.scratch[:0], q.times...)
	return kthSmallest(q.scratch, need-1)
}

// kthSmallest returns the k-th smallest value (0-based) of a, partially
// reordering it in place (Hoare-partition quickselect, median-of-three
// pivot).
func kthSmallest(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[lo]
}

// TestQueueRingMatchesOracle drives the ring and the O(n) oracle with the
// same seeded random operation sequences and requires identical results
// from every operation, plus an identical pending multiset after each
// one. Completion times are drawn from a coarse grid so ties are common;
// pushes land behind, among and ahead of pending entries; now jumps,
// repeats and steps backwards; and the queue regularly drains to empty
// and compacts its head.
func TestQueueRingMatchesOracle(t *testing.T) {
	var drains, compactions int
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q, ref := &queueRing{}, &refQueue{}
		now := 0.0
		for step := 0; step < 2000; step++ {
			switch r := rng.Intn(100); {
			case r < 45: // push: mostly near-in-order, sometimes far behind
				lat := float64(rng.Intn(40))
				if rng.Intn(8) == 0 {
					lat = -float64(rng.Intn(20))
				}
				q.push(now + lat)
				ref.push(now + lat)
			case r < 65:
				headBefore := q.head
				got, want := q.inflight(now), ref.inflight(now)
				if got != want {
					t.Fatalf("seed %d step %d: inflight(%v) = %d, oracle %d", seed, step, now, got, want)
				}
				if got == 0 {
					drains++
				} else if q.head < headBefore {
					compactions++
				}
			case r < 75:
				if got, want := q.earliest(), ref.earliest(); got != want {
					t.Fatalf("seed %d step %d: earliest = %v, oracle %v", seed, step, got, want)
				}
			default:
				capacity := 1 + rng.Intn(64)
				if got, want := q.admit(now, capacity), ref.admit(now, capacity); got != want {
					t.Fatalf("seed %d step %d: admit(%v, %d) = %v, oracle %v", seed, step, now, capacity, got, want)
				}
			}
			pending := slices.Clone(ref.times)
			slices.Sort(pending)
			if !slices.Equal(q.times[q.head:], pending) {
				t.Fatalf("seed %d step %d: pending %v, oracle %v", seed, step, q.times[q.head:], pending)
			}
			switch r := rng.Intn(100); {
			case r < 50: // small step forward
				now += float64(rng.Intn(3))
			case r < 60: // repeat
			case r < 75: // step backwards
				now -= float64(1 + rng.Intn(10))
			case r < 90: // jump ahead
				now += float64(rng.Intn(60))
			default: // jump past everything pending: drain to empty
				now += 100
			}
		}
	}
	if drains == 0 || compactions == 0 {
		t.Fatalf("sequences never exercised drain (%d) or head compaction (%d)", drains, compactions)
	}
}

// BenchmarkQueueAdmit times one MSHR admission plus one push against a
// ring holding about depth pending entries. Completions alternate between
// two latencies, so pushes are nearly but not strictly in order, as in
// the simulator. Cost per op should not grow with depth.
func BenchmarkQueueAdmit(b *testing.B) {
	for _, depth := range []int{32, 1024, 65536} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			q := &queueRing{}
			lat := func(i int) float64 { return float64(depth - 8*(i%2)) }
			for i := 0; i < depth; i++ {
				q.push(float64(i) + lat(i))
			}
			now := float64(depth)
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += q.admit(now, 32)
				q.push(now + lat(i))
				now++
			}
			if sink == 0 {
				b.Fatal("admit never ran")
			}
		})
	}
}
