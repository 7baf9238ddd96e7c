package sim

import (
	"math"
	"testing"

	"gpuscout/internal/gpu"
)

// TestQueueRingZeroAlloc locks in the allocation-free behavior of the
// queueRing hot path: once the backing slice has grown to the queue's
// peak pending count, push, admit and inflight must not touch the heap
// again, however often the ring drains and refills.
func TestQueueRingZeroAlloc(t *testing.T) {
	q := &queueRing{}
	fill := func() {
		// Drain everything pending, then refill in reverse order so every
		// push after the first inserts ahead of the tail.
		if got := q.inflight(math.Inf(1)); got != 0 {
			t.Fatalf("inflight(+Inf) = %d, want 0", got)
		}
		for i := 63; i >= 0; i-- {
			q.push(float64(100 + i))
		}
	}

	// Warm-up: grow the backing slice to steady-state capacity.
	fill()
	q.admit(0, 32)

	allocs := testing.AllocsPerRun(100, func() {
		fill()
		if got := q.inflight(0); got != 64 {
			t.Fatalf("inflight = %d, want 64", got)
		}
		// Queue full beyond capacity 32: admission waits for the 33rd
		// soonest completion, t=132.
		if got := q.admit(0, 32); got != 132 {
			t.Fatalf("admit = %v, want 132", got)
		}
	})
	if allocs != 0 {
		t.Errorf("warm push/admit/inflight allocated %v times per run, want 0", allocs)
	}
}

// TestLaunchAllocsBounded asserts that a full Launch of a small workload
// stays under a fixed allocation budget. The remaining allocations are
// launch setup — per-SM arena backing slices, the engine's precomputed
// tables, counter maps materialized once at the end of a run — not
// per-cycle or per-instruction churn; the budget is far below the tens of
// thousands of allocations the pre-arena simulator performed for the same
// workload, and holding it constant keeps per-warp state and counters from
// quietly migrating back onto the hot path.
func TestLaunchAllocsBounded(t *testing.T) {
	k := vecAddKernel(t)
	dev := NewDevice(gpu.V100())
	const n = 1024
	a := dev.MustAlloc(4 * n)
	b := dev.MustAlloc(4 * n)
	c := dev.MustAlloc(4 * n)
	spec := LaunchSpec{
		Kernel: k,
		Grid:   D1(n / 128),
		Block:  D1(128),
		Params: []uint64{a.Addr, b.Addr, c.Addr, n},
	}
	cfg := Config{SampleSMs: 1, Workers: 1}
	launch := func() {
		if _, err := Launch(dev, spec, cfg); err != nil {
			t.Fatalf("Launch: %v", err)
		}
	}

	launch() // warm-up: device memory pages and pool state settle

	allocs := testing.AllocsPerRun(5, launch)
	// Measured ~165 allocs per warm Launch for this workload; the bound
	// leaves slack for toolchain variation while still catching any
	// reintroduction of per-warp or per-instruction heap traffic.
	const maxAllocs = 300
	if allocs > maxAllocs {
		t.Errorf("warm Launch allocated %v times per run, want <= %d", allocs, maxAllocs)
	}
	t.Logf("warm Launch: %.0f allocs per run", allocs)
}
