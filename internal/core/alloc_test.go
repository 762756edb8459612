package core

import (
	"testing"

	"github.com/exsample/exsample/internal/video"
)

// warmSampler builds a sampler and samples until every chunk's
// within-chunk order has been opened (first visit builds it lazily), so a
// subsequent allocation measurement sees only the steady-state decision
// loop.
func warmSampler(t *testing.T, nChunks int, policy Policy) *Sampler {
	t.Helper()
	chunks, err := video.SplitRange(0, int64(nChunks)*4096, nChunks)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(chunks, Config{Seed: 7, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	opened := 0
	seen := make([]bool, nChunks)
	for opened < nChunks {
		p, ok := s.Next()
		if !ok {
			t.Fatal("sampler exhausted during warmup")
		}
		if !seen[p.Chunk] {
			seen[p.Chunk] = true
			opened++
		}
		if err := s.Update(p.Chunk, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestSamplerDecisionAllocFree: one steady-state Thompson decision —
// score every chunk's Gamma belief, draw a frame, feed the update back —
// allocates nothing. This is the §III-F premise (sampling overhead must be
// negligible next to detector inference) expressed as a regression guard.
func TestSamplerDecisionAllocFree(t *testing.T) {
	s := warmSampler(t, 64, Thompson)
	allocs := testing.AllocsPerRun(200, func() {
		p, ok := s.Next()
		if !ok {
			t.Fatal("sampler exhausted")
		}
		if err := s.Update(p.Chunk, 1, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("Thompson decision allocates %.2f objects/decision, want 0", allocs)
	}
}

// TestSamplerDecisionAllocFreeMixedArms covers both Thompson draw paths at
// once: half the arms are warm (N1 > 0, drawn through RNG.Gamma) and half
// sit at the prior (drawn through the precomputed prior GammaShape — the
// only path TestSamplerDecisionAllocFree's zero-N1 updates exercise).
func TestSamplerDecisionAllocFreeMixedArms(t *testing.T) {
	s := warmSampler(t, 64, Thompson)
	for j := 0; j < s.NumChunks(); j += 2 {
		if err := s.Adjust(j, 3); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		p, ok := s.Next()
		if !ok {
			t.Fatal("sampler exhausted")
		}
		if err := s.Update(p.Chunk, 1, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("mixed warm/prior Thompson decision allocates %.2f objects/decision, want 0", allocs)
	}
}

// TestSamplerDecisionAllocFreeGreedy: the greedy ablation policy shares
// the same budget.
func TestSamplerDecisionAllocFreeGreedy(t *testing.T) {
	s := warmSampler(t, 64, Greedy)
	allocs := testing.AllocsPerRun(200, func() {
		p, ok := s.Next()
		if !ok {
			t.Fatal("sampler exhausted")
		}
		if err := s.Update(p.Chunk, 0, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("greedy decision allocates %.2f objects/decision, want 0", allocs)
	}
}

// TestAllocationInto reuses the caller's buffer and matches Allocation.
func TestAllocationInto(t *testing.T) {
	s := warmSampler(t, 8, Thompson)
	buf := make([]float64, 0, 8)
	got := s.AllocationInto(buf)
	want := s.Allocation()
	if len(got) != len(want) {
		t.Fatalf("AllocationInto length %d, want %d", len(got), len(want))
	}
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("AllocationInto[%d] = %v, want %v", j, got[j], want[j])
		}
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("AllocationInto did not reuse the caller's buffer")
	}
	allocs := testing.AllocsPerRun(100, func() { got = s.AllocationInto(got) })
	if allocs > 0 {
		t.Fatalf("AllocationInto with a warm buffer allocates %.2f objects/call, want 0", allocs)
	}
}

// TestSamplerColdOpenAllocs pins the first-visit path the warmed guards
// above skip: a decision that lazily opens a chunk's frame order. Before
// the order slab + in-place generator seeding, every cold open cost ~6
// allocations (generator, order struct, bitset, pending queue), which is
// exactly the drift BENCH_engine.json's sampler_decision_256 row recorded
// at ~4.5 allocs/frame on a 8192-arm sampler. Small chunks (<= 256 frames)
// now open into slab + inline storage, so 256 cold decisions amortize to
// well under one allocation each.
func TestSamplerColdOpenAllocs(t *testing.T) {
	chunks, err := video.SplitRange(0, 512*128, 512)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(chunks, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// No warm-up: most of these decisions hit never-visited chunks.
	allocs := testing.AllocsPerRun(256, func() {
		p, ok := s.Next()
		if !ok {
			t.Fatal("sampler exhausted")
		}
		if err := s.Update(p.Chunk, 0, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.25 {
		t.Fatalf("cold-open decision allocates %.3f objects/decision, want <= 0.25 (slab-amortized)", allocs)
	}
}

// TestMaxPointEstimateAllocFree: the marginal-value read the global budget
// scheduler polls once per round must allocate nothing.
func TestMaxPointEstimateAllocFree(t *testing.T) {
	s := warmSampler(t, 64, Thompson)
	var sink float64
	allocs := testing.AllocsPerRun(200, func() { sink += s.MaxPointEstimate() })
	if allocs > 0 {
		t.Fatalf("MaxPointEstimate allocates %.2f objects/call, want 0", allocs)
	}
	_ = sink
}
