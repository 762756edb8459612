package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// goldenFeedback is a deterministic stand-in for the detector and
// discriminator: a frame yields a new object (d0) and a re-sighting (d1)
// with chunk-dependent probabilities, so some arms warm up (N1 > 0), some
// sit at the prior and some go negative (floored back to the prior).
func goldenFeedback(p Pick) (d0, d1 int) {
	x := uint64(p.Frame)*0x9e3779b97f4a7c15 ^ uint64(p.Chunk)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	rich := uint64(p.Chunk%5 + 1) // chunk richness 1..5
	if x%64 < rich*rich {
		d0 = 1
	}
	if (x>>8)%32 < rich {
		d1 = 1
	}
	return d0, d1
}

// TestGoldenPickSequences pins the Thompson pick sequence for priors on
// each side of the Gamma draw's shape boost: Alpha0 = 0.1 (boost with
// 1/alpha = 10), 0.5 (boost with 1/alpha = 2) and 2 (no boost). The hashes
// were recorded before the sampler drew prior arms through a precomputed
// xrand.GammaShape, so they prove that path identical to a plain
// RNG.Gamma draw beyond the default prior.
func TestGoldenPickSequences(t *testing.T) {
	const picks = 10000
	for _, tc := range []struct {
		alpha0 float64
		want   uint64
	}{
		{0.1, 0xec37886281b8825b},
		{0.5, 0xc78e2cf9ee0bd1f2},
		{2, 0x613b921fdc9ebb7e},
	} {
		s, err := New(mkChunks(t, 1<<16, 32), Config{Seed: 17, Alpha0: tc.alpha0})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [16]byte
		for i := 0; i < picks; i++ {
			p, ok := s.Next()
			if !ok {
				t.Fatalf("alpha0=%v: sampler exhausted after %d picks", tc.alpha0, i)
			}
			binary.LittleEndian.PutUint64(buf[:8], uint64(p.Frame))
			binary.LittleEndian.PutUint64(buf[8:], uint64(p.Chunk))
			h.Write(buf[:])
			d0, d1 := goldenFeedback(p)
			if err := s.Update(p.Chunk, d0, d1); err != nil {
				t.Fatal(err)
			}
		}
		warm, prior := 0, 0
		for j := 0; j < s.NumChunks(); j++ {
			if n1, _ := s.Stats(j); n1 > 0 {
				warm++
			} else {
				prior++
			}
		}
		if warm == 0 || prior == 0 {
			t.Fatalf("alpha0=%v: %d warm and %d prior arms, want both paths exercised", tc.alpha0, warm, prior)
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("alpha0=%v: pick-sequence hash %#x, want %#x", tc.alpha0, got, tc.want)
		}
	}
}
