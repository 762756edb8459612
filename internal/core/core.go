// Package core implements the paper's primary contribution: the ExSample
// chunk-based adaptive sampler (Algorithm 1).
//
// The repository is partitioned into M chunks. For each chunk j the sampler
// tracks n[j], the number of frames sampled from the chunk, and N1[j], the
// (signed) count of result objects currently seen exactly once whose
// sightings bookkeeping is charged to the chunk. The estimate of the number
// of new results the next sample from chunk j will produce is
//
//	R̂_j = N1[j] / n[j]                            (Eq. III.1)
//
// and the belief distribution accounting for estimate uncertainty is
//
//	R_j ~ Gamma(alpha = N1[j]+α0, beta = n[j]+β0)  (Eq. III.4)
//
// Thompson sampling draws one value from each chunk's belief and samples a
// frame from the arg-max chunk; the (α0, β0) prior keeps the belief
// well-defined when N1 = 0 and lets chunks recover from early bad luck.
package core

import (
	"fmt"

	"github.com/exsample/exsample/internal/stats"
	"github.com/exsample/exsample/internal/video"
	"github.com/exsample/exsample/internal/xrand"
)

// Policy selects how chunk scores are derived from the per-chunk beliefs.
type Policy int

const (
	// Thompson draws a random sample from each chunk's Gamma belief
	// (Eq. III.4) and picks the arg max. This is the paper's method.
	Thompson Policy = iota
	// BayesUCB scores each chunk by an upper quantile of its Gamma belief,
	// the alternative the paper reports behaves indistinguishably (§III-C).
	BayesUCB
	// Greedy uses the raw point estimate N1/n with random tie-breaking. The
	// paper warns this gets stuck on early lucky chunks (§III-B); it exists
	// for the ablation benchmarks.
	Greedy
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case Thompson:
		return "thompson"
	case BayesUCB:
		return "bayes-ucb"
	case Greedy:
		return "greedy"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// WithinChunk selects the without-replacement frame order inside a chunk.
type WithinChunk int

const (
	// WithinRandomPlus stratifies samples inside the chunk (random+,
	// §III-F), the paper's default for ExSample.
	WithinRandomPlus WithinChunk = iota
	// WithinUniform samples uniformly without replacement.
	WithinUniform
	// WithinScored orders frames inside a chunk by a caller-provided score
	// (descending). §VII notes the chunk estimates remain valid under
	// non-uniform within-chunk sampling; this is the building block of the
	// ExSample+proxy fusion, which scores only the chunks actually visited
	// instead of scanning the whole dataset. Requires Config.Scorer.
	WithinScored
)

// String returns the order name.
func (w WithinChunk) String() string {
	switch w {
	case WithinRandomPlus:
		return "random+"
	case WithinUniform:
		return "uniform"
	case WithinScored:
		return "scored"
	default:
		return fmt.Sprintf("within(%d)", int(w))
	}
}

// Config parameterizes a Sampler.
type Config struct {
	// Alpha0 and Beta0 are the belief prior (Eq. III.4). The paper uses
	// α0 = 0.1 and β0 = 1 and reports weak sensitivity to the choice.
	// Zero values select those defaults.
	Alpha0 float64
	Beta0  float64
	// Policy is the chunk-selection policy (default Thompson).
	Policy Policy
	// Within is the frame order inside a chunk (default random+).
	Within WithinChunk
	// Seed drives all sampler randomness; runs with the same seed, chunks
	// and update sequence are identical.
	Seed uint64
	// Scorer supplies per-frame scores for WithinScored; it is consulted
	// lazily, once per frame of each chunk that is actually sampled. It
	// must be nil for other within-chunk orders.
	Scorer func(frame int64) float64
	// OnChunkOpen, if set, is called the first time a chunk's frame order
	// is built (e.g. to charge per-chunk scoring cost in a fusion setup).
	OnChunkOpen func(chunk int)
	// CachedFrac, if set, enables cache-aware tie-breaking: when the
	// policy's top scores tie within TieEpsilon, Next prefers the chunk
	// with the higher CachedFrac(chunk) — the fraction of the chunk's
	// frames already resident in a result cache, where sampling is
	// near-free. The function must be cheap (it is consulted only on
	// ties) and side-effect-free. Crucially the tie-break consumes no
	// randomness: every enabled arm's score is drawn exactly as without
	// it, so a sampler with CachedFrac set but no ties — or one whose
	// cached fractions are all equal — picks byte-identically to one
	// without.
	CachedFrac func(chunk int) float64
	// TieEpsilon is the relative tie width for CachedFrac: scores a and b
	// tie when hi-lo <= TieEpsilon*hi. Zero selects DefaultTieEpsilon;
	// it must be left zero when CachedFrac is nil.
	TieEpsilon float64
}

// DefaultAlpha0 and DefaultBeta0 are the paper's prior (§III-C).
const (
	DefaultAlpha0 = 0.1
	DefaultBeta0  = 1.0
)

// DefaultTieEpsilon is the default relative tie width for cache-aware
// tie-breaking: 5% — wide enough that near-identical beliefs (where the
// policy's choice is effectively arbitrary) defer to the cache signal,
// narrow enough that a genuinely better arm is never overridden.
const DefaultTieEpsilon = 0.05

func (c Config) withDefaults() Config {
	if c.Alpha0 == 0 {
		c.Alpha0 = DefaultAlpha0
	}
	if c.Beta0 == 0 {
		c.Beta0 = DefaultBeta0
	}
	if c.CachedFrac != nil && c.TieEpsilon == 0 {
		c.TieEpsilon = DefaultTieEpsilon
	}
	return c
}

// Validate reports an error for out-of-range parameters.
func (c Config) Validate() error {
	if c.Alpha0 < 0 || c.Beta0 < 0 {
		return fmt.Errorf("core: negative prior (alpha0=%v beta0=%v)", c.Alpha0, c.Beta0)
	}
	switch c.Policy {
	case Thompson, BayesUCB, Greedy:
	default:
		return fmt.Errorf("core: unknown policy %d", int(c.Policy))
	}
	if c.TieEpsilon < 0 || c.TieEpsilon >= 1 {
		return fmt.Errorf("core: TieEpsilon %v outside [0, 1)", c.TieEpsilon)
	}
	if c.TieEpsilon != 0 && c.CachedFrac == nil {
		return fmt.Errorf("core: TieEpsilon set but CachedFrac is nil")
	}
	switch c.Within {
	case WithinRandomPlus, WithinUniform:
		if c.Scorer != nil {
			return fmt.Errorf("core: Scorer set but within-chunk order is %v", c.Within)
		}
	case WithinScored:
		if c.Scorer == nil {
			return fmt.Errorf("core: WithinScored requires a Scorer")
		}
	default:
		return fmt.Errorf("core: unknown within-chunk order %d", int(c.Within))
	}
	return nil
}

// Pick is one sampling decision: the frame to process and the chunk it was
// drawn from. Updates must be reported against the same chunk.
type Pick struct {
	Frame int64
	Chunk int
}

// Sampler is the ExSample decision loop state. It owns which frame to look
// at next; the caller owns running the detector and discriminator and must
// feed the resulting (d0, d1) sizes back via Update.
type Sampler struct {
	cfg    Config
	chunks []video.Chunk
	orders []video.FrameOrder
	n1     []int64
	n      []int64
	// disabled marks arms fenced by an elastic topology change (a draining
	// shard's chunks): Next never scores or draws from them — crucially,
	// skipping happens before the policy's RNG draw, so a disabled arm
	// consumes no randomness and the remaining arms' pick sequence is
	// exactly what it would be if the arm had never existed. Update and
	// Adjust still accept disabled arms, so in-flight picks apply cleanly.
	disabled []bool
	total    int64 // total frames sampled across chunks
	live     int   // chunks with frames remaining
	rng      *xrand.RNG
	// prior is the Gamma(α0, 1) sampler with its shape constants hoisted:
	// every arm with N1 <= 0 sits exactly at the prior, so most Thompson
	// draws share this one shape.
	prior xrand.GammaShape
	// rpSlab backs lazily opened random+ orders in blocks, so the cold
	// chunk opens of a many-armed sampler amortize to ~1 allocation per
	// slab instead of several per chunk.
	rpSlab []video.RandomPlusOrder
}

// rpSlabSize is the random+ order slab block size; 64 keeps a block around
// 16 KiB while amortizing the cold-open allocation well below one per
// decision.
const rpSlabSize = 64

// New creates a sampler over the given chunks. Chunks must be non-empty and
// non-overlapping; they are the sampler's arms.
func New(chunks []video.Chunk, cfg Config) (*Sampler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if len(chunks) == 0 {
		return nil, fmt.Errorf("core: no chunks")
	}
	for i, c := range chunks {
		if c.Len() <= 0 {
			return nil, fmt.Errorf("core: chunk %d is empty", i)
		}
	}
	s := &Sampler{
		cfg:      cfg,
		chunks:   append([]video.Chunk(nil), chunks...),
		orders:   make([]video.FrameOrder, len(chunks)),
		n1:       make([]int64, len(chunks)),
		n:        make([]int64, len(chunks)),
		disabled: make([]bool, len(chunks)),
		live:     len(chunks),
		rng:      xrand.New(cfg.Seed),
		prior:    xrand.NewGammaShape(cfg.Alpha0),
	}
	return s, nil
}

// Append adds new arms for chunks that joined the repository after the
// sampler was built (an elastic shard attach). New arms start at the belief
// prior, exactly as if they had been present from the start with no
// samples; existing arms' statistics, frame orders and — because each
// chunk's within-chunk order derives from (Seed, chunk id), not the shared
// policy RNG — their future frame draws are unaffected. Chunk ids continue
// the existing numbering: the i-th appended chunk becomes arm
// NumChunks()+i, so callers indexing arms by global chunk id stay aligned.
func (s *Sampler) Append(chunks []video.Chunk) error {
	for i, c := range chunks {
		if c.Len() <= 0 {
			return fmt.Errorf("core: appended chunk %d is empty", i)
		}
	}
	s.chunks = append(s.chunks, chunks...)
	s.orders = append(s.orders, make([]video.FrameOrder, len(chunks))...)
	s.n1 = append(s.n1, make([]int64, len(chunks))...)
	s.n = append(s.n, make([]int64, len(chunks))...)
	s.disabled = append(s.disabled, make([]bool, len(chunks))...)
	s.live += len(chunks)
	return nil
}

// SetEnabled fences or re-admits an arm. A disabled arm is invisible to
// Next — not scored (so it consumes no policy randomness) and never drawn
// from — but keeps its statistics and continues to accept Update/Adjust
// for picks already in flight. This is the sampler half of draining a
// shard: the shard's chunks are fenced while the belief state of every
// other chunk carries on untouched.
func (s *Sampler) SetEnabled(chunk int, enabled bool) error {
	if chunk < 0 || chunk >= len(s.chunks) {
		return fmt.Errorf("core: chunk %d out of range [0, %d)", chunk, len(s.chunks))
	}
	s.disabled[chunk] = !enabled
	return nil
}

// Enabled reports whether an arm is currently pickable.
func (s *Sampler) Enabled(chunk int) bool { return !s.disabled[chunk] }

// order lazily builds the within-chunk frame order for chunk j.
func (s *Sampler) order(j int) (video.FrameOrder, error) {
	if s.orders[j] != nil {
		return s.orders[j], nil
	}
	c := s.chunks[j]
	var (
		o   video.FrameOrder
		err error
	)
	switch s.cfg.Within {
	case WithinUniform:
		o, err = video.NewUniformOrder(c.Start, c.End, xrand.NewFrom(s.cfg.Seed, uint64(j)+1))
	case WithinScored:
		o, err = video.NewScoredOrder(c.Start, c.End, s.cfg.Scorer)
	default:
		// Random+ (the default) opens in place into the order slab: the
		// (Seed, chunk id) stream derivation is identical to handing
		// NewRandomPlusOrder a fresh xrand.NewFrom generator, but the open
		// itself is amortized allocation-free.
		if len(s.rpSlab) == 0 {
			s.rpSlab = make([]video.RandomPlusOrder, rpSlabSize)
		}
		rp := &s.rpSlab[0]
		s.rpSlab = s.rpSlab[1:]
		err = rp.Init(c.Start, c.End, 0, s.cfg.Seed, uint64(j)+1)
		o = rp
	}
	if err != nil {
		return nil, err
	}
	if s.cfg.OnChunkOpen != nil {
		s.cfg.OnChunkOpen(j)
	}
	s.orders[j] = o
	return o, nil
}

// alphaBeta returns the belief parameters for chunk j. Per-chunk N1 can go
// negative when an object discovered in one chunk is re-sighted from
// another (the -1 of the update lands on the re-sighting chunk), so alpha is
// floored at the prior to keep the Gamma well-defined; the technical report
// describes the same adjustment for instances spanning chunks.
func (s *Sampler) alphaBeta(j int) (alpha, beta float64) {
	alpha = float64(s.n1[j]) + s.cfg.Alpha0
	if alpha < s.cfg.Alpha0 {
		alpha = s.cfg.Alpha0
	}
	if alpha <= 0 {
		alpha = 1e-9 // alpha0 = 0 with no positive results yet
	}
	beta = float64(s.n[j]) + s.cfg.Beta0
	if beta <= 0 {
		beta = 1e-9
	}
	return alpha, beta
}

// score computes the chunk's selection score under the configured policy.
func (s *Sampler) score(j int) float64 {
	alpha, beta := s.alphaBeta(j)
	switch s.cfg.Policy {
	case BayesUCB:
		// Quantile level 1 - 1/(t+1) grows with total samples t, the
		// schedule from Kaufmann's Bayes-UCB (§III-C reference [18]).
		level := 1 - 1/float64(s.total+2)
		q, err := stats.GammaQuantile(level, alpha, beta)
		if err != nil {
			// Extremely defensive: fall back to the mean.
			return alpha / beta
		}
		return q
	case Greedy:
		// Point estimate with vanishing random tie-break so identical
		// estimates (e.g. at start) don't collapse onto chunk 0.
		return alpha/beta + 1e-12*s.rng.Float64()
	default:
		if alpha == s.cfg.Alpha0 {
			// Same value and randomness as rng.Gamma(alpha, beta).
			return s.prior.Draw(s.rng) / beta
		}
		return s.rng.Gamma(alpha, beta)
	}
}

// Next returns the next frame to process: the Thompson (or alternative
// policy) choice of chunk, and a frame drawn from that chunk's
// without-replacement order. Disabled arms are skipped without being
// scored. ok is false when every enabled chunk is exhausted.
//
// With Config.CachedFrac set, arms whose scores tie within TieEpsilon are
// broken toward the higher cached fraction (equal fractions keep the higher
// score). Every enabled arm's score is still drawn, in the same order, so
// the RNG stream is identical with and without the tie-break.
func (s *Sampler) Next() (Pick, bool) {
	for s.live > 0 {
		best, bestScore := -1, 0.0
		bestFrac := -1.0 // best's cached fraction, computed lazily on first tie
		for j := range s.chunks {
			if s.disabled[j] {
				continue
			}
			if s.orders[j] != nil && s.orders[j].Remaining() == 0 {
				continue
			}
			sc := s.score(j)
			if best == -1 {
				best, bestScore = j, sc
				continue
			}
			if s.cfg.CachedFrac != nil && tied(sc, bestScore, s.cfg.TieEpsilon) {
				if bestFrac < 0 {
					bestFrac = s.cfg.CachedFrac(best)
				}
				f := s.cfg.CachedFrac(j)
				if f > bestFrac || (f == bestFrac && sc > bestScore) {
					best, bestScore, bestFrac = j, sc, f
				}
				continue
			}
			if sc > bestScore {
				best, bestScore, bestFrac = j, sc, -1
			}
		}
		if best == -1 {
			return Pick{}, false
		}
		o, err := s.order(best)
		if err != nil {
			return Pick{}, false
		}
		frame, ok := o.Next()
		if !ok {
			// Chunk exhausted between the score pass and the draw.
			s.live--
			continue
		}
		if o.Remaining() == 0 {
			s.live--
		}
		return Pick{Frame: frame, Chunk: best}, true
	}
	return Pick{}, false
}

// tied reports whether two policy scores fall within the relative tie
// width: hi-lo <= eps*hi.
func tied(a, b, eps float64) bool {
	hi, lo := a, b
	if hi < lo {
		hi, lo = lo, hi
	}
	return hi-lo <= eps*hi
}

// Update feeds back the discriminator's classification of the detections
// found in a frame sampled from the given chunk: d0 = detections that
// matched no previous result (new objects), d1 = detections whose object had
// been seen exactly once before (Algorithm 1, lines 11–12).
func (s *Sampler) Update(chunk int, d0, d1 int) error {
	if chunk < 0 || chunk >= len(s.chunks) {
		return fmt.Errorf("core: chunk %d out of range [0, %d)", chunk, len(s.chunks))
	}
	if d0 < 0 || d1 < 0 {
		return fmt.Errorf("core: negative counts d0=%d d1=%d", d0, d1)
	}
	s.n1[chunk] += int64(d0) - int64(d1)
	s.n[chunk]++
	s.total++
	return nil
}

// Adjust applies a raw N1 delta to a chunk without counting a sample. It
// implements the technical report's cross-chunk accounting: when an object
// discovered from chunk A is re-sighted while sampling chunk B, the -1 of
// the "seen exactly once" bookkeeping belongs to A (where the object's +1
// lives), not to B. Callers using this pass d1 as per-home-chunk deltas and
// report Update(chunk, d0, 0) for the sampled chunk.
func (s *Sampler) Adjust(chunk int, delta int64) error {
	if chunk < 0 || chunk >= len(s.chunks) {
		return fmt.Errorf("core: chunk %d out of range [0, %d)", chunk, len(s.chunks))
	}
	s.n1[chunk] += delta
	return nil
}

// Stats returns chunk j's current (N1, n).
func (s *Sampler) Stats(j int) (n1, n int64) { return s.n1[j], s.n[j] }

// PointEstimate returns the prior-smoothed point estimate
// (N1+α0)/(n+β0) for chunk j.
func (s *Sampler) PointEstimate(j int) float64 {
	alpha, beta := s.alphaBeta(j)
	return alpha / beta
}

// MaxPointEstimate returns the largest prior-smoothed point estimate
// (N1+α0)/(n+β0) across arms the sampler can still draw from — enabled
// chunks with frames remaining (an unopened chunk counts as having frames,
// matching Next). Because the next pick comes from the arg-max belief, this
// is the sampler's expected new results from its next frame: the marginal
// value a cross-query scheduler compares when dividing a global detector
// budget. A fresh or just-woken sampler reports the prior α0/β0; an
// exhausted one reports 0. Allocation-free.
func (s *Sampler) MaxPointEstimate() float64 {
	best := 0.0
	for j := range s.chunks {
		if s.disabled[j] {
			continue
		}
		if s.orders[j] != nil && s.orders[j].Remaining() == 0 {
			continue
		}
		if e := s.PointEstimate(j); e > best {
			best = e
		}
	}
	return best
}

// TotalSamples returns the number of frames sampled so far.
func (s *Sampler) TotalSamples() int64 { return s.total }

// NumChunks returns the number of arms.
func (s *Sampler) NumChunks() int { return len(s.chunks) }

// Chunks returns the chunk layout (copy-on-construction slice; do not
// mutate).
func (s *Sampler) Chunks() []video.Chunk { return s.chunks }

// Allocation returns the fraction of samples taken from each chunk, the
// de-facto weight vector the sampler has converged to (§IV-A). It
// allocates a fresh slice per call; decision-loop callers that poll it per
// round should use AllocationInto with a reused buffer instead.
func (s *Sampler) Allocation() []float64 {
	return s.AllocationInto(nil)
}

// AllocationInto is Allocation writing into dst, growing it only when its
// capacity is short — the reusable-scores-buffer shape the steady-state
// engine uses so per-round stats polling stays allocation-free.
func (s *Sampler) AllocationInto(dst []float64) []float64 {
	if cap(dst) < len(s.n) {
		dst = make([]float64, len(s.n))
	}
	dst = dst[:len(s.n)]
	if s.total == 0 {
		for j := range dst {
			dst[j] = 0
		}
		return dst
	}
	for j, nj := range s.n {
		dst[j] = float64(nj) / float64(s.total)
	}
	return dst
}
