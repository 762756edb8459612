package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/backend/httpbatch"
	"github.com/exsample/exsample/backend/router"
	"github.com/exsample/exsample/cachestore"
)

// Span is one timed call across a layer boundary. Spans of one query
// share Query; Parent is the span that caused this one (0 for a root).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Query  int64  `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Work is the unit count the call carried: frames for detect and
	// httpbatch spans, keys for cache spans, frames processed for query
	// spans.
	Work int64 `json:"work,omitempty"`
}

func (s Span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// Span names, one per layer boundary the benchmark crosses.
const (
	spanQuery     = "query"     // Submit/SubmitTrack until the report is in hand
	spanDetect    = "detect"    // the dataset's backend.Backend (the router in fleet_remote)
	spanHTTPBatch = "httpbatch" // one replica's httpbatch.Client call
	spanReplica   = "replica"   // the replica server handling that call
	spanL2Get     = "l2.get"    // httpcache.Client GetBatch
	spanL2Put     = "l2.put"    // httpcache.Client PutBatch
)

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op and the wrappers are not
// installed at all.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// traceKey carries the enclosing (query, span) pair through a context.
type traceKey struct{}

type traceRef struct{ query, span int64 }

func refOf(ctx context.Context) traceRef {
	r, _ := ctx.Value(traceKey{}).(traceRef)
	return r
}

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t *tracer
	s Span
}

// begin starts a span named name as a child of the span ctx carries and
// returns a context that makes it the parent of nested calls.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, *openSpan) {
	if t == nil {
		return ctx, nil
	}
	ref := refOf(ctx)
	return t.beginWith(ctx, name, ref.query, ref.span)
}

// beginQuery starts a root span for query id.
func (t *tracer) beginQuery(ctx context.Context, id int64) (context.Context, *openSpan) {
	if t == nil {
		return ctx, nil
	}
	return t.beginWith(ctx, spanQuery, id, 0)
}

func (t *tracer) beginWith(ctx context.Context, name string, query, parent int64) (context.Context, *openSpan) {
	o := &openSpan{t: t, s: Span{
		ID:     t.ids.Add(1),
		Parent: parent,
		Query:  query,
		Name:   name,
		Start:  time.Since(t.epoch).Nanoseconds(),
	}}
	return context.WithValue(ctx, traceKey{}, traceRef{query: query, span: o.s.ID}), o
}

// end closes the span with its work count.
func (o *openSpan) end(work int64) {
	if o == nil {
		return
	}
	o.s.End = time.Since(o.t.epoch).Nanoseconds()
	o.s.Work = work
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// writeSpans writes the spans of timed queries (query != 0) as
// gzip-compressed JSON lines, one span per line. It returns how many it
// wrote.
func writeSpans(path string, spans []Span) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	n := 0
	for _, s := range spans {
		if s.Query == 0 {
			continue
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return n, fmt.Errorf("write spans: %w", err)
		}
		n++
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return n, fmt.Errorf("write spans: %w", err)
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return n, fmt.Errorf("write spans: %w", err)
	}
	return n, f.Close()
}

// tracedBackend records a detect span around every call into the
// dataset's backend. It implements exactly backend.Backend, the same
// method set as the simulated backend it wraps.
type tracedBackend struct {
	inner backend.Backend
	t     *tracer
}

func (b *tracedBackend) DetectBatch(ctx context.Context, class string, frames []int64) ([][]backend.Detection, error) {
	ctx, sp := b.t.begin(ctx, spanDetect)
	dets, err := b.inner.DetectBatch(ctx, class, frames)
	sp.end(int64(len(frames)))
	return dets, err
}

func (b *tracedBackend) Hints() backend.Hints { return b.inner.Hints() }

// tracedRouter records a detect span around every router call. Embedding
// keeps the router's whole method set (BatchCoster, the breaker and
// replica signals the adaptive sizer reads), so the engine sees the same
// capabilities as untraced.
type tracedRouter struct {
	*router.Router
	t *tracer
}

func (r *tracedRouter) DetectBatch(ctx context.Context, class string, frames []int64) ([][]backend.Detection, error) {
	dets, _, err := r.DetectBatchCost(ctx, class, frames)
	return dets, err
}

func (r *tracedRouter) DetectBatchCost(ctx context.Context, class string, frames []int64) ([][]backend.Detection, []float64, error) {
	ctx, sp := r.t.begin(ctx, spanDetect)
	dets, costs, err := r.Router.DetectBatchCost(ctx, class, frames)
	sp.end(int64(len(frames)))
	return dets, costs, err
}

// tracedReplica records an httpbatch span around one replica client call
// and counts the calls that fail after the client's own retries.
type tracedReplica struct {
	*httpbatch.Client
	t        *tracer
	failures *atomic.Int64
}

func (c *tracedReplica) DetectBatch(ctx context.Context, class string, frames []int64) ([][]backend.Detection, error) {
	dets, _, err := c.DetectBatchCost(ctx, class, frames)
	return dets, err
}

func (c *tracedReplica) DetectBatchCost(ctx context.Context, class string, frames []int64) ([][]backend.Detection, []float64, error) {
	ctx, sp := c.t.begin(ctx, spanHTTPBatch)
	dets, costs, err := c.Client.DetectBatchCost(ctx, class, frames)
	sp.end(int64(len(frames)))
	if err != nil {
		c.failures.Add(1)
	}
	return dets, costs, err
}

// tracedStore records l2.get and l2.put spans around the remote cache
// client.
type tracedStore struct {
	inner cachestore.Store
	t     *tracer
}

func (s *tracedStore) GetBatch(ctx context.Context, keys []cachestore.Key) ([]cachestore.Entry, error) {
	ctx, sp := s.t.begin(ctx, spanL2Get)
	got, err := s.inner.GetBatch(ctx, keys)
	sp.end(int64(len(keys)))
	return got, err
}

func (s *tracedStore) PutBatch(ctx context.Context, keys []cachestore.Key, vals [][]backend.Detection) error {
	ctx, sp := s.t.begin(ctx, spanL2Put)
	err := s.inner.PutBatch(ctx, keys, vals)
	sp.end(int64(len(keys)))
	return err
}

// Headers that carry the trace reference across the loopback hop.
const (
	headerQuery = "X-Bench-Query"
	headerSpan  = "X-Bench-Span"
)

// wireCounter is an http.RoundTripper that stamps the caller's trace
// reference on each request and counts the bytes each way.
type wireCounter struct {
	next               http.RoundTripper
	reqBytes, rspBytes atomic.Int64
}

func (w *wireCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	ref := refOf(req.Context())
	req = req.Clone(req.Context())
	req.Header.Set(headerQuery, strconv.FormatInt(ref.query, 10))
	req.Header.Set(headerSpan, strconv.FormatInt(ref.span, 10))
	if req.ContentLength > 0 {
		w.reqBytes.Add(req.ContentLength)
	}
	resp, err := w.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &w.rspBytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// tracedHandler records a replica span around a server-side handler,
// parented by the span the request's headers name.
func tracedHandler(t *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		query, _ := strconv.ParseInt(r.Header.Get(headerQuery), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(headerSpan), 10, 64)
		_, sp := t.beginWith(r.Context(), spanReplica, query, parent)
		h.ServeHTTP(w, r)
		sp.end(0)
	})
}

// spanIndex groups spans for the self-time rule.
type spanIndex struct {
	byName   map[string][]Span
	children map[int64][]Span
}

// indexSpans groups the spans of timed queries; spans outside any query
// (warmup, set-up) carry query 0 and are left out.
func indexSpans(spans []Span) spanIndex {
	ix := spanIndex{byName: map[string][]Span{}, children: map[int64][]Span{}}
	for _, s := range spans {
		if s.Query == 0 {
			continue
		}
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// selfSeconds is a span's duration minus the part of it covered by the
// union of its children named in childNames (all children when none are
// named).
func (ix spanIndex) selfSeconds(s Span, childNames ...string) float64 {
	var ivs []interval
	for _, c := range ix.children[s.ID] {
		if len(childNames) == 0 || slices.Contains(childNames, c.Name) {
			ivs = append(ivs, interval{c.Start, c.End})
		}
	}
	return float64(s.End-s.Start-coveredWithin(s.Start, s.End, ivs)) / 1e9
}

// sumSelf sums selfSeconds over every span named name and returns the
// total with the summed Work.
func (ix spanIndex) sumSelf(name string, childNames ...string) (self float64, work int64, n int) {
	for _, s := range ix.byName[name] {
		self += ix.selfSeconds(s, childNames...)
		work += s.Work
		n++
	}
	return self, work, n
}

// sumBusy sums the durations and Work of every span named name.
func (ix spanIndex) sumBusy(name string) (busy float64, work int64, n int) {
	for _, s := range ix.byName[name] {
		busy += s.seconds()
		work += s.Work
		n++
	}
	return busy, work, n
}

// durations lists the durations of every span named name, in seconds.
func (ix spanIndex) durations(name string) []float64 {
	var out []float64
	for _, s := range ix.byName[name] {
		out = append(out, s.seconds())
	}
	return out
}
