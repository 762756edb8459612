// Package httpx is the JSON-over-HTTP batch transport that
// backend/httpbatch (remote detector) and cachestore/httpcache (shared
// result tier) both speak. It owns everything about a batch crossing the
// wire that is not the protocol itself: transport defaults, per-endpoint
// admission control, the retry loop, the per-attempt request, bounded
// response reads, the wire form of a detection, and the handler-side body
// limit and buffered JSON write. Each protocol package keeps only its
// request/response shapes and what it checks in them.
//
// Retry discipline: transport errors and 5xx responses are retried up to
// Config.Retries times after a fixed backoff; 4xx responses, undecodable
// bodies and oversized bodies are terminal. A caller deadline that cannot
// outlive the backoff ends the call at once, and a cancellation during the
// backoff is terminal. Requests counts every attempt issued, Retries those
// beyond the first.
package httpx

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/exsample/exsample/backend"
)

// MaxRequestBytes bounds a request body a handler is willing to decode:
// far above any sane batch, far below anything that could pressure server
// memory.
const MaxRequestBytes = 8 << 20

// maxResponseBytes bounds a response body a client is willing to read. The
// largest legitimate response, an httpcache get of 256 keys at 1024
// detections each, is about 29 MB; a larger body comes from a broken or
// hostile endpoint and fails the call without a retry. It is a variable
// only so tests can lower it: streaming 64 MiB through every client under
// test costs hundreds of MB of test memory.
var maxResponseBytes int64 = 64 << 20

// Config is the transport half of a client's configuration; zero fields
// take the defaults documented on the public Config types.
type Config struct {
	HTTPClient    *http.Client
	Timeout       time.Duration
	Retries       int // -1 disables retries
	RetryBackoff  time.Duration
	MaxConcurrent int
}

// bufPool recycles the JSON buffers whose lifetimes are provably
// synchronous: client response reads and handler response encodes. Client
// request bodies are NOT pooled: net/http's transport may keep reading (or
// closing) the body reader from its own goroutine after Do returns, so no
// point in Do can prove the backing array free. Request bodies are small;
// the recycled buffers are the reads and encodes. Shared across clients
// and handlers: the buffers are opaque scratch, and a process typically
// runs many endpoint clients with identical traffic shapes.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Client runs JSON batch calls against one endpoint. It is safe for
// concurrent use.
type Client struct {
	name string // error prefix: the protocol package's name
	cfg  Config
	sem  chan struct{}

	requests, retries atomic.Int64
}

// New validates cfg, applies its defaults and builds a client whose errors
// carry the given prefix.
func New(name string, cfg Config) (*Client, error) {
	if cfg.Retries < -1 || cfg.MaxConcurrent < 0 || cfg.Timeout < 0 || cfg.RetryBackoff < 0 {
		return nil, fmt.Errorf("%s: negative Timeout, RetryBackoff or MaxConcurrent, or Retries below -1", name)
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{}
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 30 * time.Second
	}
	switch {
	case cfg.Retries == 0:
		cfg.Retries = 2
	case cfg.Retries < 0:
		cfg.Retries = 0
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	if cfg.MaxConcurrent == 0 {
		cfg.MaxConcurrent = 4
	}
	return &Client{name: name, cfg: cfg, sem: make(chan struct{}, cfg.MaxConcurrent)}, nil
}

// Counts returns the HTTP attempts issued (retries included) and the
// attempts beyond the first.
func (c *Client) Counts() (requests, retries int64) {
	return c.requests.Load(), c.retries.Load()
}

// Do POSTs req as JSON to url and decodes the 200 response into resp,
// under admission control and the retry discipline in the package doc.
func (c *Client) Do(ctx context.Context, url string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("%s: encode request: %w", c.name, err)
	}
	// Per-endpoint admission control: block until a slot frees up, but
	// never past a cancellation.
	select {
	case c.sem <- struct{}{}:
		defer func() { <-c.sem }()
	case <-ctx.Done():
		return ctx.Err()
	}
	for attempt := 0; ; attempt++ {
		c.requests.Add(1)
		if attempt > 0 {
			c.retries.Add(1)
		}
		retryable, err := c.attempt(ctx, url, body, resp)
		if err == nil || !retryable || attempt >= c.cfg.Retries || ctx.Err() != nil {
			return err
		}
		// A deadline that cannot outlive the backoff makes the retry a
		// guaranteed deadline failure: treat it as terminal now instead of
		// sleeping toward a doomed final attempt. errors.Is still matches
		// context.DeadlineExceeded, and the message keeps what the endpoint
		// actually returned.
		if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) <= c.cfg.RetryBackoff {
			return fmt.Errorf("%w before the retry backoff (last attempt: %v)", context.DeadlineExceeded, err)
		}
		select {
		case <-time.After(c.cfg.RetryBackoff):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// attempt issues one HTTP request, decoding the 200 body into resp.
// retryable reports whether a failure is worth retrying (transport errors
// and 5xx); ctx and the per-attempt timeout both bound the call.
func (c *Client) attempt(ctx context.Context, url string, body []byte, resp any) (retryable bool, err error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return false, fmt.Errorf("%s: build request: %w", c.name, err)
	}
	req.Header.Set("Content-Type", "application/json")
	httpResp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		// Attribute the failure to the caller's cancellation when that is
		// what aborted the attempt — the engine surfaces this through
		// QueryHandle.Wait as a context error.
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		return true, fmt.Errorf("%s: %w", c.name, err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 512))
		return httpResp.StatusCode >= 500, fmt.Errorf("%s: endpoint returned %s: %s", c.name, httpResp.Status, bytes.TrimSpace(msg))
	}
	// Read the body before decoding so a connection reset mid-body (after
	// a 200 status) stays a retryable transport failure; only a body that
	// arrived whole but does not parse is a terminal protocol error. The
	// read buffer is pooled — json.Unmarshal copies what resp keeps — but
	// one grown past the cap is dropped rather than kept alive in the pool.
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	n, err := buf.ReadFrom(io.LimitReader(httpResp.Body, maxResponseBytes+1))
	if n > maxResponseBytes {
		return false, fmt.Errorf("%s: response exceeds %d bytes", c.name, maxResponseBytes)
	}
	defer bufPool.Put(buf)
	if err != nil {
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		return true, fmt.Errorf("%s: read response: %w", c.name, err)
	}
	if err := json.Unmarshal(buf.Bytes(), resp); err != nil {
		return false, fmt.Errorf("%s: decode response: %w", c.name, err)
	}
	return false, nil
}

// Detection is the wire form of one detection, shared by both protocols so
// a cache entry round-trips exactly what a remote detector produced.
// encoding/json emits shortest-round-trip floats, so boxes and scores
// survive the wire bit-exactly.
type Detection struct {
	Frame   int64      `json:"frame"`
	Class   string     `json:"class"`
	Box     [4]float64 `json:"box"`
	Score   float64    `json:"score"`
	TruthID int        `json:"truth_id"`
}

// Encode converts detections to their wire form. The result is never nil,
// so a frame with nothing found encodes as [] rather than null.
func Encode(dets []backend.Detection) []Detection {
	out := make([]Detection, len(dets))
	for i, d := range dets {
		out[i] = Detection{
			Frame:   d.Frame,
			Class:   d.Class,
			Box:     [4]float64{d.Box.X1, d.Box.Y1, d.Box.X2, d.Box.Y2},
			Score:   d.Score,
			TruthID: d.TruthID,
		}
	}
	return out
}

// Decode converts wire detections back; an empty list decodes to nil.
func Decode(wire []Detection) []backend.Detection {
	if len(wire) == 0 {
		return nil
	}
	out := make([]backend.Detection, len(wire))
	for i, w := range wire {
		out[i] = backend.Detection{
			Frame:   w.Frame,
			Class:   w.Class,
			Box:     backend.Box{X1: w.Box[0], Y1: w.Box[1], X2: w.Box[2], Y2: w.Box[3]},
			Score:   w.Score,
			TruthID: w.TruthID,
		}
	}
	return out
}

// PostOnly serves POST requests with serve and answers any other method
// with 405.
func PostOnly(name string, serve http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, name+": POST only", http.StatusMethodNotAllowed)
			return
		}
		serve(w, r)
	})
}

// ReadJSON decodes r's body, bounded at MaxRequestBytes, into v. On
// failure it answers 400 and returns false.
func ReadJSON(name string, w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes)).Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("%s: bad request: %v", name, err), http.StatusBadRequest)
		return false
	}
	return true
}

// WriteJSON encodes v into a pooled buffer first, so the response hits the
// wire in one write and an encode failure can still surface as a 500
// instead of a half-written body.
func WriteJSON(name string, w http.ResponseWriter, v any) {
	out := bufPool.Get().(*bytes.Buffer)
	out.Reset()
	defer bufPool.Put(out)
	if err := json.NewEncoder(out).Encode(v); err != nil {
		http.Error(w, fmt.Sprintf("%s: encode response: %v", name, err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(out.Bytes())
}
