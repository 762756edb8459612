package httpx_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/backend/httpbatch"
	"github.com/exsample/exsample/cachestore"
	"github.com/exsample/exsample/cachestore/httpcache"
	"github.com/exsample/exsample/internal/httpx"
)

// detector is a deterministic in-memory backend: every frame has nothing.
type detector struct{}

func (detector) DetectBatch(_ context.Context, _ string, frames []int64) ([][]backend.Detection, error) {
	return make([][]backend.Detection, len(frames)), nil
}

func (detector) Hints() backend.Hints { return backend.Hints{CostSeconds: 0.01} }

// knobs are the transport fields both public Configs carry.
type knobs struct {
	retries       int
	backoff       time.Duration
	maxConcurrent int
}

// protocol drives one public client: call issues one batch for frame i,
// counts reads its Requests/Retries.
type protocol struct {
	name string
	good func() http.Handler
	open func(t *testing.T, url string, k knobs) (call func(ctx context.Context, i int64) error, counts func() (requests, retries int64))
}

var protocols = []protocol{
	{
		name: "httpbatch",
		good: func() http.Handler { return httpbatch.Handler(detector{}) },
		open: func(t *testing.T, url string, k knobs) (func(context.Context, int64) error, func() (int64, int64)) {
			c, err := httpbatch.New(httpbatch.Config{Endpoint: url, Retries: k.retries, RetryBackoff: k.backoff, MaxConcurrent: k.maxConcurrent})
			if err != nil {
				t.Fatal(err)
			}
			call := func(ctx context.Context, i int64) error {
				_, err := c.DetectBatch(ctx, "car", []int64{i})
				return err
			}
			return call, func() (int64, int64) { st := c.Stats(); return st.Requests, st.Retries }
		},
	},
	{
		name: "httpcache",
		good: func() http.Handler { return httpcache.Handler(cachestore.NewLocal(64)) },
		open: func(t *testing.T, url string, k knobs) (func(context.Context, int64) error, func() (int64, int64)) {
			c, err := httpcache.New(httpcache.Config{Endpoint: url, Retries: k.retries, RetryBackoff: k.backoff, MaxConcurrent: k.maxConcurrent})
			if err != nil {
				t.Fatal(err)
			}
			call := func(ctx context.Context, i int64) error {
				_, err := c.GetBatch(ctx, []cachestore.Key{{Content: 1, Class: "car", Frame: i}})
				return err
			}
			return call, func() (int64, int64) { st := c.Stats(); return st.Requests, st.Retries }
		},
	},
}

// responseCap is the response read cap during TestTransport, lowered from
// the production 64 MiB so the oversized-body case stays cheap.
const responseCap = 1 << 20

// errAny matches any non-nil error.
var errAny = errors.New("any error")

// TestTransport runs the shared retry, admission and read discipline
// through both public clients.
func TestTransport(t *testing.T) {
	defer httpx.SetMaxResponseBytes(responseCap)()
	// streamedAll records that an oversized stream was read to its end.
	var streamedAll atomic.Bool
	cases := []struct {
		name  string
		knobs knobs
		// serve answers the hit-th request (1-based); good is the
		// protocol's real handler.
		serve func(good http.Handler, hit int64, w http.ResponseWriter, r *http.Request)
		// cancelAfter, when set, cancels the call this long after the
		// server first sees a request.
		cancelAfter time.Duration
		// deadline, when set, bounds the call's context.
		deadline time.Duration
		calls    int    // concurrent calls (default 1)
		wantErr  error  // nil, a context error, or errAny
		wantMsg  string // with errAny, a substring the error must carry
		wantHits int64
		wantReq  int64
		wantRetr int64
		maxPeak  int64         // when set, the most requests the server may see at once
		maxTime  time.Duration // when set, the call must return this fast
	}{
		{
			name:  "5xx then success",
			knobs: knobs{retries: 2, backoff: time.Millisecond},
			serve: func(good http.Handler, hit int64, w http.ResponseWriter, r *http.Request) {
				if hit <= 2 {
					http.Error(w, "transient", http.StatusInternalServerError)
					return
				}
				good.ServeHTTP(w, r)
			},
			wantHits: 3, wantReq: 3, wantRetr: 2,
		},
		{
			name:  "retries are bounded",
			knobs: knobs{retries: 2, backoff: time.Millisecond},
			serve: func(_ http.Handler, _ int64, w http.ResponseWriter, _ *http.Request) {
				http.Error(w, "down", http.StatusServiceUnavailable)
			},
			wantErr: errAny, wantMsg: "503", wantHits: 3, wantReq: 3, wantRetr: 2,
		},
		{
			name:  "retries -1 disables retries",
			knobs: knobs{retries: -1, backoff: time.Millisecond},
			serve: func(_ http.Handler, _ int64, w http.ResponseWriter, _ *http.Request) {
				http.Error(w, "down", http.StatusServiceUnavailable)
			},
			wantErr: errAny, wantHits: 1, wantReq: 1,
		},
		{
			name:  "4xx is terminal",
			knobs: knobs{retries: 5, backoff: time.Millisecond},
			serve: func(_ http.Handler, _ int64, w http.ResponseWriter, _ *http.Request) {
				http.Error(w, "no", http.StatusBadRequest)
			},
			wantErr: errAny, wantMsg: "400", wantHits: 1, wantReq: 1,
		},
		{
			name:  "corrupt 200 body is terminal",
			knobs: knobs{retries: 5, backoff: time.Millisecond},
			serve: func(_ http.Handler, _ int64, w http.ResponseWriter, _ *http.Request) {
				fmt.Fprint(w, `{"results": not json`)
			},
			wantErr: errAny, wantMsg: "decode response", wantHits: 1, wantReq: 1,
		},
		{
			// A body past the read cap fails without retrying, and the
			// client hangs up at the cap instead of reading a stream many
			// times its size to the end.
			name:  "oversized 200 body is terminal",
			knobs: knobs{retries: 5, backoff: time.Millisecond},
			serve: func(_ http.Handler, _ int64, w http.ResponseWriter, _ *http.Request) {
				chunk := []byte(strings.Repeat(" ", 64<<10))
				for sent := 0; sent < 64*responseCap; sent += len(chunk) {
					if _, err := w.Write(chunk); err != nil {
						return
					}
				}
				streamedAll.Store(true)
			},
			wantErr: errAny, wantMsg: "exceeds", wantHits: 1, wantReq: 1,
		},
		{
			name:  "cancel aborts an in-flight call",
			knobs: knobs{},
			serve: func(_ http.Handler, _ int64, _ http.ResponseWriter, r *http.Request) {
				// The server notices a closed connection only once the
				// body is consumed.
				io.Copy(io.Discard, r.Body)
				select {
				case <-r.Context().Done():
				case <-time.After(5 * time.Second):
				}
			},
			cancelAfter: time.Millisecond,
			wantErr:     context.Canceled, wantHits: 1, wantReq: 1, maxTime: 2 * time.Second,
		},
		{
			name:  "deadline inside the backoff is terminal",
			knobs: knobs{retries: 3, backoff: 200 * time.Millisecond},
			serve: func(_ http.Handler, _ int64, w http.ResponseWriter, _ *http.Request) {
				http.Error(w, "boom", http.StatusInternalServerError)
			},
			deadline: 50 * time.Millisecond,
			wantErr:  context.DeadlineExceeded, wantHits: 1, wantReq: 1, maxTime: 150 * time.Millisecond,
		},
		{
			name:  "cancel mid-backoff is terminal",
			knobs: knobs{retries: 3, backoff: time.Second},
			serve: func(_ http.Handler, _ int64, w http.ResponseWriter, _ *http.Request) {
				http.Error(w, "boom", http.StatusInternalServerError)
			},
			cancelAfter: 30 * time.Millisecond,
			wantErr:     context.Canceled, wantHits: 1, wantReq: 1, maxTime: 500 * time.Millisecond,
		},
		{
			name:  "MaxConcurrent caps in-flight requests",
			knobs: knobs{maxConcurrent: 2},
			serve: func(good http.Handler, _ int64, w http.ResponseWriter, r *http.Request) {
				time.Sleep(10 * time.Millisecond)
				good.ServeHTTP(w, r)
			},
			calls:    8,
			wantHits: 8, wantReq: 8, maxPeak: 2,
		},
	}
	for _, p := range protocols {
		for _, tc := range cases {
			p, tc := p, tc
			t.Run(p.name+"/"+tc.name, func(t *testing.T) {
				good := p.good()
				var hits, running, peak atomic.Int64
				entered := make(chan struct{})
				var enterOnce sync.Once
				srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					hit := hits.Add(1)
					enterOnce.Do(func() { close(entered) })
					cur := running.Add(1)
					defer running.Add(-1)
					for {
						old := peak.Load()
						if cur <= old || peak.CompareAndSwap(old, cur) {
							break
						}
					}
					tc.serve(good, hit, w, r)
				}))
				defer srv.Close()
				call, counts := p.open(t, srv.URL, tc.knobs)

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if tc.deadline > 0 {
					ctx, cancel = context.WithTimeout(ctx, tc.deadline)
					defer cancel()
				}
				if tc.cancelAfter > 0 {
					go func() {
						select {
						case <-entered:
							time.Sleep(tc.cancelAfter)
						case <-ctx.Done():
						}
						cancel()
					}()
				}
				n := tc.calls
				if n == 0 {
					n = 1
				}
				errs := make([]error, n)
				start := time.Now()
				var wg sync.WaitGroup
				for i := 0; i < n; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						errs[i] = call(ctx, int64(i))
					}(i)
				}
				wg.Wait()
				elapsed := time.Since(start)
				srv.Close() // wait for the handlers, so their counts are final

				for _, err := range errs {
					switch {
					case tc.wantErr == nil:
						if err != nil {
							t.Fatalf("err = %v, want success", err)
						}
					case err == nil:
						t.Fatalf("call succeeded, want %v", tc.wantErr)
					case tc.wantErr == errAny:
						if !strings.HasPrefix(err.Error(), p.name+": ") || !strings.Contains(err.Error(), tc.wantMsg) {
							t.Fatalf("err = %q, want a %s: error mentioning %q", err, p.name, tc.wantMsg)
						}
					case !errors.Is(err, tc.wantErr):
						t.Fatalf("err = %v, want %v", err, tc.wantErr)
					}
				}
				if got := hits.Load(); got != tc.wantHits {
					t.Errorf("endpoint saw %d requests, want %d", got, tc.wantHits)
				}
				if req, retr := counts(); req != tc.wantReq || retr != tc.wantRetr {
					t.Errorf("Stats Requests/Retries = %d/%d, want %d/%d", req, retr, tc.wantReq, tc.wantRetr)
				}
				if tc.maxPeak > 0 && peak.Load() > tc.maxPeak {
					t.Errorf("observed %d concurrent requests, cap is %d", peak.Load(), tc.maxPeak)
				}
				if streamedAll.Swap(false) {
					t.Error("client read an oversized stream to its end; want it to stop at the cap")
				}
				if tc.maxTime > 0 && elapsed > tc.maxTime {
					t.Errorf("call took %v, want under %v", elapsed, tc.maxTime)
				}
			})
		}
	}
}
