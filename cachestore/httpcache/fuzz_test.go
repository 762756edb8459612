package httpcache

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/exsample/exsample/cachestore"
)

// FuzzHandler feeds arbitrary bodies to the Handler's get and put routes:
// it must never panic, answer only 200 or 400, and a rejected put must
// leave the store untouched (a request is rejected whole).
func FuzzHandler(f *testing.F) {
	goodKey := cachestore.Key{Content: 1, Class: "car", Frame: 0}.Encode()
	for _, seed := range []string{
		`{"keys": [`,
		`{"keys": []}`,
		`{"keys": ["v9:junk:1:car"]}`,
		fmt.Sprintf(`{"keys": [%q, "nope"]}`, goodKey),
		fmt.Sprintf(`{"keys": [%q]}`, goodKey),
		`{"entries": [`,
		`{"entries": []}`,
		`{"entries": [{"key": "garbage", "dets": []}]}`,
		fmt.Sprintf(`{"entries": [{"key": %q, "dets": [{"frame": 0, "class": "car", "box": [1, 2, 3, 4], "score": 0.5, "truth_id": -1}]}, {"key": "nope"}]}`, goodKey),
		fmt.Sprintf(`{"entries": [{"key": %q}]}`, goodKey),
	} {
		f.Add([]byte(seed), false)
		f.Add([]byte(seed), true)
	}
	f.Fuzz(func(t *testing.T, body []byte, put bool) {
		store := cachestore.NewLocal(64)
		path := "/get"
		if put {
			path = "/put"
		}
		before := store.Stats().Entries
		rec := httptest.NewRecorder()
		Handler(store).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest:
			if after := store.Stats().Entries; after != before {
				t.Fatalf("rejected %s changed the store from %d to %d entries", path, before, after)
			}
		default:
			t.Fatalf("%s status %d for body %q, want 200 or 400", path, rec.Code, body)
		}
	})
}
