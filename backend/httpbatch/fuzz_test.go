package httpbatch

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzHandler feeds arbitrary bodies to the Handler: it must never panic,
// answer only 200 or 400, and a 200 must carry one result per requested
// frame.
func FuzzHandler(f *testing.F) {
	for _, seed := range []string{
		`{not json`,
		`{"class":"","frames":[]}`,
		`{"class":"car","frames":[0,1,2,3,4,5,6,7,8,9,0,1,2,3,4,5,6]}`,
		`{"class":"car","frames":[0,1,2,3,10]}`,
		`{"class":"car","frames":[-1, 9223372036854775807]}`,
		`{"class":"car","frames":[1.5]}`,
		`{"class":"car","frames":[2]} trailing`,
	} {
		f.Add([]byte(seed))
	}
	h := Handler(&fakeBackend{cost: 0.01})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/detect", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d for body %q, want 200 or 400", rec.Code, body)
		}
		// The handler decodes the first JSON value of the body; so does
		// this check.
		var req request
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body that does not decode: %v", err)
		}
		var resp response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 response does not decode: %v", err)
		}
		if len(resp.Results) != len(req.Frames) || len(resp.FrameCosts) != len(req.Frames) {
			t.Fatalf("%d results and %d costs for %d frames", len(resp.Results), len(resp.FrameCosts), len(req.Frames))
		}
	})
}
