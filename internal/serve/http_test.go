package serve_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/serve"
)

// TestHTTPErrors runs one case table against ramield's handler and the
// fleet front's handler over the same server: every failed /v1/infer gets
// the same status and cause label from both.
func TestHTTPErrors(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1, MaxBatch: 1})
	s.RegisterGraph("tiny", serve.TinyModel())
	s.MarkReady()
	defer s.Close(context.Background())
	handlers := map[string]http.Handler{
		"ramield":  s.Handler(),
		"ramielfe": fleet.New(fleet.Config{}, fleet.NewLocal("r0", s)).Handler(),
	}

	cases := []struct {
		name   string
		method string // default POST
		body   string
		code   int
		cause  string
	}{
		{"unknown model", "", `{"model":"nope","seed":1}`, http.StatusNotFound, "validation"},
		{"unknown model with inputs", "", `{"model":"nope","inputs":{"x":{"shape":[4],"data":[1,2,3,4]}}}`, http.StatusNotFound, "validation"},
		{"missing model", "", `{"seed":1}`, http.StatusBadRequest, "validation"},
		{"no inputs", "", `{"model":"tiny"}`, http.StatusBadRequest, "validation"},
		{"malformed json", "", `{"model":"tiny",`, http.StatusBadRequest, "validation"},
		{"wrong json type", "", `{"model":7}`, http.StatusBadRequest, "validation"},
		{"bad shape", "", `{"model":"tiny","inputs":{"x":{"shape":[3],"data":[1,2]}}}`, http.StatusBadRequest, "validation"},
		{"negative extent", "", `{"model":"tiny","inputs":{"x":{"shape":[-4],"data":[]}}}`, http.StatusBadRequest, "validation"},
		{"overflowing shape", "", `{"model":"tiny","inputs":{"x":{"shape":[4294967296,4294967296],"data":[]}}}`, http.StatusBadRequest, "validation"},
		{"wrong input name", "", `{"model":"tiny","inputs":{"y":{"shape":[4],"data":[1,2,3,4]}}}`, http.StatusBadRequest, "validation"},
		{"declared shape mismatch", "", `{"model":"tiny","inputs":{"x":{"shape":[2],"data":[1,2]}}}`, http.StatusBadRequest, "validation"},
		{"same count, wrong shape", "", `{"model":"tiny","inputs":{"x":{"shape":[2,2],"data":[1,2,3,4]}}}`, http.StatusBadRequest, "validation"},
		{"extra input", "", `{"model":"tiny","inputs":{"x":{"shape":[4],"data":[1,2,3,4]},"bogus":{"shape":[1],"data":[1]}}}`, http.StatusBadRequest, "validation"},
		{"GET", http.MethodGet, "", http.StatusMethodNotAllowed, "validation"},
	}
	for daemon, h := range handlers {
		for _, tc := range cases {
			method := tc.method
			if method == "" {
				method = http.MethodPost
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, "/v1/infer", strings.NewReader(tc.body)))
			if rec.Code != tc.code {
				t.Errorf("%s: %s: status %d, want %d (%s)", daemon, tc.name, rec.Code, tc.code, rec.Body)
			}
			var er serve.ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Errorf("%s: %s: body %q is not an error response (%v)", daemon, tc.name, rec.Body, err)
				continue
			}
			if er.Cause != tc.cause {
				t.Errorf("%s: %s: cause %q, want %q (%s)", daemon, tc.name, er.Cause, tc.cause, er.Error)
			}
		}
	}
}
