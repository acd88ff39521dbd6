package api

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"testing"
)

// FuzzProgressStream feeds hostile NDJSON to the progress parser: Next
// never panics, delivers events with Seq after+1, after+2, ... in turn,
// and fails only with io.EOF, ErrTransport or ErrSeqGap.
func FuzzProgressStream(f *testing.F) {
	var history bytes.Buffer
	enc := json.NewEncoder(&history)
	for _, e := range []Event{cellEvent(1), cellEvent(2), {Seq: 3, Cell: "CG|Serial", Cached: true, Done: 3, Total: 4}, {Seq: 4, State: StateDone, Done: 4, Total: 4}} {
		if err := enc.Encode(e); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(history.Bytes(), 0)
	f.Add(history.Bytes(), 2)
	f.Add(history.Bytes(), 4)
	f.Add(history.Bytes(), -3)
	f.Add(history.Bytes()[:history.Len()/2], 0)
	f.Add([]byte(`{"seq":1}{"seq":1}{"seq":3}`), 0)
	f.Add([]byte(`{"seq":2}`+"\n"+`{"seq":1}`), 0)
	f.Add([]byte(`{"seq":-9223372036854775808}`), math.MaxInt)
	f.Add([]byte(`{"seq":9223372036854775808}`), 0)
	f.Add([]byte(`{"seq":"1"} {"seq":1} [1] null 7 "x" {"seq":2.5}`), 0)
	f.Add([]byte(`{"seq":1,"done":true}{"seq":2`), 0)
	f.Add([]byte("\x00{"), 0)
	f.Fuzz(func(t *testing.T, data []byte, after int) {
		s := newProgressStream(io.NopCloser(bytes.NewReader(data)), after)
		want := after + 1
		for {
			e, err := s.Next()
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, ErrTransport) && !errors.Is(err, ErrSeqGap) {
					t.Fatalf("Next failed with %v, which is not io.EOF, ErrTransport or ErrSeqGap", err)
				}
				return
			}
			if e.Seq != want {
				t.Fatalf("delivered seq %d, want %d", e.Seq, want)
			}
			want++
		}
	})
}

// FuzzResponseError turns any status, body and Retry-After header into
// a *Error: it never panics, keeps the status, method and path, and
// never reports a negative RetryAfter.
func FuzzResponseError(f *testing.F) {
	over, err := json.Marshal(ErrorResponse{Error: "8 cells over budget", Code: CodeOverBudget})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(http.StatusTooManyRequests, over, "2", "POST", "/api/v1/study")
	f.Add(http.StatusNotFound, []byte("no such job\n"), "", "GET", "/api/v1/study/legacy")
	f.Add(http.StatusConflict, []byte(`{"error":"job is canceled","code":"conflict"}`), "-1", "GET", "/x")
	f.Add(http.StatusInternalServerError, []byte(`{"error":7,"code":null}`), "Wed, 21 Oct 2015 07:28:00 GMT", "DELETE", "")
	f.Add(http.StatusTooManyRequests, []byte(`{"code":"over_budget"}`), "9223372036854775807", "POST", "/api/v1/cell")
	f.Add(http.StatusTooManyRequests, []byte(``), "9223372037", "POST", "/api/v1/cell")
	f.Add(0, []byte(`{`), "1e3", "", "")
	f.Add(-1, []byte(`null`), " 5", "GET", "/\x00")
	f.Fuzz(func(t *testing.T, status int, body []byte, retryAfter, method, path string) {
		resp := &http.Response{StatusCode: status, Header: http.Header{}, Body: io.NopCloser(bytes.NewReader(body))}
		if retryAfter != "" {
			resp.Header.Set("Retry-After", retryAfter)
		}
		err := responseError(method, path, resp)
		var e *Error
		if !errors.As(err, &e) {
			t.Fatalf("responseError returned %T, want *Error", err)
		}
		if e.Status != status || e.Method != method || e.Path != path {
			t.Fatalf("error carries status %d %s %s, want %d %s %s", e.Status, e.Method, e.Path, status, method, path)
		}
		if e.RetryAfter < 0 {
			t.Fatalf("Retry-After %q gave a negative delay %v", retryAfter, e.RetryAfter)
		}
		matched := 0
		for _, sentinel := range []error{ErrBadRequest, ErrNotFound, ErrOverBudget, ErrConflict, ErrInternal, ErrTransport, ErrSeqGap} {
			if errors.Is(err, sentinel) {
				matched++
			}
		}
		if matched > 1 || e.Error() == "" {
			t.Fatalf("error %q matches %d sentinels, want at most one", e.Error(), matched)
		}
	})
}

// FuzzStudyRequestCanonical holds the journal-naming identity of a
// study request: Canonical decodes back to Normalized (strings coerced
// to valid UTF-8 as encoding/json writes them), and Hash is the digest
// of those bytes, the same for the request and its normalized form.
// A NaN or infinite scale has no canonical form and is an error.
func FuzzStudyRequestCanonical(f *testing.F) {
	f.Add("single", 0.0, uint64(0), "")
	f.Add("pair", 0.1, uint64(1), "alternate")
	f.Add("cross", 0.25, uint64(7), "symbiotic")
	f.Add("single", -0.0, uint64(math.MaxUint64), "round-robin")
	f.Add("<&> ", 5e-324, uint64(2), "\xff\xfe")
	f.Add("\x00\"\\", 1e21, uint64(3), "block")
	f.Add("single", math.NaN(), uint64(1), "")
	f.Add("single", math.Inf(1), uint64(1), "")
	f.Add("single", math.Inf(-1), uint64(1), "")
	f.Fuzz(func(t *testing.T, study string, scale float64, seed uint64, policy string) {
		r := StudyRequest{Study: study, Scale: scale, Seed: seed, Policy: policy}
		n := r.Normalized()
		canon, err := r.Canonical()
		_, hashErr := r.Hash()
		if math.IsNaN(scale) || math.IsInf(scale, 0) {
			if err == nil || hashErr == nil {
				t.Fatalf("scale %v: Canonical error %v, Hash error %v; want both to fail", scale, err, hashErr)
			}
			return
		}
		if err != nil || hashErr != nil {
			t.Fatalf("Canonical: %v, Hash: %v", err, hashErr)
		}
		var back StudyRequest
		if err := json.Unmarshal(canon, &back); err != nil {
			t.Fatalf("canonical bytes %s do not decode: %v", canon, err)
		}
		want := n
		want.Study, want.Policy = string([]rune(n.Study)), string([]rune(n.Policy))
		if back != want {
			t.Fatalf("canonical bytes %s decode to %+v, want %+v", canon, back, want)
		}
		again, err := n.Canonical()
		if err != nil || !bytes.Equal(again, canon) {
			t.Fatalf("normalized request canonicalizes to %s (%v), want %s", again, err, canon)
		}
		sum := sha256.Sum256(canon)
		for _, req := range []StudyRequest{r, n, r} {
			if h, err := req.Hash(); err != nil || h != hex.EncodeToString(sum[:8]) {
				t.Fatalf("Hash of %+v = %s (%v), want %x", req, h, err, sum[:8])
			}
		}
	})
}
