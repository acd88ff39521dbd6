package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client is the typed HTTP client for a xeond daemon. All request and
// response bodies are the wire types in this package; all failures are
// errors.Is-able (see errors.go). Every method takes a context — there
// are no hidden background requests and no hidden deadlines beyond the
// optional WithTimeout.
//
// A Client is safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	timeout time.Duration
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (connection
// pooling, TLS, test transports). The default is http.DefaultClient.
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// WithTimeout bounds each unary request (submit, status, cancel, cell,
// artifact, metrics) with a per-call deadline layered under the caller's
// context. Progress streams are exempt: they are long-lived by design
// and end with the job or the caller's context. Note RunCell simulates
// synchronously — at full scale a cell can legitimately run for minutes,
// so pick a timeout for the workloads actually submitted.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// NewClient returns a Client for the daemon at base, e.g.
// "http://127.0.0.1:7788".
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Base returns the daemon base URL the client was built with.
func (c *Client) Base() string { return c.base }

// SubmitStudy submits one study job and returns its initial status (the
// 202 body). The job runs asynchronously; Follow or Study observe it.
func (c *Client) SubmitStudy(ctx context.Context, req StudyRequest) (StudyStatus, error) {
	var st StudyStatus
	err := c.doJSON(ctx, http.MethodPost, "/api/v1/study", req, &st)
	return st, err
}

// Study returns the current status of one job.
func (c *Client) Study(ctx context.Context, id string) (StudyStatus, error) {
	var st StudyStatus
	err := c.doJSON(ctx, http.MethodGet, "/api/v1/study/"+url.PathEscape(id), nil, &st)
	return st, err
}

// Studies lists every job the daemon knows, in submission order.
func (c *Client) Studies(ctx context.Context) ([]StudyStatus, error) {
	var sts []StudyStatus
	err := c.doJSON(ctx, http.MethodGet, "/api/v1/study", nil, &sts)
	return sts, err
}

// CancelStudy cancels a running job. Cancellation is clean by contract:
// completed cells are already journaled, and resubmitting the same
// request resumes from that tail.
func (c *Client) CancelStudy(ctx context.Context, id string) (StudyStatus, error) {
	var st StudyStatus
	err := c.doJSON(ctx, http.MethodDelete, "/api/v1/study/"+url.PathEscape(id), nil, &st)
	return st, err
}

// Artifact downloads one finished artifact's canonical golden bytes,
// verbatim — byte-identical to the file a local run of the same study
// writes, so callers can diff against testdata/golden directly.
func (c *Client) Artifact(ctx context.Context, id, name string) ([]byte, error) {
	return c.doRaw(ctx, "/api/v1/study/"+url.PathEscape(id)+"/artifacts/"+url.PathEscape(name))
}

// RunCell executes one simulation cell synchronously on the daemon and
// returns its outcome, including the raw per-program counters a remote
// backend rebuilds full results from.
func (c *Client) RunCell(ctx context.Context, req CellRequest) (CellResponse, error) {
	var resp CellResponse
	err := c.doJSON(ctx, http.MethodPost, "/api/v1/cell", req, &resp)
	return resp, err
}

// Metrics returns the daemon's obs metric-registry snapshot, raw — the
// same diff-stable JSON a local -metrics-out run writes.
func (c *Client) Metrics(ctx context.Context) ([]byte, error) {
	return c.doRaw(ctx, "/metrics")
}

// Healthz reports daemon liveness.
func (c *Client) Healthz(ctx context.Context) error {
	return c.doJSON(ctx, http.MethodGet, "/healthz", nil, nil)
}

// withCallTimeout layers the optional per-call deadline under ctx.
func (c *Client) withCallTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.timeout > 0 {
		return context.WithTimeout(ctx, c.timeout)
	}
	return context.WithCancel(ctx)
}

// doJSON performs one unary request, decoding the JSON response into out
// (which may be nil) and turning every failure into a typed error.
func (c *Client) doJSON(ctx context.Context, method, path string, body, out any) error {
	ctx, cancel := c.withCallTimeout(ctx)
	defer cancel()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("api: encoding %s %s body: %w", method, path, err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("api: building %s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return transportError(method, path, err)
	}
	defer func() {
		// Best-effort drain; the response is already consumed or failed.
		_ = resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		return responseError(method, path, resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return transportError(method, path, err)
	}
	return nil
}

// doRaw GETs one endpoint and returns the body bytes verbatim.
func (c *Client) doRaw(ctx context.Context, path string) ([]byte, error) {
	ctx, cancel := c.withCallTimeout(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, fmt.Errorf("api: building GET %s: %w", path, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, transportError(http.MethodGet, path, err)
	}
	defer func() {
		// Fully read below; close cannot add information.
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, responseError(http.MethodGet, path, resp)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, transportError(http.MethodGet, path, err)
	}
	return b, nil
}

// transportError wraps a connection-level failure (no usable HTTP
// response) so it errors.Is-matches ErrTransport while keeping the
// original chain — a caller-canceled context still matches
// context.Canceled through it.
func transportError(method, path string, err error) error {
	return fmt.Errorf("%w: %s %s: %w", ErrTransport, method, path, err)
}

// responseError turns a non-2xx response into a *Error, reading the
// structured body and the Retry-After hint when present.
func responseError(method, path string, resp *http.Response) error {
	e := &Error{Status: resp.StatusCode, Method: method, Path: path}
	var body ErrorResponse
	if json.NewDecoder(resp.Body).Decode(&body) == nil {
		e.Code, e.Message = body.Code, body.Error
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		// The header value counts seconds (RFC 9110). A count past what a
		// Duration holds would overflow into a negative delay, so it is
		// ignored like any other unparsable value.
		if n, err := strconv.ParseInt(ra, 10, 64); err == nil && n >= 0 && n <= math.MaxInt64/int64(time.Second) {
			e.RetryAfter = time.Duration(n) * time.Second
		}
	}
	return e
}

// ProgressStream is one /progress/{id} connection: an iterator over the
// job's NDJSON event log. The server replays the job's full history on
// every connection; a stream opened with after > 0 silently skips the
// already-seen prefix, so reconnecting clients neither miss nor repeat
// events. Seq density is verified on every delivered event — a gap
// surfaces as ErrSeqGap, never as silently wrong done/total counts.
type ProgressStream struct {
	body io.ReadCloser
	dec  *json.Decoder
	next int // the Seq the next delivered event must carry
}

// Progress opens a progress stream for job id, delivering events with
// Seq > after (pass 0 for the full history). The stream is bounded by
// ctx only — the client's unary timeout does not apply.
func (c *Client) Progress(ctx context.Context, id string, after int) (*ProgressStream, error) {
	path := "/progress/" + url.PathEscape(id)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, fmt.Errorf("api: building GET %s: %w", path, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, transportError(http.MethodGet, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		defer func() {
			// The error body is consumed by responseError; close is cleanup.
			_ = resp.Body.Close()
		}()
		return nil, responseError(http.MethodGet, path, resp)
	}
	return newProgressStream(resp.Body, after), nil
}

// newProgressStream reads the NDJSON events of body, delivering those
// with Seq > after.
func newProgressStream(body io.ReadCloser, after int) *ProgressStream {
	return &ProgressStream{body: body, dec: json.NewDecoder(body), next: after + 1}
}

// Next returns the next unseen event. io.EOF means the server closed the
// stream (it does so after the terminal event); an ErrTransport-matching
// error means the connection dropped mid-stream and the caller should
// reconnect with after set to the last delivered Seq; ErrSeqGap means
// events were lost.
func (s *ProgressStream) Next() (Event, error) {
	for {
		var e Event
		if err := s.dec.Decode(&e); err != nil {
			if errors.Is(err, io.EOF) {
				return Event{}, io.EOF
			}
			return Event{}, transportError(http.MethodGet, "progress stream", err)
		}
		if e.Seq < s.next {
			// Replayed history this stream's caller has already seen.
			continue
		}
		if e.Seq > s.next {
			return Event{}, fmt.Errorf("%w: got seq %d, want %d", ErrSeqGap, e.Seq, s.next)
		}
		s.next++
		return e, nil
	}
}

// Close releases the underlying connection.
func (s *ProgressStream) Close() error {
	return s.body.Close()
}

// Reconnection pacing for Follow: exponential from reconnectDelay,
// capped by reconnectMax attempts per silent stretch (the counter resets
// whenever an event arrives).
const (
	reconnectDelay = 200 * time.Millisecond
	reconnectMax   = 5
)

// Follow streams job id's progress events through fn (which may be nil)
// until the job reaches a terminal state, and returns that terminal
// event. Dropped connections are reconnected with the last delivered Seq
// as the resume point, with exponential backoff and a bounded number of
// consecutive silent failures; a sequence gap, a non-transport error, or
// an fn error aborts immediately.
func (c *Client) Follow(ctx context.Context, id string, fn func(Event) error) (Event, error) {
	after := 0
	fails := 0
	retry := func(err error) error {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		fails++
		if fails > reconnectMax {
			return fmt.Errorf("api: progress %s: giving up after %d reconnect attempts: %w", id, reconnectMax, err)
		}
		return sleep(ctx, reconnectDelay<<uint(fails-1))
	}
	for {
		stream, err := c.Progress(ctx, id, after)
		if err != nil {
			if !errors.Is(err, ErrTransport) {
				return Event{}, err
			}
			if rerr := retry(err); rerr != nil {
				return Event{}, rerr
			}
			continue
		}
		e, err := followStream(stream, fn, &after, &fails)
		if err == nil {
			return e, nil
		}
		if errors.Is(err, io.EOF) || errors.Is(err, ErrTransport) {
			// The stream ended before the terminal event: the connection
			// dropped, or the daemon restarted. Resume after the last
			// delivered Seq.
			if rerr := retry(err); rerr != nil {
				return Event{}, rerr
			}
			continue
		}
		return Event{}, err
	}
}

// followStream drains one connection, updating the resume point and
// resetting the failure counter on every delivered event.
func followStream(stream *ProgressStream, fn func(Event) error, after, fails *int) (Event, error) {
	defer func() {
		// The stream is finished or broken either way.
		_ = stream.Close()
	}()
	for {
		e, err := stream.Next()
		if err != nil {
			return Event{}, err
		}
		*after = e.Seq
		*fails = 0
		if fn != nil {
			if err := fn(e); err != nil {
				return Event{}, err
			}
		}
		if e.Terminal() {
			return e, nil
		}
	}
}

// sleep waits d, honoring ctx cancellation.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
