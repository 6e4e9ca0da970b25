package serve

// Client is the HTTP client for a starsimd daemon; psctl is a thin wrapper
// around it and the façade re-exports it for library embedding. It is
// self-healing: unary calls retry transport errors and retryable status
// codes (429/502/503/504) under a capped, fully-jittered exponential
// backoff that honors Retry-After, and the SSE watch reconnects with
// Last-Event-ID so a daemon restart mid-stream is invisible to the caller.
// Submissions are idempotent on the daemon side (content-addressed by
// spec.Fingerprint), which is what makes blind resubmission safe.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"prioritystar/internal/obs"
	"prioritystar/internal/spec"
)

// RetryPolicy shapes the client's self-healing behavior. The zero value
// disables retries entirely; NewClient installs DefaultRetryPolicy.
type RetryPolicy struct {
	// MaxRetries is the number of re-attempts after the first try (so a
	// call makes at most MaxRetries+1 requests). 0 disables retries.
	MaxRetries int
	// BaseDelay scales the backoff: the delay before retry n is a random
	// fraction ("full jitter") of min(MaxDelay, BaseDelay<<n).
	BaseDelay time.Duration
	// MaxDelay caps both the jittered backoff and a server-sent
	// Retry-After hint.
	MaxDelay time.Duration

	// rnd and sleep are test seams; nil means math/rand and a real timer.
	rnd   func() float64
	sleep func(ctx context.Context, d time.Duration) error
}

// DefaultRetryPolicy is the policy NewClient installs: 4 retries, 100ms
// base, 5s cap — a daemon restart of a few seconds is ridden out, a daemon
// that is truly gone fails in under half a minute.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: 5 * time.Second}
}

// delay computes the backoff before re-attempt retry (0-based). A
// Retry-After of ra seconds (ra >= 0 when present) takes precedence,
// capped at MaxDelay; otherwise full jitter over the exponential curve.
func (p RetryPolicy) delay(retry int, ra int) time.Duration {
	if ra >= 0 {
		d := time.Duration(ra) * time.Second
		if p.MaxDelay > 0 && d > p.MaxDelay {
			d = p.MaxDelay
		}
		return d
	}
	ceil := p.BaseDelay << retry
	if ceil <= 0 || (p.MaxDelay > 0 && ceil > p.MaxDelay) {
		ceil = p.MaxDelay
	}
	rnd := p.rnd
	if rnd == nil {
		rnd = rand.Float64
	}
	return time.Duration(rnd() * float64(ceil))
}

// wait sleeps for d or until ctx is done.
func (p RetryPolicy) wait(ctx context.Context, d time.Duration) error {
	if p.sleep != nil {
		return p.sleep(ctx, d)
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Client talks to one daemon.
type Client struct {
	// Base is the daemon's URL root, e.g. "http://127.0.0.1:7077".
	Base string
	// HTTP is the underlying client; http.DefaultClient when nil.
	HTTP *http.Client
	// Retry governs transparent retries; the zero value disables them.
	Retry RetryPolicy
	// Metrics, when non-nil, counts client_retries and
	// client_reconnects for observability.
	Metrics *obs.MetricSet
}

// NewClient builds a client for addr, which may be a bare host:port or a
// full http:// URL, with DefaultRetryPolicy installed.
func NewClient(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{Base: strings.TrimRight(addr, "/"), Retry: DefaultRetryPolicy()}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) count(name string) {
	if c.Metrics != nil {
		c.Metrics.Add(name, 1)
	}
}

// apiError is a non-2xx response, keeping the status code inspectable.
type apiError struct {
	Code int
	Msg  string
}

// Error implements error.
func (e *apiError) Error() string {
	return fmt.Sprintf("daemon: %s (HTTP %d)", e.Msg, e.Code)
}

// IsQueueFull reports whether err is the daemon's 429 backpressure signal.
func IsQueueFull(err error) bool {
	ae, ok := err.(*apiError)
	return ok && ae.Code == http.StatusTooManyRequests
}

// retryableStatus reports whether a status code signals a transient
// condition worth re-attempting: backpressure (429), a proxy hiccup (502),
// a draining or restarting daemon (503), or a gateway timeout (504).
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// retryAfterSeconds parses an integer-seconds Retry-After header; -1 when
// absent or unparseable.
func retryAfterSeconds(h http.Header) int {
	v := strings.TrimSpace(h.Get("Retry-After"))
	if v == "" {
		return -1
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return -1
	}
	return n
}

// roundTrip runs one request to completion under the retry policy,
// re-sending body verbatim on each attempt, and returns the final status
// code and response bytes. Transport errors and retryable status codes
// consume retry budget; when the budget runs out the last error (or the
// last response) is surfaced so callers can still inspect it — notably
// IsQueueFull on a final 429.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var lastErr error
	for retry := 0; ; retry++ {
		var rdr io.Reader
		if body != nil {
			rdr = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rdr)
		if err != nil {
			return 0, nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		ra := -1
		resp, err := c.httpClient().Do(req)
		if err == nil {
			data, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil {
				if !retryableStatus(resp.StatusCode) || retry >= c.Retry.MaxRetries {
					return resp.StatusCode, data, nil
				}
				ra = retryAfterSeconds(resp.Header)
				lastErr = &apiError{Code: resp.StatusCode, Msg: strings.TrimSpace(string(data))}
			} else {
				lastErr = rerr
			}
		} else {
			lastErr = err
		}
		if ctx.Err() != nil {
			return 0, nil, ctx.Err()
		}
		if retry >= c.Retry.MaxRetries {
			return 0, nil, lastErr
		}
		c.count("client_retries")
		if err := c.Retry.wait(ctx, c.Retry.delay(retry, ra)); err != nil {
			return 0, nil, err
		}
	}
}

// do runs one request under the retry policy and decodes a JSON response
// into out (when non-nil).
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	code, data, err := c.roundTrip(ctx, method, path, body)
	if err != nil {
		return err
	}
	if code >= 400 {
		var ed errorDoc
		if json.Unmarshal(data, &ed) == nil && ed.Error != "" {
			return &apiError{Code: code, Msg: ed.Error}
		}
		return &apiError{Code: code, Msg: strings.TrimSpace(string(data))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// SubmitJSON submits a raw spec document. Resubmitting after an ambiguous
// failure is safe: the daemon deduplicates on the spec fingerprint, so a
// retried submit lands on the already-accepted job (or its cached result)
// instead of running the sweep twice.
func (c *Client) SubmitJSON(ctx context.Context, specJSON []byte) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", specJSON, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Submit marshals and submits a spec experiment.
func (c *Client) Submit(ctx context.Context, e *spec.Experiment) (*JobStatus, error) {
	b, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	return c.SubmitJSON(ctx, b)
}

// Get fetches one job's status.
func (c *Client) Get(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// List fetches every job's status in submission order.
func (c *Client) List(ctx context.Context) ([]JobStatus, error) {
	var out struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// Cancel requests cancellation of a job (best effort).
func (c *Client) Cancel(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Result fetches a finished job's result document, verbatim bytes. A job
// that is still running yields an error telling the caller to wait.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	code, data, err := c.roundTrip(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	switch code {
	case http.StatusOK:
		return data, nil
	case http.StatusAccepted:
		return nil, &apiError{Code: code, Msg: "job still running"}
	default:
		return nil, &apiError{Code: code, Msg: strings.TrimSpace(string(data))}
	}
}

// MetricsSnapshot fetches the daemon's metric snapshot. Histograms decode
// through the sketch's validated codec, so a corrupt or null histogram in
// the body is an error rather than a silently wrong distribution.
func (c *Client) MetricsSnapshot(ctx context.Context) (obs.Snapshot, error) {
	var s obs.Snapshot
	if err := c.do(ctx, http.MethodGet, "/metrics", nil, &s); err != nil {
		return s, err
	}
	for name, h := range s.Histograms {
		if h == nil {
			return s, fmt.Errorf("serve: /metrics histogram %q is null", name)
		}
	}
	return s, nil
}

// Watch follows a job to completion, invoking onEvent (when non-nil) for
// every status update including the terminal one, and returns the terminal
// status. The SSE stream reconnects with Last-Event-ID when it breaks — a
// daemon restart mid-watch costs at most a duplicated snapshot — and each
// delivered event refills the retry budget, so only consecutive failures
// count. When the budget is spent it degrades to polling, so Watch also
// survives daemons behind buffering proxies.
func (c *Client) Watch(ctx context.Context, id string, onEvent func(JobStatus)) (*JobStatus, error) {
	lastID := ""
	for failures := 0; failures <= c.Retry.MaxRetries; {
		st, progressed, err := c.watchSSE(ctx, id, &lastID, onEvent)
		if err == nil {
			return st, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if progressed {
			failures = 0 // the stream worked; only count consecutive breaks
		}
		failures++
		if failures > c.Retry.MaxRetries {
			break
		}
		c.count("client_reconnects")
		if werr := c.Retry.wait(ctx, c.Retry.delay(failures-1, -1)); werr != nil {
			return nil, werr
		}
	}
	return c.poll(ctx, id, onEvent)
}

// watchSSE consumes /events until a terminal status arrives, tracking the
// last seen SSE event ID in *lastID (sent back as Last-Event-ID on
// reconnects). progressed reports whether any event was delivered before
// the error.
func (c *Client) watchSSE(ctx context.Context, id string, lastID *string, onEvent func(JobStatus)) (st *JobStatus, progressed bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, false, err
	}
	if *lastID != "" {
		req.Header.Set("Last-Event-ID", *lastID)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return nil, false, &apiError{Code: resp.StatusCode, Msg: strings.TrimSpace(string(data))}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if id, ok := strings.CutPrefix(line, "id: "); ok {
			*lastID = id
			continue
		}
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev JobStatus
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			return nil, progressed, fmt.Errorf("daemon: bad SSE payload: %w", err)
		}
		progressed = true
		if onEvent != nil {
			onEvent(ev)
		}
		if ev.Terminal() {
			return &ev, true, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, progressed, err
	}
	return nil, progressed, fmt.Errorf("daemon: SSE stream ended before the job finished")
}

// poll falls back to GET polling until the job is terminal.
func (c *Client) poll(ctx context.Context, id string, onEvent func(JobStatus)) (*JobStatus, error) {
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		st, err := c.Get(ctx, id)
		if err != nil {
			return nil, err
		}
		if onEvent != nil {
			onEvent(*st)
		}
		if st.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-tick.C:
		}
	}
}
