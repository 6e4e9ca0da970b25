package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"prioritystar/internal/obs"
	"prioritystar/internal/spec"
)

// fastSpec is a sub-second sweep; seed varies the fingerprint.
func fastSpec(seed int) []byte {
	return []byte(fmt.Sprintf(`{
		"id": "t-fast", "dims": [4, 4], "rhos": [0.3],
		"broadcastFrac": 1,
		"schemes": [{"name": "priority-star"}],
		"warmup": 50, "measure": 400, "drain": 100,
		"reps": 2, "seed": %d
	}`, seed))
}

// mediumSpec runs for a few hundred milliseconds — long enough for a test
// to observe the running state and per-replication progress events.
func mediumSpec(seed int) []byte {
	return []byte(fmt.Sprintf(`{
		"id": "t-medium", "dims": [8, 8], "rhos": [0.3],
		"broadcastFrac": 1,
		"schemes": [{"name": "priority-star"}],
		"warmup": 100, "measure": 20000, "drain": 100,
		"reps": 4, "seed": %d
	}`, seed))
}

// slowSpec runs for a few seconds on one worker slot.
func slowSpec(seed int) []byte {
	return []byte(fmt.Sprintf(`{
		"id": "t-slow", "dims": [8, 8], "rhos": [0.8],
		"broadcastFrac": 1,
		"schemes": [{"name": "priority-star"}],
		"warmup": 100, "measure": 300000, "drain": 100,
		"reps": 1, "seed": %d
	}`, seed))
}

// newTestServer wires a server to an httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, NewClient(hs.URL)
}

// waitState polls until the job reaches state (or any terminal state when
// terminal is wanted).
func waitState(t *testing.T, c *Client, id, state string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Get(context.Background(), id)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		if st.State == state {
			return *st
		}
		if st.Terminal() {
			t.Fatalf("job %s ended in %q (err %q) while waiting for %q", id, st.State, st.Error, state)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", id, state)
	return JobStatus{}
}

// TestEndToEndCacheHitByteIdentical is the acceptance-criteria walk:
// submit -> stream to completion -> re-submit the same spec -> the second
// response comes from the cache, byte-identical, with the hit counter
// bumped and no second simulation executed.
func TestEndToEndCacheHitByteIdentical(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2, QueueCap: 4})
	ctx := context.Background()

	st, err := c.SubmitJSON(ctx, mediumSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached || st.Deduped {
		t.Fatalf("first submission flagged cached/deduped: %+v", st)
	}

	// Follow the SSE stream to completion; expect per-replication progress.
	var events []JobStatus
	final, err := c.Watch(ctx, st.ID, func(ev JobStatus) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("job ended %q (err %q)", final.State, final.Error)
	}
	if len(events) < 2 {
		t.Fatalf("SSE stream delivered %d events, want >= 2 (progress + terminal)", len(events))
	}
	if final.Done != final.Total || final.Total != 4 {
		t.Fatalf("progress = %d/%d, want 4/4", final.Done, final.Total)
	}
	body1, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Re-submit the identical spec (different id label to prove labels are
	// not part of the content address would be a different test; here the
	// bytes are literally the same).
	st2, err := c.SubmitJSON(ctx, mediumSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.State != StateDone {
		t.Fatalf("second submission not served from cache: %+v", st2)
	}
	if st2.ID == st.ID {
		t.Fatalf("cache hit reused the original job id")
	}
	if st2.Fingerprint != st.Fingerprint {
		t.Fatalf("fingerprint moved: %s -> %s", st.Fingerprint, st2.Fingerprint)
	}
	body2, err := c.Result(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cache hit is not byte-identical:\n%s\n%s", body1, body2)
	}

	m := s.Metrics()
	if got := m.Counter("cache_hits"); got != 1 {
		t.Errorf("cache_hits = %d, want 1", got)
	}
	if got := m.Counter("sim_runs"); got != 1 {
		t.Errorf("sim_runs = %d, want 1 (the cache hit must not re-simulate)", got)
	}
	snap, err := c.MetricsSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["cache_hits"] != 1 {
		t.Errorf("/metrics cache_hits = %d, want 1", snap.Counters["cache_hits"])
	}
	if h := snap.Histograms["http_submit_us"]; h == nil || h.Count() != 2 {
		t.Errorf("/metrics http_submit_us = %+v, want both submissions", h)
	}
}

// TestMetricsSnapshotRejectsCorruptHistogram: a /metrics body arrives from
// outside the process, so a histogram that fails the sketch codec's
// validation (or is null) must surface as an error, never as a silently
// wrong distribution.
func TestMetricsSnapshotRejectsCorruptHistogram(t *testing.T) {
	const good = `{"v":1,"count":2,"sum":10,"min":3,"max":7,"buckets":[[3,1],[7,1]]}`
	bodies := map[string]string{
		"count mismatch": `{"v":1,"count":5,"sum":10,"min":3,"max":7,"buckets":[[3,1],[7,1]]}`,
		"wrong version":  `{"v":2,"count":2,"sum":10,"min":3,"max":7,"buckets":[[3,1],[7,1]]}`,
		"old log format": `{"count":2,"buckets":[0,0,1,1]}`,
		"null":           `null`,
		"valid":          good,
	}
	for name, hist := range bodies {
		body := `{"counters":{"jobs":1},"gauges":{},"histograms":{"http_submit_us":` + hist + `}}`
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Write([]byte(body))
		}))
		snap, err := NewClient(hs.URL).MetricsSnapshot(context.Background())
		hs.Close()
		if name == "valid" {
			if err != nil || snap.Histograms["http_submit_us"].Quantile(1) != 7 {
				t.Errorf("valid body: %v, %+v", err, snap)
			}
		} else if err == nil {
			t.Errorf("%s: corrupt histogram accepted: %+v", name, snap.Histograms)
		}
	}
}

// TestConcurrentDuplicatesRunOnce: many simultaneous submissions of one
// spec must coalesce onto a single simulation (single-flight), whether each
// landed on the in-flight job or, late, on the cache.
func TestConcurrentDuplicatesRunOnce(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	ctx := context.Background()

	const n = 8
	var wg sync.WaitGroup
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := c.SubmitJSON(ctx, fastSpec(2))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, id := range ids {
		if st, err := c.Watch(ctx, id, nil); err != nil || st.State != StateDone {
			t.Fatalf("job %s: %v %+v", id, err, st)
		}
	}
	if got := s.Metrics().Counter("sim_runs"); got != 1 {
		t.Fatalf("sim_runs = %d, want exactly 1 for %d duplicate submissions", got, n)
	}
}

// TestQueueFullBackpressure: with one worker busy and a one-slot queue, a
// third distinct job must be refused with 429 and a Retry-After hint.
func TestQueueFullBackpressure(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueCap: 1, SlotsPerJob: 1})
	c.Retry = RetryPolicy{} // the 429 must surface, not be retried away
	ctx := context.Background()

	a, err := c.SubmitJSON(ctx, slowSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, a.ID, StateRunning) // worker occupied, queue empty

	b, err := c.SubmitJSON(ctx, slowSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	if b.State != StateQueued {
		t.Fatalf("second job state = %q, want queued", b.State)
	}

	// Queue now full: the next distinct submission must bounce.
	resp, err := http.Post(c.Base+"/v1/jobs", "application/json", bytes.NewReader(slowSpec(12)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}
	if _, err := c.SubmitJSON(ctx, slowSpec(12)); !IsQueueFull(err) {
		t.Fatalf("client error = %v, want queue-full", err)
	}

	// A duplicate of the running job must still coalesce, not bounce.
	dup, err := c.SubmitJSON(ctx, slowSpec(10))
	if err != nil || !dup.Deduped || dup.ID != a.ID {
		t.Fatalf("duplicate of running job: %+v, %v", dup, err)
	}

	// Clean up without burning CPU on the slow sims.
	if _, err := c.Cancel(ctx, a.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, b.ID); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownDrainsAndCachePersists: Shutdown (the SIGTERM path in
// starsimd) must finish in-flight jobs, persist their results, and a
// restarted daemon on the same cache file must answer the same spec from
// cache, byte-identically.
func TestShutdownDrainsAndCachePersists(t *testing.T) {
	cachePath := filepath.Join(t.TempDir(), "cache.jsonl")
	metrics := &obs.MetricSet{}
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 4, CachePath: cachePath, Metrics: metrics})
	ctx := context.Background()

	st, err := c.SubmitJSON(ctx, fastSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	// Shutdown races the tiny job: whether it is queued or running, drain
	// must complete it, not drop it.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	got, ok := s.Job(st.ID)
	if !ok || got.State != StateDone {
		t.Fatalf("after drain job = %+v, want done", got)
	}
	body1 := jobResult(t, s, st.ID)

	// Submissions after drain must be refused.
	if _, err := s.Submit(mustSpec(t, fastSpec(4))); err != errDraining {
		t.Fatalf("submit while draining = %v, want errDraining", err)
	}

	// "Restart": a fresh daemon over the same cache journal.
	s2, c2 := newTestServer(t, Config{Workers: 1, QueueCap: 4, CachePath: cachePath})
	st2, err := c2.SubmitJSON(ctx, fastSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached {
		t.Fatalf("restarted daemon missed its persisted cache: %+v", st2)
	}
	body2, err := c2.Result(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("result changed across restart:\n%s\n%s", body1, body2)
	}
	if got := s2.Metrics().Counter("sim_runs"); got != 0 {
		t.Fatalf("restarted daemon simulated %d times, want 0", got)
	}
	if err := s2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestDrainWhileRunning pins the "SIGTERM drains in-flight jobs" half: a
// job observed running when Shutdown starts is completed, not killed.
func TestDrainWhileRunning(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	ctx := context.Background()
	st, err := c.SubmitJSON(ctx, mediumSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st.ID, StateRunning)
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Job(st.ID); got.State != StateDone {
		t.Fatalf("drained job state = %q, want done", got.State)
	}
}

// TestBadSpecRejected: malformed and invalid specs answer 400 without
// touching the queue.
func TestBadSpecRejected(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	ctx := context.Background()
	for name, body := range map[string]string{
		"not json":      `{"dims": [4,4`,
		"unknown field": `{"dims": [4,4], "bogus": 1}`,
		"no schemes":    `{"id": "x", "dims": [4,4], "rhos": [0.3], "reps": 1, "measure": 100, "schemes": []}`,
		"bad scheme":    `{"id": "x", "dims": [4,4], "rhos": [0.3], "reps": 1, "measure": 100, "schemes": [{"name": "nope"}]}`,
	} {
		_, err := c.SubmitJSON(ctx, []byte(body))
		ae, ok := err.(*apiError)
		if !ok || ae.Code != http.StatusBadRequest {
			t.Errorf("%s: err = %v, want HTTP 400", name, err)
		}
	}
	if got := s.Metrics().Counter("jobs_queued"); got != 0 {
		t.Fatalf("bad specs enqueued %d jobs", got)
	}
}

// TestUnknownJob404 covers the status, result, events, and cancel routes.
func TestUnknownJob404(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.Get(ctx, "nope"); err == nil {
		t.Fatal("Get unknown job succeeded")
	}
	if _, err := c.Result(ctx, "nope"); err == nil {
		t.Fatal("Result unknown job succeeded")
	}
	if _, err := c.Cancel(ctx, "nope"); err == nil {
		t.Fatal("Cancel unknown job succeeded")
	}
}

// TestStartBindsAndServes exercises the real listener path (Start/Addr)
// plus healthz/readyz.
func TestStartBindsAndServes(t *testing.T) {
	s, err := New(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	if s.Addr() != addr {
		t.Fatalf("Addr() = %q, want %q", s.Addr(), addr)
	}
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d", path, resp.StatusCode)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// jobResult digs a finished job's bytes out of the server.
func jobResult(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	j, ok := s.mgr.get(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil {
		t.Fatalf("job %s has no result", id)
	}
	return j.result
}

// mustSpec decodes raw spec JSON.
func mustSpec(t *testing.T, b []byte) *spec.Experiment {
	t.Helper()
	var e spec.Experiment
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatal(err)
	}
	return &e
}
