package obs

import (
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"prioritystar/internal/stats"
)

func TestMetricSetBasics(t *testing.T) {
	var m MetricSet
	m.Add("jobs", 1)
	m.Add("jobs", 2)
	m.Set("depth", 4)
	if got := m.Counter("jobs"); got != 3 {
		t.Fatalf("Counter = %d, want 3", got)
	}
	if got := m.Gauge("depth"); got != 4 {
		t.Fatalf("Gauge = %g, want 4", got)
	}
	if got := m.Counter("absent"); got != 0 {
		t.Fatalf("absent counter = %d", got)
	}
	c, g := m.Names()
	if len(c) != 1 || c[0] != "jobs" || len(g) != 1 || g[0] != "depth" {
		t.Fatalf("Names = %v %v", c, g)
	}
}

func TestMetricSetJSONDeterministic(t *testing.T) {
	var m MetricSet
	m.Add("b", 2)
	m.Add("a", 1)
	m.Set("z", 1.5)
	b1, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := json.Marshal(&m)
	if string(b1) != string(b2) {
		t.Fatalf("marshal unstable: %s vs %s", b1, b2)
	}
	var s Snapshot
	if err := json.Unmarshal(b1, &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["a"] != 1 || s.Counters["b"] != 2 || s.Gauges["z"] != 1.5 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestMetricSetObserveQuantiles(t *testing.T) {
	var m MetricSet
	for v := int64(1); v <= 1000; v++ {
		m.Observe("lat_us", v)
	}
	s := m.Snapshot()
	h := s.Histograms["lat_us"]
	if h == nil {
		t.Fatal("snapshot lost the histogram")
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d, want 1000", h.Count())
	}
	// The sketch answers an upper bound within one sub-bucket (1/32) of the
	// true value: p50 is 500 and lands in bucket 158, [496, 503]; p100 is
	// capped at the exact maximum.
	if q := h.Quantile(0.5); q < 500 || q > 500+500/32 {
		t.Fatalf("p50 = %d, want within 1/32 above 500", q)
	}
	if q := h.Quantile(1); q != 1000 {
		t.Fatalf("p100 = %d, want 1000", q)
	}
}

// TestSnapshotMergeSumsHistograms pins the psctl metrics fix: when the
// client and the daemon both carry a histogram under the same key, Merge
// must sum them bucket-wise — not drop one side — while counters still add
// and gauges still overwrite.
func TestSnapshotMergeSumsHistograms(t *testing.T) {
	var server, client MetricSet
	for i := 0; i < 10; i++ {
		server.Observe("http_submit_us", 100) // bucket 82: [100, 101]
	}
	for i := 0; i < 5; i++ {
		client.Observe("http_submit_us", 1000) // bucket 190: [992, 1007]
	}
	client.Observe("client_only_us", 3)
	server.Add("jobs", 2)
	client.Add("jobs", 1)
	server.Set("depth", 7)
	client.Set("depth", 1)

	snap := server.Snapshot()
	snap.Merge(client.Snapshot())

	// The merged distribution answers quantiles spanning both sides: p50
	// is the upper edge of the server's bucket, p99 the client's value
	// (capped at the exact maximum).
	checkMerged := func(what string, h *stats.Sketch) {
		t.Helper()
		if h.Count() != 15 || h.Min() != 100 || h.Max() != 1000 {
			t.Fatalf("%s: count/min/max = %d/%d/%d, want 15/100/1000", what, h.Count(), h.Min(), h.Max())
		}
		if q := h.Quantile(0.5); q != 101 {
			t.Fatalf("%s: p50 = %d, want 101", what, q)
		}
		if q := h.Quantile(0.99); q != 1000 {
			t.Fatalf("%s: p99 = %d, want 1000", what, q)
		}
	}
	checkMerged("merged", snap.Histograms["http_submit_us"])
	if got := snap.Histograms["client_only_us"].Count(); got != 1 {
		t.Fatalf("client-only histogram lost: count = %d", got)
	}
	if snap.Counters["jobs"] != 3 {
		t.Fatalf("counters = %v, want jobs summed to 3", snap.Counters)
	}
	if snap.Gauges["depth"] != 1 {
		t.Fatalf("gauges = %v, want depth overwritten to 1", snap.Gauges)
	}
	// Merging into an empty snapshot must deep-copy, not alias: recording
	// more into the source afterwards leaves the merged copy where it was.
	var empty Snapshot
	empty.Merge(snap)
	for i := 0; i < 100; i++ {
		snap.Histograms["http_submit_us"].Add(50000)
	}
	checkMerged("merged into empty", empty.Histograms["http_submit_us"])
}

// TestMetricSetSnapshotDeepCopy: a snapshot taken while other goroutines
// keep observing never moves afterwards, and reading it does not race with
// them (run it under -race -count=10).
func TestMetricSetSnapshotDeepCopy(t *testing.T) {
	var m MetricSet
	m.Observe("lat_us", 7)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := int64(1000); ; v++ {
				select {
				case <-stop:
					return
				default:
					m.Observe("lat_us", v)
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		h := m.Snapshot().Histograms["lat_us"]
		n, p50, max := h.Count(), h.Quantile(0.5), h.Max()
		// Wait until the live histogram has moved past the snapshot.
		for m.Snapshot().Histograms["lat_us"].Count() == n {
			runtime.Gosched()
		}
		if h.Count() != n || h.Quantile(0.5) != p50 || h.Max() != max {
			t.Fatalf("snapshot moved: count/p50/max %d/%d/%d -> %d/%d/%d",
				n, p50, max, h.Count(), h.Quantile(0.5), h.Max())
		}
	}
	close(stop)
	wg.Wait()
}

func TestMetricSetConcurrent(t *testing.T) {
	var m MetricSet
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Add("n", 1)
				m.Set("g", float64(j))
				m.SetMax("peak", float64(j))
				m.Observe("h", int64(j))
				_ = m.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("n"); got != 8000 {
		t.Fatalf("Counter = %d, want 8000", got)
	}
}
