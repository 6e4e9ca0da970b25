package obs

// MetricSet is the process-level counterpart of the per-run probes: a named
// bag of monotonic counters and point-in-time gauges that long-lived
// components (the starsimd daemon's queue, worker pool, and result cache)
// mutate concurrently and expose over /metrics. Unlike Probe
// implementations it is safe for concurrent use; unlike the per-run
// counters it survives across runs.

import (
	"encoding/json"
	"sort"
	"sync"

	"prioritystar/internal/stats"
)

// MetricSet holds named counters, gauges, and histograms. The zero value is
// ready to use.
type MetricSet struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*stats.Sketch
}

// Add increments counter name by delta (creating it at zero first).
func (m *MetricSet) Add(name string, delta int64) {
	m.mu.Lock()
	if m.counters == nil {
		m.counters = make(map[string]int64)
	}
	m.counters[name] += delta
	m.mu.Unlock()
}

// Counter returns counter name (zero when never touched).
func (m *MetricSet) Counter(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// Set stores gauge name.
func (m *MetricSet) Set(name string, v float64) {
	m.mu.Lock()
	if m.gauges == nil {
		m.gauges = make(map[string]float64)
	}
	m.gauges[name] = v
	m.mu.Unlock()
}

// Gauge returns gauge name (zero when never set).
func (m *MetricSet) Gauge(name string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gauges[name]
}

// SetMax raises gauge name to v if v is larger (creating it at v). The
// daemon tracks high-watermarks (queue_depth_peak) with it so a load
// harness can see pressure that came and went between /metrics scrapes.
func (m *MetricSet) SetMax(name string, v float64) {
	m.mu.Lock()
	if m.gauges == nil {
		m.gauges = make(map[string]float64)
	}
	if cur, ok := m.gauges[name]; !ok || v > cur {
		m.gauges[name] = v
	}
	m.mu.Unlock()
}

// Observe records one observation into histogram name (creating it empty
// first). Histograms are stats.Sketch: exact below 64 and within ~3.1%
// above, cheap enough for per-request latency recording, and mergeable
// across processes bucket-wise.
func (m *MetricSet) Observe(name string, v int64) {
	m.mu.Lock()
	if m.hists == nil {
		m.hists = make(map[string]*stats.Sketch)
	}
	h := m.hists[name]
	if h == nil {
		h = &stats.Sketch{}
		m.hists[name] = h
	}
	h.Add(v)
	m.mu.Unlock()
}

// Snapshot is a consistent copy of every metric, rendered with sorted keys
// so two identical states marshal to identical bytes. Histograms travel in
// the sketch's validated JSON form, so decoding a corrupt body fails.
type Snapshot struct {
	Counters   map[string]int64         `json:"counters"`
	Gauges     map[string]float64       `json:"gauges"`
	Histograms map[string]*stats.Sketch `json:"histograms,omitempty"`
}

// Snapshot copies the current metric values under one lock acquisition.
// The copy is deep: later observations never move a snapshot's histograms.
func (m *MetricSet) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		Counters: make(map[string]int64, len(m.counters)),
		Gauges:   make(map[string]float64, len(m.gauges)),
	}
	s.Merge(Snapshot{Counters: m.counters, Gauges: m.gauges, Histograms: m.hists})
	return s
}

// Merge folds o into s: counters add, gauges in o overwrite, histograms
// merge bucket-wise into sketches s owns, so s never aliases o (a colliding
// key is two views of the same distribution — e.g. a client and a daemon
// both timing http_submit_us — so the merged histogram holds both ends'
// observations, never just one). psctl uses it to fold its client-side
// metrics into the daemon's snapshot before printing, so one document shows
// both ends of the connection.
func (s *Snapshot) Merge(o Snapshot) {
	if s.Counters == nil && len(o.Counters) > 0 {
		s.Counters = make(map[string]int64, len(o.Counters))
	}
	for k, v := range o.Counters {
		s.Counters[k] += v
	}
	if s.Gauges == nil && len(o.Gauges) > 0 {
		s.Gauges = make(map[string]float64, len(o.Gauges))
	}
	for k, v := range o.Gauges {
		s.Gauges[k] = v
	}
	if s.Histograms == nil && len(o.Histograms) > 0 {
		s.Histograms = make(map[string]*stats.Sketch, len(o.Histograms))
	}
	for k, v := range o.Histograms {
		h := s.Histograms[k]
		if h == nil {
			h = &stats.Sketch{}
			s.Histograms[k] = h
		}
		h.Merge(v)
	}
}

// MarshalJSON implements json.Marshaler with deterministic key order
// (encoding/json already sorts map keys; this is a consistent snapshot).
func (m *MetricSet) MarshalJSON() ([]byte, error) {
	return json.Marshal(m.Snapshot())
}

// Names returns the sorted counter and gauge names, for tests and text
// renderings.
func (m *MetricSet) Names() (counters, gauges []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k := range m.counters {
		counters = append(counters, k)
	}
	for k := range m.gauges {
		gauges = append(gauges, k)
	}
	sort.Strings(counters)
	sort.Strings(gauges)
	return counters, gauges
}
