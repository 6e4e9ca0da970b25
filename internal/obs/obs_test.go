package obs_test

import (
	"math"
	"testing"

	"prioritystar/internal/balance"
	"prioritystar/internal/core"
	"prioritystar/internal/obs"
	"prioritystar/internal/sim"
	"prioritystar/internal/torus"
	"prioritystar/internal/traffic"
)

// instrumentedRun executes one simulation with the given probe attached and
// returns the engine's own result for cross-checking.
func instrumentedRun(t *testing.T, dims []int, rho, frac float64, seed uint64,
	warmup, measure, drain int64, p obs.Probe) (*sim.Result, *torus.Shape) {
	t.Helper()
	s := torus.MustNew(dims...)
	rates, err := traffic.RatesForRho(s, rho, frac, 1, balance.ExactDistance)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := core.PrioritySTAR(s, rates, balance.ExactDistance)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		Shape: s, Scheme: sch, Rates: rates, Seed: seed,
		Warmup: warmup, Measure: measure, Drain: drain,
		Probe: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, s
}

// TestCountersConsistency: the event stream must be internally consistent —
// every service follows an enqueue, every delivery follows a service, and
// the slot count equals the slots the run simulated, which end before the
// horizon once the measured work is done.
func TestCountersConsistency(t *testing.T) {
	c := &obs.Counters{}
	warmup, measure, drain := int64(200), int64(1500), int64(500)
	res, _ := instrumentedRun(t, []int{4, 8}, 0.7, 0.6, 5, warmup, measure, drain, c)

	if c.Slots != res.Slots || res.Slots >= warmup+measure+drain {
		t.Errorf("probe saw %d slots, run simulated %d, horizon %d", c.Slots, res.Slots, warmup+measure+drain)
	}
	if c.Enqueues == 0 || c.Services == 0 || c.Delivers == 0 || c.Spawns == 0 {
		t.Fatalf("empty counters: %+v", c)
	}
	// Every transmission was enqueued first, and every delivery is a
	// completed transmission.
	if c.Services > c.Enqueues {
		t.Errorf("services %d > enqueues %d", c.Services, c.Enqueues)
	}
	if c.Delivers > c.Services {
		t.Errorf("delivers %d > services %d", c.Delivers, c.Services)
	}
	if c.Measured != res.GeneratedBroadcasts+res.GeneratedUnicasts {
		t.Errorf("measured spawns %d, result generated %d",
			c.Measured, res.GeneratedBroadcasts+res.GeneratedUnicasts)
	}
	if c.MaxQueued > res.MaxBacklog {
		t.Errorf("probe max backlog %d > engine max %d", c.MaxQueued, res.MaxBacklog)
	}
}

// TestLinkLoadMatchesEngineUtilization: the probe's per-dimension and
// average utilization must be bit-identical to the engine's own Result
// fields — both integrate the same busy slots over the same window.
func TestLinkLoadMatchesEngineUtilization(t *testing.T) {
	for _, dims := range [][]int{{8, 8}, {4, 8}, {3, 4, 5}} {
		load := obs.NewLinkLoad(torus.MustNew(dims...), 300, 2000)
		res, s := instrumentedRun(t, dims, 0.8, 0.7, 9, 300, 2000, 400, load)
		got := load.DimUtilization()
		if len(got) != s.Dims() {
			t.Fatalf("%v: %d dims reported, want %d", dims, len(got), s.Dims())
		}
		for i := range got {
			if got[i] != res.DimUtilization[i] {
				t.Errorf("%v dim %d: probe %v, engine %v", dims, i, got[i], res.DimUtilization[i])
			}
		}
		if load.AvgUtilization() != res.AvgUtilization {
			t.Errorf("%v: probe avg %v, engine %v", dims, load.AvgUtilization(), res.AvgUtilization)
		}
		rep := load.Report()
		var services, links int64
		for _, r := range rep {
			services += r.Services
			links += r.Links
		}
		if links != int64(s.Links()) {
			t.Errorf("%v: report covers %d links, shape has %d", dims, links, s.Links())
		}
		if services == 0 {
			t.Errorf("%v: no services recorded in window", dims)
		}
	}
}

// TestLinkLoadPerLinkAveragesToDim: per-link utilizations must average to
// the dimension utilization they roll up into.
func TestLinkLoadPerLinkAveragesToDim(t *testing.T) {
	s := torus.MustNew(4, 4)
	load := obs.NewLinkLoad(s, 100, 1000)
	_, _ = instrumentedRun(t, []int{4, 4}, 0.6, 1, 3, 100, 1000, 200, load)
	dim := load.DimUtilization()
	sums := make([]float64, s.Dims())
	counts := make([]int64, s.Dims())
	for l := 0; l < s.LinkSlots(); l++ {
		id := torus.LinkID(l)
		if !s.ValidLink(id) {
			continue
		}
		sums[s.LinkDim(id)] += load.LinkUtilization(id)
		counts[s.LinkDim(id)]++
	}
	for i := range sums {
		avg := sums[i] / float64(counts[i])
		if math.Abs(avg-dim[i]) > 1e-12 {
			t.Errorf("dim %d: per-link average %v, dim utilization %v", i, avg, dim[i])
		}
	}
}

// TestOccupancyAndShare: the occupancy histograms sample once per slot, and
// the service shares cover every service with high priority served no worse
// than low (head-of-line priority).
func TestOccupancyAndShare(t *testing.T) {
	std := obs.NewStandard(torus.MustNew(4, 8), 200, 2000)
	_, _ = instrumentedRun(t, []int{4, 8}, 0.8, 0.6, 7, 200, 2000, 400, std)

	if got, want := std.Occ.Backlog.Count(), std.Count.Slots; got != want {
		t.Errorf("backlog samples %d, slots %d", got, want)
	}
	if got, want := std.Occ.Depth.Count(), std.Count.Enqueues; got != want {
		t.Errorf("depth samples %d, enqueues %d", got, want)
	}
	if std.Occ.Depth.Max() != std.Count.MaxDepth {
		t.Errorf("depth max %d, counter max %d", std.Occ.Depth.Max(), std.Count.MaxDepth)
	}

	shares := std.Share.Shares()
	if len(shares) < 2 {
		t.Fatalf("priority STAR uses 2 classes, shares %v", shares)
	}
	var served int64
	total := 0.0
	for _, cs := range shares {
		served += cs.Served
		total += cs.Share
	}
	if served != std.Count.Services {
		t.Errorf("shares cover %d services, counter %d", served, std.Count.Services)
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v", total)
	}
	// Class 0 (broadcast-continuation, high priority) must wait less on
	// average than the lowest class under load.
	if shares[0].WaitMean >= shares[len(shares)-1].WaitMean {
		t.Errorf("high-priority wait %.3f not below low-priority wait %.3f",
			shares[0].WaitMean, shares[len(shares)-1].WaitMean)
	}
}

// TestMultiFansOut: Multi must deliver every event to every probe.
func TestMultiFansOut(t *testing.T) {
	a, b := &obs.Counters{}, &obs.Counters{}
	_, _ = instrumentedRun(t, []int{4, 4}, 0.5, 1, 11, 50, 400, 100, obs.Multi{a, b})
	if *a != *b {
		t.Errorf("fanned-out counters diverged:\n%+v\n%+v", *a, *b)
	}
	if a.Slots == 0 {
		t.Error("no events delivered through Multi")
	}
}

// TestStandardReport: the assembled metrics report is complete.
func TestStandardReport(t *testing.T) {
	std := obs.NewStandard(torus.MustNew(4, 4), 100, 800)
	_, _ = instrumentedRun(t, []int{4, 4}, 0.6, 0.5, 13, 100, 800, 200, std)
	m := obs.NewManifest([]int{4, 4}, "priority-STAR", 13, 0.1, 0.2, 100, 800, 200)
	rep := std.Report(m)
	if rep.Manifest.Schema != obs.ManifestSchema {
		t.Errorf("schema %q", rep.Manifest.Schema)
	}
	if len(rep.DimLoad) != 2 || len(rep.Shares) == 0 {
		t.Fatalf("incomplete report: %+v", rep)
	}
	if rep.Backlog.Count == 0 || rep.QueueDepth.Count == 0 || rep.Counters.Services == 0 {
		t.Errorf("empty report sections: %+v", rep)
	}
}

// TestManifestRoundtrip: Save/LoadManifest preserve every field.
func TestManifestRoundtrip(t *testing.T) {
	m := obs.NewManifest([]int{4, 4, 8}, "priority-STAR-3", 42, 0.01, 0.02, 500, 3000, 1000)
	m.Rho = 0.8
	m.Length = "geom:4"
	m.CreatedAt = "2026-08-06T00:00:00Z"
	path := t.TempDir() + "/run.json"
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := obs.LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scheme != m.Scheme || got.Seed != m.Seed || got.Rho != m.Rho ||
		got.Length != m.Length || len(got.Dims) != 3 || got.Measure != m.Measure {
		t.Errorf("roundtrip mismatch:\n got %+v\nwant %+v", got, m)
	}
	if obs.ManifestPath("x/y.trace") != "x/y.trace.manifest.json" {
		t.Errorf("manifest path %q", obs.ManifestPath("x/y.trace"))
	}
}
