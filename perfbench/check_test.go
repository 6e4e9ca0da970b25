package main

import (
	"encoding/json"
	"errors"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"prioritystar/internal/obs"
	"prioritystar/internal/stats"
	"prioritystar/internal/sweep"
)

// passingResults builds, for every registry experiment, a synthetic result
// that satisfies every paper claim checkFigures tests.
func passingResults(t *testing.T) map[string]*sweep.Result {
	t.Helper()
	out := map[string]*sweep.Result{}
	for _, id := range sweep.FigureIDs() {
		exp, err := sweep.Figure(id, sweep.Quick)
		if err != nil {
			t.Fatal(err)
		}
		res := &sweep.Result{Exp: exp}
		top := exp.Rhos[len(exp.Rhos)-1]
		for _, sch := range exp.Schemes {
			s := sweep.Series{Scheme: sch}
			for _, rho := range exp.Rhos {
				p := sweep.Point{Rho: rho, DimUtil: make([]stats.Summary, len(exp.Dims))}
				delay := 2.0
				if sch.Name == sweep.FCFSDirectSpec.Name {
					delay = 3.0
				}
				p.Reception.AddRep(delay)
				p.Unicast.AddRep(delay)
				maxDim := rho
				if sch.SeparateBalance && rho == top {
					maxDim = 0.995
				}
				p.MaxDimUtil.AddRep(maxDim)
				for d := range p.DimUtil {
					p.DimUtil[d].AddRep(rho)
				}
				s.Points = append(s.Points, p)
			}
			res.Series = append(res.Series, s)
		}
		out[id] = res
	}
	return out
}

func wantFailure(t *testing.T, errs []error, substr string) {
	t.Helper()
	for _, err := range errs {
		if strings.Contains(err.Error(), substr) {
			return
		}
	}
	t.Fatalf("no check failure mentioning %q; got %v", substr, errs)
}

func TestCheckFiguresPassesCleanTables(t *testing.T) {
	if errs := checkFigures(passingResults(t)); len(errs) != 0 {
		t.Fatalf("clean tables failed: %v", errs)
	}
}

func TestDoctoredFCFSBeatingSTARFails(t *testing.T) {
	for _, id := range []string{"fig2+5", "fig3+6", "fig4+7"} {
		results := passingResults(t)
		fcfs, err := series(results[id], sweep.FCFSDirectSpec.Name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := pointAt(fcfs, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		p.Reception = stats.Summary{}
		p.Reception.AddRep(1) // FCFS now faster than priority STAR's 2
		wantFailure(t, checkFigures(results), id+" rho 0.8: priority-STAR reception delay")
	}
}

func TestDoctoredClaimsFail(t *testing.T) {
	results := passingResults(t)
	star, _ := series(results["fig4+7"], sweep.PrioritySTARSpec.Name)
	star.Points[0].DimUtil[2] = stats.Summary{}
	star.Points[0].DimUtil[2].AddRep(star.Points[0].Rho + 0.08)
	wantFailure(t, checkFigures(results), "fig4+7 priority-STAR rho 0.1: dimension 2 utilization")

	results = passingResults(t)
	joint, _ := series(results["fig8-balance"], sweep.PrioritySTARSpec.Name)
	joint.Points[len(joint.Points)-1].UnstableReps = 1
	wantFailure(t, checkFigures(results), "joint (Eq. 4) priority-STAR unstable at rho 0.95")

	results = passingResults(t)
	sep, _ := series(results["fig8-balance"], sweep.SeparateSpec.Name)
	sep.Points[len(sep.Points)-1].MaxDimUtil = stats.Summary{}
	sep.Points[len(sep.Points)-1].MaxDimUtil.AddRep(0.9)
	wantFailure(t, checkFigures(results), "separate-FCFS rho 0.95: max-dimension utilization")

	results = passingResults(t)
	uni, _ := series(results["fig8-hetero-delay"], sweep.PrioritySTAR3Spec.Name)
	uni.Points[1].Unicast = stats.Summary{}
	uni.Points[1].Unicast.AddRep(100)
	wantFailure(t, checkFigures(results), "priority-STAR-3 rho 0.5: unicast delay")

	results = passingResults(t)
	delete(results, "fig3+6")
	wantFailure(t, checkFigures(results), "fig3+6: no result")
}

func TestReconcile(t *testing.T) {
	clean := []struct {
		name  string
		t     tally
		delta map[string]int64
	}{
		{"hit", tally{hits: 500}, map[string]int64{"cache_hits": 500, "cache_misses": 0}},
		{"approx", tally{approx: 300}, map[string]int64{"surrogate_hits": 300, "cache_misses": 300}},
		{"approx with a fallback", tally{approx: 299, fallbacks: 1},
			map[string]int64{"surrogate_hits": 299, "surrogate_fallbacks": 1, "jobs_queued": 1, "sim_runs": 1, "jobs_done": 1}},
		{"exact", tally{exact: 40}, map[string]int64{"jobs_queued": 40, "sim_runs": 40, "jobs_done": 40}},
	}
	for _, c := range clean {
		if errs := reconcile(c.t, c.delta); len(errs) != 0 {
			t.Errorf("%s: clean deltas failed: %v", c.name, errs)
		}
	}

	doctored := []struct {
		name, want string
		t          tally
		delta      map[string]int64
	}{
		{"lost hit", "cache_hits rose by 499, clients observed 500",
			tally{hits: 500}, map[string]int64{"cache_hits": 499}},
		{"approx that simulated", "sim_runs rose by 1, clients observed 0",
			tally{approx: 300}, map[string]int64{"surrogate_hits": 300, "sim_runs": 1}},
		{"uncounted surrogate answer", "surrogate_hits rose by 299, clients observed 300",
			tally{approx: 300}, map[string]int64{"surrogate_hits": 299}},
		{"double-counted job", "jobs_done rose by 41, clients observed 40",
			tally{exact: 40}, map[string]int64{"jobs_queued": 40, "sim_runs": 40, "jobs_done": 41}},
	}
	for _, c := range doctored {
		wantFailure(t, reconcile(c.t, c.delta), c.want)
	}
}

// hitPhase runs a short serve-hit measured phase against d and reports it.
func hitPhase(t *testing.T, d *daemon) *run {
	t.Helper()
	r := &run{
		workload: "serve-hit", seed: 1, seconds: 300 * time.Millisecond, tmp: d.dir, sp: &speedo{},
		metrics: map[string]float64{}, samples: map[string]int{},
	}
	sr := &serveRun{r: r, d: d, kind: opHit, cm: &obs.MetricSet{}}
	if err := sr.measure(); err != nil {
		t.Fatal(err)
	}
	sr.publish()
	r.set("setup_s", 1, 1) // the set-up is not under test
	return r
}

// TestDoctoredHitBodyFailsTheRun drives a real daemon: once clean, then with
// the bytes the client expects for one pooled spec doctored, so that every
// hit on that spec sees bytes other than the first stored. The run must
// then report correct=false, and not merely count failed ops.
func TestDoctoredHitBodyFailsTheRun(t *testing.T) {
	d, err := boot(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	if err := d.seedPool(1); err != nil {
		t.Fatal(err)
	}
	if r := hitPhase(t, d); !r.report() || r.failed != 0 {
		t.Fatalf("clean hit phase failed: %v (%d of %d ops failed)", r.failures, r.failed, r.attempted)
	}

	body := append([]byte(nil), d.pool[0].body...)
	body[len(body)/2] ^= 1
	d.pool[0].body = body
	r := hitPhase(t, d)
	if r.report() {
		t.Fatalf("doctored hit body passed (%d of %d ops failed)", r.failed, r.attempted)
	}
	if r.failed == 0 {
		t.Errorf("no op failed")
	}
	wantFailure(t, []error{errors.New(strings.Join(r.failures, "; "))}, "differing from the")
}

func TestCheckFold(t *testing.T) {
	if err := checkFold(map[string]int64{"cluster_reps_expected": 44, "cluster_reps_folded": 44}, 44); err != nil {
		t.Errorf("clean fold failed: %v", err)
	}
	for _, delta := range []map[string]int64{
		{"cluster_reps_expected": 44, "cluster_reps_folded": 48}, // a duplicate folded twice
		{"cluster_reps_expected": 44, "cluster_reps_folded": 40}, // a record set lost
		{"cluster_reps_expected": 40, "cluster_reps_folded": 40}, // a job not accounted
	} {
		if err := checkFold(delta, 44); err == nil {
			t.Errorf("doctored fold %v passed", delta)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "serve", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "serve", Start: 30, End: 60},  // overlaps 2
		{ID: 4, Parent: 1, Layer: "serve", Start: 90, End: 130}, // clipped at 100
		{ID: 5, Parent: 2, Layer: "spec", Start: 15, End: 20},
	}
	got := selfTimes(spans)
	// client: 100 - (10..60 and 90..100) = 40; serve: 25 + 30 + 40; spec: 5.
	want := map[string]int64{"client": 40, "serve": 95, "spec": 5}
	for layer, w := range want {
		if int64(got[layer]) != w {
			t.Errorf("self time of %s = %d, want %d", layer, got[layer], w)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v, want 3", q)
	}
	if xs[0] != 4 || xs[4] != 5 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if q := quantile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9); q != 9.1 {
		t.Errorf("p90 = %v, want 9.1", q)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metric
// lists in step with what the benchmark reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark runs %s", got, want)
	}
	same := func(kind string, listed []metric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), benchmark reports %s (%s)",
					kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
