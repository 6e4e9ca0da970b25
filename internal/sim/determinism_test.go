package sim

import (
	"io"
	"reflect"
	"testing"

	"prioritystar/internal/balance"
	"prioritystar/internal/core"
	"prioritystar/internal/obs"
	"prioritystar/internal/torus"
	"prioritystar/internal/traffic"
)

// detCase builds a Config exercising one topology/load/discipline mix.
func detCase(t *testing.T, dims []int, rho, frac float64, disc core.Discipline, mean float64, seed uint64) Config {
	t.Helper()
	s := torus.MustNew(dims...)
	rates, err := traffic.RatesForRho(s, rho, frac, mean, balance.ExactDistance)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := core.NewScheme(s, disc, core.BalancedRotation, rates, balance.ExactDistance)
	if err != nil {
		t.Fatal(err)
	}
	var length traffic.LengthDist
	if mean > 1 {
		length = traffic.GeometricLength(mean)
	}
	return Config{
		Shape: s, Scheme: sch, Rates: rates, Length: length, Seed: seed,
		Warmup: 150, Measure: 800, Drain: 400,
	}
}

// TestRunDeterministic asserts that two Run calls with an identical Config
// produce identical Result fields, for a spread of shapes, loads, and
// disciplines. This is the contract the event-driven engine must keep: a
// link wake-up schedule plus ascending-LinkID service must replay the exact
// same trajectory for a fixed seed.
func TestRunDeterministic(t *testing.T) {
	cases := []Config{
		detCase(t, []int{8, 8}, 0.2, 1, core.TwoLevel, 1, 7),
		detCase(t, []int{8, 8}, 0.9, 0.5, core.TwoLevel, 1, 8),
		detCase(t, []int{4, 5}, 0.5, 0.7, core.FCFS, 1, 9),
		detCase(t, []int{4, 4, 8}, 0.6, 0.5, core.ThreeLevel, 1, 10),
		detCase(t, []int{2, 2, 2, 2, 2}, 0.7, 1, core.TwoLevel, 4, 11),
	}
	for i, cfg := range cases {
		a, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("case %d: identical configs produced different results:\n%+v\n%+v", i, a, b)
		}
	}
}

// TestRunnerReuseMatchesFreshRun asserts that a Runner reused across runs
// of different shapes and class counts produces results identical to fresh
// engines: buffer recycling must never leak state between runs.
func TestRunnerReuseMatchesFreshRun(t *testing.T) {
	cases := []Config{
		detCase(t, []int{8, 8}, 0.8, 1, core.TwoLevel, 1, 21),
		detCase(t, []int{4, 5}, 0.5, 0.7, core.FCFS, 1, 22),
		// Same shape twice in a row: exercises the buffer-reuse path.
		detCase(t, []int{4, 5}, 0.5, 0.7, core.FCFS, 1, 23),
		detCase(t, []int{4, 4, 8}, 0.6, 0.5, core.ThreeLevel, 4, 24),
		// Back to a smaller shape after a larger one.
		detCase(t, []int{2, 2, 2}, 0.4, 0.5, core.TwoLevel, 1, 25),
	}
	var runner Runner
	for i, cfg := range cases {
		var fresh Runner
		want, err := fresh.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runner.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: reused runner diverged from fresh engine:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestTruncatedRunThenReuse checks that a run aborted by MaxBacklog leaves
// no residue in a reused Runner: pending wheel arrivals, ready marks, and
// task state from the truncated run must not affect the next run.
func TestTruncatedRunThenReuse(t *testing.T) {
	over := detCase(t, []int{4, 4}, 1.6, 1, core.FCFS, 1, 31) // far beyond saturation
	over.MaxBacklog = 200
	normal := detCase(t, []int{4, 4}, 0.5, 1, core.FCFS, 1, 32)

	var runner Runner
	tr, err := runner.Run(over)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Truncated {
		t.Fatal("overload run was not truncated; raise the load")
	}
	got, err := runner.Run(normal)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(normal)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("run after truncated run diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestProbeAttachedBitIdentical asserts the zero-overhead contract from the
// observer's side: attaching probes (including a trace writer streaming
// every event) must not perturb the simulation. Results with Probe set must
// be bit-identical to results with Probe == nil.
func TestProbeAttachedBitIdentical(t *testing.T) {
	cases := []Config{
		detCase(t, []int{8, 8}, 0.8, 1, core.TwoLevel, 1, 41),
		detCase(t, []int{4, 5}, 0.5, 0.7, core.FCFS, 1, 42),
		detCase(t, []int{4, 4, 8}, 0.6, 0.5, core.ThreeLevel, 4, 43),
	}
	for i, cfg := range cases {
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		probed := cfg
		probed.Probe = obs.Multi{
			obs.NewStandard(cfg.Shape, cfg.Warmup, cfg.Measure),
			&obs.Counters{},
			mustTraceWriter(t, io.Discard),
		}
		got, err := Run(probed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: probes perturbed the run:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestRunnerReuseWithProbes asserts that buffer reuse and probes compose: a
// reused Runner with probes attached matches a fresh engine without them,
// and the probe from a previous run never leaks into the next (release
// clears the probe reference).
func TestRunnerReuseWithProbes(t *testing.T) {
	cases := []Config{
		detCase(t, []int{8, 8}, 0.8, 1, core.TwoLevel, 1, 51),
		detCase(t, []int{4, 5}, 0.5, 0.7, core.FCFS, 1, 52),
		detCase(t, []int{4, 5}, 0.5, 0.7, core.FCFS, 1, 53),
	}
	var runner Runner
	var prev *obs.Counters
	var prevSlots int64
	for i, cfg := range cases {
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cnt := &obs.Counters{}
		probed := cfg
		probed.Probe = cnt
		got, err := runner.Run(probed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: probed reused runner diverged:\n got %+v\nwant %+v", i, got, want)
		}
		// Every case finishes its measured work before the horizon, so the
		// probe must see exactly the slots the run reports, and fewer than
		// the horizon.
		if cnt.Slots != got.Slots || got.Slots >= cfg.Warmup+cfg.Measure+cfg.Drain {
			t.Errorf("case %d: probe saw %d slots, run reports %d, horizon %d",
				i, cnt.Slots, got.Slots, cfg.Warmup+cfg.Measure+cfg.Drain)
		}
		if prev != nil && prev.Slots != prevSlots {
			t.Errorf("case %d: earlier run's probe mutated after its run ended", i)
		}
		prev, prevSlots = cnt, cnt.Slots
	}
	// A probe-free run on the same reused runner must also stay clean.
	plain := cases[0]
	got, err := runner.Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("probe-free run after probed runs diverged:\n got %+v\nwant %+v", got, want)
	}
	if prev.Slots != prevSlots {
		t.Error("released probe received events from a later probe-free run")
	}
}

func mustTraceWriter(t *testing.T, w io.Writer) *obs.TraceWriter {
	t.Helper()
	tw, err := obs.NewTraceWriter(w, obs.Manifest{Schema: obs.ManifestSchema, Dims: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	return tw
}
