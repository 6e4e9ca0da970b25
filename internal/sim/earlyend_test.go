package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"prioritystar/internal/core"
	"prioritystar/internal/fault"
	"prioritystar/internal/torus"
)

// runEarlyAndFull runs cfg on one engine twice over: once until step
// reports the end (the measured work done, the horizon, or an early exit),
// and then, on the same engine, onward to the horizon exactly as the
// pre-early-end engine did. It returns both results.
func runEarlyAndFull(t *testing.T, cfg Config) (early, full Result) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	var e engine
	if err := e.reset(cfg); err != nil {
		t.Fatal(err)
	}
	if err := e.run(); err != nil {
		t.Fatal(err)
	}
	e.finish()
	early = *e.res // finish allocates a fresh DimUtilization per call
	for e.now < e.horizon && e.res.Status == StatusOK {
		if _, err := e.step(); err != nil {
			t.Fatal(err)
		}
	}
	e.finish()
	return early, *e.res
}

// TestEarlyEndMatchesFullHorizon is the differential test of the early end:
// a run that stops once its measured work is done must report exactly the
// statistics of the same run stepped on to the horizon, except for the
// fields that by definition cover only the slots actually run (MaxBacklog,
// ClampedLengths, Slots). Package-level Run must agree with the stepped
// engine, and a run that still holds measured work at the horizon (or is
// stopped by truncation) must run exactly as long as before. A brake that
// would only have fired in the drain after the measured work was done
// (MaxBacklog truncation, the watchdog) no longer fires: the early run
// reports StatusOK where the full horizon reports the brake's status, and
// nothing else differs.
func TestEarlyEndMatchesFullHorizon(t *testing.T) {
	type tc struct {
		name  string
		cfg   Config
		early bool // the measured work must end before the horizon
		// lateStop, when not StatusOK, is the status the full-horizon
		// continuation must end with: a brake that fires only after the
		// early end.
		lateStop Status
	}
	var cases []tc
	for i, g := range goldenCases(t) {
		cases = append(cases, tc{name: fmt.Sprint("golden", i), cfg: g.cfg, early: true, lateStop: StatusOK})
	}

	saturated := detCase(t, []int{4, 4}, 1.3, 1, core.FCFS, 1, 201)
	truncated := detCase(t, []int{4, 4}, 1.6, 1, core.FCFS, 1, 202)
	truncated.MaxBacklog = 200
	geometric := detCase(t, []int{2, 2, 2, 2, 2}, 0.7, 0.6, core.TwoLevel, 8, 203)
	transient := detCase(t, []int{4, 4}, 0.3, 0.5, core.TwoLevel, 1, 204)
	transient.Drain = 4000
	transient.Faults = &fault.Schedule{Seed: 7, MTBF: 200, MTTR: 20}
	nodeDown := detCase(t, []int{4, 4}, 0.3, 1, core.TwoLevel, 1, 205)
	nodeDown.Drain = 2000
	nodeDown.Faults = &fault.Schedule{Nodes: []torus.Node{5}, Seed: 2, MTBF: 250, MTTR: 25}
	linkDown := detCase(t, []int{4, 4}, 0.4, 0.3, core.ThreeLevel, 1, 206)
	linkDown.Faults = &fault.Schedule{Seed: 5, RandomLinks: 2}
	guarded := detCase(t, []int{8, 8}, 0.8, 1, core.TwoLevel, 1, 207)
	guarded.Guard = DefaultGuard(guarded.Shape)
	guarded.Context = context.Background()
	unicast := detCase(t, []int{4, 5}, 0.6, 0, core.FCFS, 1, 208)
	// So light that the network is often empty: the end must still wait
	// for the window's last slot.
	light := detCase(t, []int{4, 4}, 0.02, 0.5, core.TwoLevel, 1, 210)
	impulse := detCase(t, []int{4, 4}, 0, 1, core.TwoLevel, 1, 209)
	impulse.ImpulseBroadcasts = 2
	impulse.ImpulseTotalExchange = true
	impulse.Warmup, impulse.Measure, impulse.Drain = 0, 10, 3000
	// Just past saturation the backlog keeps growing through the drain, but
	// FCFS still finishes the measured tasks 176 slots after the window
	// (peak backlog 1,910 by then, 3,776 at the horizon): a brake set at
	// 3,000 fires only in the drain, after the early end.
	truncLate := detCase(t, []int{4, 4}, 1.05, 1, core.FCFS, 1, 211)
	truncLate.Drain = 1000
	truncLate.MaxBacklog = 3000
	divergeLate := truncLate
	divergeLate.MaxBacklog = 0
	divergeLate.Guard = Guard{DivergeBacklog: 3000}

	cases = append(cases,
		tc{"saturated", saturated, false, StatusOK},
		tc{"truncated", truncated, false, StatusTruncated},
		tc{"geometric", geometric, true, StatusOK},
		tc{"transient-faults", transient, true, StatusOK},
		tc{"node-down", nodeDown, true, StatusOK},
		// Unicasts queued behind a dead link never arrive: the measured
		// work is never done and the run keeps its full horizon.
		tc{"link-down", linkDown, false, StatusOK},
		tc{"guarded", guarded, true, StatusOK},
		tc{"unicast-only", unicast, true, StatusOK},
		tc{"light", light, true, StatusOK},
		tc{"impulse", impulse, true, StatusOK},
		tc{"truncated-in-drain", truncLate, true, StatusTruncated},
		tc{"diverged-in-drain", divergeLate, true, StatusDiverged},
	)

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			horizon := cfg.Warmup + cfg.Measure + cfg.Drain
			early, full := runEarlyAndFull(t, cfg)

			viaRun, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*viaRun, early) {
				t.Errorf("Run diverged from the stepped engine:\n got %+v\nwant %+v", *viaRun, early)
			}

			switch {
			case c.name == "truncated":
				if !full.Truncated || early.Slots != full.Slots || early.Slots >= horizon {
					t.Errorf("truncated run: truncated=%v, slots %d then %d, horizon %d",
						full.Truncated, early.Slots, full.Slots, horizon)
				}
			case c.early:
				if early.Slots < cfg.Warmup+cfg.Measure || early.Slots >= horizon {
					t.Errorf("ended after %d slots, want in [%d, %d)", early.Slots, cfg.Warmup+cfg.Measure, horizon)
				}
				if early.IncompleteBroadcasts != 0 || early.IncompleteUnicasts != 0 {
					t.Errorf("ended early with %d broadcasts and %d unicasts unfinished",
						early.IncompleteBroadcasts, early.IncompleteUnicasts)
				}
			default:
				if early.Slots != horizon {
					t.Errorf("run with measured work left ran %d slots, want the full %d", early.Slots, horizon)
				}
				if early.IncompleteBroadcasts+early.IncompleteUnicasts == 0 {
					t.Error("case meant to hold measured work at the horizon finished it")
				}
			}
			if full.Status != c.lateStop {
				t.Errorf("full-horizon continuation ended %v, want %v", full.Status, c.lateStop)
			}
			if full.Status == StatusOK && full.Slots != horizon {
				t.Errorf("full-horizon continuation ran %d slots, want %d", full.Slots, horizon)
			}
			if c.early && c.lateStop != StatusOK {
				// The brake fired only after the measured work was done:
				// the early run never reaches it, and Status/Truncated are
				// the only statistics that differ.
				if early.Status != StatusOK || early.Truncated {
					t.Errorf("early run: status %v, truncated %v, want StatusOK",
						early.Status, early.Truncated)
				}
				if full.Slots <= early.Slots || full.Slots >= horizon {
					t.Errorf("brake fired at slot %d, want in (%d, %d)", full.Slots, early.Slots, horizon)
				}
				early.Status, full.Status = 0, 0
				early.Truncated, full.Truncated = false, false
			}

			if early.MaxBacklog > full.MaxBacklog || early.ClampedLengths > full.ClampedLengths {
				t.Errorf("early MaxBacklog %d / ClampedLengths %d exceed full %d / %d",
					early.MaxBacklog, early.ClampedLengths, full.MaxBacklog, full.ClampedLengths)
			}
			early.MaxBacklog, full.MaxBacklog = 0, 0
			early.ClampedLengths, full.ClampedLengths = 0, 0
			early.Slots, full.Slots = 0, 0
			if !reflect.DeepEqual(early, full) {
				t.Errorf("early end changed the measured statistics:\nearly %+v\n full %+v", early, full)
			}
		})
	}
}
