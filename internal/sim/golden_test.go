package sim

import (
	"context"
	"fmt"
	"testing"

	"prioritystar/internal/core"
	"prioritystar/internal/fault"
)

// goldenFingerprint condenses every float aggregate of a Result into one
// exact string (full float64 precision, no rounding), so two runs match iff
// they followed bit-identical trajectories.
func goldenFingerprint(r *Result) string {
	return fmt.Sprintf("rcp=%d/%v bc=%d/%v uni=%d/%v q0=%v q1=%v q2=%v gb=%d gu=%d ib=%d iu=%d be=%d mb=%d du=%v",
		r.Reception.Count(), r.Reception.Mean(),
		r.Broadcast.Count(), r.Broadcast.Mean(),
		r.Unicast.Count(), r.Unicast.Mean(),
		r.QueueWait[0].Mean(), r.QueueWait[1].Mean(), r.QueueWait[2].Mean(),
		r.GeneratedBroadcasts, r.GeneratedUnicasts,
		r.IncompleteBroadcasts, r.IncompleteUnicasts,
		r.BacklogEnd, r.MaxBacklog, r.DimUtilization)
}

// goldenCases are fingerprints captured from the engine BEFORE fault
// injection and runtime guards existed (commit 023e8d3). They pin the
// contract that a run with an empty fault schedule and zero-value guards is
// bit-identical to the historical engine. The one exception is mb
// (MaxBacklog), which covers only the slots actually run since runs end
// once their measured work is done: cases 1-3 end early and were re-pinned
// from 60, 985 and 211; every other field is the historical value verbatim.
func goldenCases(t *testing.T) []struct {
	cfg  Config
	want string
} {
	t.Helper()
	return []struct {
		cfg  Config
		want string
	}{
		{detCase(t, []int{8, 8}, 0.8, 1, core.TwoLevel, 1, 101),
			"rcp=162981/6.971505881053673 bc=2587/16.260146888287615 uni=0/0 q0=0.023590365430193442 q1=1.367210300429183 q2=0 gb=2587 gu=0 ib=0 iu=0 be=276 mb=567 du=[0.818203125 0.78109375]"},
		{detCase(t, []int{4, 5}, 0.5, 0.7, core.FCFS, 1, 102),
			"rcp=22667/3.3959500595579524 bc=1193/6.338642078792961 uni=4150/3.4672289156626563 q0=0.42793029805936383 q1=0 q2=0 gb=1193 gu=4150 ib=0 iu=0 be=10 mb=59 du=[0.506125 0.50353125]"},
		{detCase(t, []int{4, 4, 8}, 0.6, 0.5, core.ThreeLevel, 4, 103),
			"rcp=43561/28.685062326393 bc=343/94.69387755102045 uni=11395/32.677226853883376 q0=2.243608297153889 q1=4.015062058265807 q2=6.814846546923211 gb=343 gu=11395 ib=0 iu=0 be=563 mb=961 du=[0.5650048828125 0.5576416015625 0.5786962890625]"},
		{detCase(t, []int{2, 2, 2, 2}, 0.7, 1, core.TwoLevel, 2, 104),
			"rcp=17895/9.57004749930152 bc=1193/22.90360435875943 uni=0/0 q0=1.366875300914781 q1=5.451428571428566 q2=0 gb=1193 gu=0 ib=0 iu=0 be=104 mb=192 du=[0.73046875 0.718125 0.703125 0.686640625]"},
	}
}

// TestGoldenPrePREngine proves the fault-free, guard-free engine reproduces
// the pre-PR engine exactly.
func TestGoldenPrePREngine(t *testing.T) {
	for i, c := range goldenCases(t) {
		res, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got := goldenFingerprint(res); got != c.want {
			t.Errorf("case %d: engine diverged from pre-PR golden run\n got %s\nwant %s", i, got, c.want)
		}
		if res.Status != StatusOK {
			t.Errorf("case %d: status %v, want ok", i, res.Status)
		}
	}
}

// TestGoldenWithInertRobustness proves that attaching the whole robustness
// apparatus in inert form — an empty (but non-nil) fault schedule, an armed
// divergence watchdog that does not fire, and a live context — still yields
// the pre-PR trajectory bit for bit.
func TestGoldenWithInertRobustness(t *testing.T) {
	for i, c := range goldenCases(t) {
		cfg := c.cfg
		cfg.Faults = &fault.Schedule{Seed: 99} // empty: injects nothing
		cfg.Guard = DefaultGuard(cfg.Shape)
		cfg.Context = context.Background()
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got := goldenFingerprint(res); got != c.want {
			t.Errorf("case %d: inert robustness features perturbed the run\n got %s\nwant %s", i, got, c.want)
		}
		if res.Status != StatusOK {
			t.Errorf("case %d: status %v, want ok", i, res.Status)
		}
	}
}
