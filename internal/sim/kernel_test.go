package sim

import (
	"testing"
	"unsafe"

	"prioritystar/internal/core"
	"prioritystar/internal/obs"
)

// TestPacketLayout guards the size of the hot struct: every enqueue writes
// one packet into a queue slot and every service copies one into the
// link's inflight slot, so a new field must not silently regrow it.
func TestPacketLayout(t *testing.T) {
	if got := unsafe.Sizeof(packet{}); got > 40 {
		t.Fatalf("packet is %d bytes, want at most 40", got)
	}
}

// TestDeliverEventTaskKeys checks the task keys DeliverEvent reports now
// that they live in the task table rather than in every packet: measured
// broadcasts carry exactly the keys 0..GeneratedBroadcasts-1, in birth
// order, while unmeasured broadcasts and unicasts carry -1. The run is
// long and loaded enough that task-table slots are recycled many times.
func TestDeliverEventTaskKeys(t *testing.T) {
	cfg := detCase(t, []int{4, 5}, 0.7, 0.6, core.TwoLevel, 1, 31)
	cfg.Warmup, cfg.Measure, cfg.Drain = 300, 1500, 1500
	wStart, wEnd := cfg.Warmup, cfg.Warmup+cfg.Measure
	birthOf := map[int64]int64{}
	cfg.OnDeliver = func(ev DeliverEvent) {
		measured := ev.Broadcast && ev.Birth >= wStart && ev.Birth < wEnd
		if !measured {
			if ev.Task != -1 {
				t.Fatalf("unmeasured event %+v has task key %d, want -1", ev, ev.Task)
			}
			return
		}
		if ev.Task < 0 {
			t.Fatalf("measured broadcast event %+v has no task key", ev)
		}
		if b, ok := birthOf[ev.Task]; ok && b != ev.Birth {
			t.Fatalf("task %d delivered with births %d and %d", ev.Task, b, ev.Birth)
		}
		birthOf[ev.Task] = ev.Birth
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.IncompleteBroadcasts != 0 {
		t.Fatalf("%d measured broadcasts unfinished; lengthen the drain", res.IncompleteBroadcasts)
	}
	if int64(len(birthOf)) != res.GeneratedBroadcasts {
		t.Fatalf("saw %d task keys, generated %d measured broadcasts", len(birthOf), res.GeneratedBroadcasts)
	}
	for k := int64(0); k < res.GeneratedBroadcasts; k++ {
		b, ok := birthOf[k]
		if !ok {
			t.Fatalf("task key %d never delivered (keys must be 0..%d)", k, res.GeneratedBroadcasts-1)
		}
		if k > 0 && b < birthOf[k-1] {
			t.Fatalf("task key %d born at %d, before key %d at %d", k, b, k-1, birthOf[k-1])
		}
	}
}

// panicProbe panics at the end of the first slot whose backlog exceeds
// limit, interrupting a run while packets sit in the queues.
type panicProbe struct {
	obs.Base
	limit int64
}

func (p panicProbe) SlotEnd(_ int64, backlog int64) {
	if backlog > p.limit {
		panic("probe: backlog limit")
	}
}

// TestRunnerRecoverClearsQueues panics a run from a probe while packets are
// queued, then reuses the Runner for a golden case twice: once after
// Recover, which must leave every flat FIFO and per-link length empty on
// its own, and once after a second panic with no Recover at all, where
// reset alone must do the clearing. Both reruns must reproduce the golden
// fingerprint.
func TestRunnerRecoverClearsQueues(t *testing.T) {
	golden := goldenCases(t)[0]
	interrupt := func(r *Runner) {
		t.Helper()
		cfg := golden.cfg
		cfg.Probe = panicProbe{limit: 100}
		defer func() {
			if recover() == nil {
				t.Fatal("the probe did not interrupt the run")
			}
		}()
		r.Run(cfg)
	}
	var r Runner
	interrupt(&r)
	if r.e.backlog <= 100 {
		t.Fatalf("run interrupted with backlog %d; want queued packets", r.e.backlog)
	}
	r.Recover()
	for l, n := range r.e.qlen {
		if n != 0 {
			t.Fatalf("after Recover link %d has length %d", l, n)
		}
	}
	for i := range r.e.queues {
		if n := r.e.queues[i].Len(); n != 0 {
			t.Fatalf("after Recover queue %d holds %d packets", i, n)
		}
	}
	for round, recovered := range []bool{true, false} {
		res, err := r.Run(golden.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := goldenFingerprint(res); got != golden.want {
			t.Fatalf("rerun %d (recovered %v) diverged from the golden run\n got %s\nwant %s", round, recovered, got, golden.want)
		}
		interrupt(&r) // the next round starts from a panicked run, no Recover
	}
}
