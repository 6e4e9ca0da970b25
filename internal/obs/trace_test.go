package obs_test

import (
	"bytes"
	"io"
	"testing"

	"prioritystar/internal/balance"
	"prioritystar/internal/core"
	"prioritystar/internal/obs"
	"prioritystar/internal/sim"
	"prioritystar/internal/torus"
	"prioritystar/internal/traffic"
)

// recordTrace runs one simulation with a trace writer and a counter probe
// attached and returns the encoded trace, the live counters, the manifest
// and the run's result.
func recordTrace(t *testing.T, dims []int, rho float64, seed uint64) ([]byte, *obs.Counters, obs.Manifest, *sim.Result) {
	t.Helper()
	s := torus.MustNew(dims...)
	rates, err := traffic.RatesForRho(s, rho, 0.7, 1, balance.ExactDistance)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := core.PrioritySTAR(s, rates, balance.ExactDistance)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewManifest(dims, "priority-STAR", seed, rates.LambdaB, rates.LambdaR, 100, 900, 300)
	m.Rho = rho
	var buf bytes.Buffer
	tw, err := obs.NewTraceWriter(&buf, m)
	if err != nil {
		t.Fatal(err)
	}
	cnt := &obs.Counters{}
	res, err := sim.Run(sim.Config{
		Shape: s, Scheme: sch, Rates: rates, Seed: seed,
		Warmup: 100, Measure: 900, Drain: 300,
		Probe: obs.Multi{tw, cnt},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), cnt, m, res
}

// TestTraceReplayMatchesLiveRun: replaying a recorded trace must reproduce
// the live run's event counts exactly — the cmd/trace contract.
func TestTraceReplayMatchesLiveRun(t *testing.T) {
	data, cnt, m, res := recordTrace(t, []int{4, 8}, 0.7, 17)

	r, err := obs.NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Manifest(); got.Scheme != m.Scheme || got.Seed != m.Seed || got.Rho != m.Rho {
		t.Errorf("embedded manifest mismatch: %+v", got)
	}
	sum, err := obs.Summarize(r)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Delivers != cnt.Delivers || sum.Finals != cnt.Finals || sum.Broadcasts != cnt.Bcasts {
		t.Errorf("replayed deliveries (%d/%d/%d) != live (%d/%d/%d)",
			sum.Delivers, sum.Finals, sum.Broadcasts, cnt.Delivers, cnt.Finals, cnt.Bcasts)
	}
	if sum.Enqueues != cnt.Enqueues || sum.Services != cnt.Services ||
		sum.Spawns != cnt.Spawns || sum.Slots != cnt.Slots {
		t.Errorf("replayed counts diverged from live run:\n%+v\n%+v", sum, cnt)
	}
	if sum.MaxBacklog != cnt.MaxQueued {
		t.Errorf("replayed max backlog %d, live %d", sum.MaxBacklog, cnt.MaxQueued)
	}
	// The run ends once its measured work is done, before the horizon;
	// the trace's last slot is the run's last.
	if sum.LastSlot != res.Slots-1 || res.Slots >= 100+900+300 {
		t.Errorf("last slot %d, run simulated %d slots of a %d-slot horizon",
			sum.LastSlot, res.Slots, 100+900+300)
	}
	var dimTotal int64
	for _, n := range sum.DimServices {
		dimTotal += n
	}
	if len(sum.DimServices) != 2 || dimTotal != sum.Services {
		t.Errorf("per-dimension services %v don't cover %d services", sum.DimServices, sum.Services)
	}
}

// TestTraceEventFields: decoded events carry sane field values in order.
func TestTraceEventFields(t *testing.T) {
	data, _, _, _ := recordTrace(t, []int{4, 4}, 0.5, 23)
	r, err := obs.NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	s := torus.MustNew(4, 4)
	last := int64(0)
	n := 0
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
		if ev.Slot < last {
			t.Fatalf("slot went backwards: %d after %d", ev.Slot, last)
		}
		last = ev.Slot
		switch ev.Type {
		case obs.EvEnqueue:
			if !s.ValidLink(ev.Link) || ev.Depth < 1 {
				t.Fatalf("bad enqueue %+v", ev)
			}
		case obs.EvService:
			if !s.ValidLink(ev.Link) || ev.Length < 1 || ev.Wait < 0 {
				t.Fatalf("bad service %+v", ev)
			}
			if ev.Dim != s.LinkDim(ev.Link) {
				t.Fatalf("service dim %d, link dim %d", ev.Dim, s.LinkDim(ev.Link))
			}
		case obs.EvDeliver:
			if int(ev.Node) >= s.Size() || ev.Delay < 1 {
				t.Fatalf("bad deliver %+v", ev)
			}
			if ev.Broadcast && !ev.Final {
				t.Fatalf("broadcast copy not final: %+v", ev)
			}
		case obs.EvSpawn, obs.EvSlotEnd:
			// no per-field invariants beyond slot monotonicity
		default:
			t.Fatalf("unknown event type %v", ev.Type)
		}
	}
	if n == 0 {
		t.Fatal("empty trace")
	}
}

// TestTraceTruncationDetected: a trace cut mid-record must fail with a
// decode error, not silently succeed.
func TestTraceTruncationDetected(t *testing.T) {
	data, _, _, _ := recordTrace(t, []int{4, 4}, 0.5, 29)
	r, err := obs.NewTraceReader(bytes.NewReader(data[:len(data)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.Summarize(r); err == nil {
		t.Error("truncated trace summarized without error")
	}
}

// TestTraceRejectsGarbage: a non-trace file must be rejected at open.
func TestTraceRejectsGarbage(t *testing.T) {
	if _, err := obs.NewTraceReader(bytes.NewReader([]byte("not a trace file"))); err == nil {
		t.Error("garbage accepted as trace")
	}
	if _, err := obs.NewTraceReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted as trace")
	}
}
