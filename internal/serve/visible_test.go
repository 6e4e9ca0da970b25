package serve

// Durable before visible: a watcher that receives a job's terminal SSE
// event must find the job already journaled, indexed and counted. Each
// terminal path of an attempt (done, failed, canceled) is checked at the
// moment the terminal event arrives, with no polling or settling delay.

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// walTerminalRecord returns the terminal WAL record of job id, failing the
// test when there is none.
func walTerminalRecord(t *testing.T, path, id string) walRecord {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec walRecord
		if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.ID == id && walTerminalOp(rec.Op) {
			return rec
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	t.Fatalf("WAL holds no terminal record for %s when its terminal event arrived", id)
	return walRecord{}
}

// checkJournaled requires the WAL's terminal record of a job to match the
// terminal status its watcher received.
func checkJournaled(t *testing.T, walPath string, st *JobStatus) {
	t.Helper()
	rec := walTerminalRecord(t, walPath, st.ID)
	if rec.Op != st.State || rec.Attempt != st.Attempt || rec.Error != st.Error || rec.Time != st.FinishedAt {
		t.Errorf("journaled %+v, published %+v", rec, *st)
	}
}

func TestTerminalEventVisibleAfterJournalIndexAndCounters(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "jobs.wal")
	_, c := newTestServer(t, Config{Workers: 1, QueueCap: 4, WALPath: walPath, RetryBudget: -1})
	ctx := context.Background()
	counters := func() (map[string]int64, map[string]float64) {
		t.Helper()
		snap, err := c.MetricsSnapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return snap.Counters, snap.Gauges
	}

	// done: journaled, both anchors indexed, counted.
	done := runExact(t, c, famSpec("0.2, 0.4", ""))
	cnt, gauges := counters()
	if cnt["sim_runs"] != 1 || cnt["jobs_done"] != 1 || cnt["slots_simulated"] == 0 {
		t.Errorf("at the done event: sim_runs %d, jobs_done %d, slots_simulated %d; want 1, 1, > 0",
			cnt["sim_runs"], cnt["jobs_done"], cnt["slots_simulated"])
	}
	if got := gauges["surrogate_anchors"]; got != 2 {
		t.Errorf("at the done event: surrogate_anchors = %v, want 2", got)
	}
	checkJournaled(t, walPath, &done)
	// The anchors answer an approx submission at once, never a fallback.
	st, err := c.SubmitJSON(ctx, famSpec("0.3", `"mode": "approx", "approxTol": 2,`))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Approx || st.State != StateDone {
		t.Errorf("approx submission after the anchor's done event was not surrogate-answered: %+v", st)
	}

	// failed: the poison spec fails its only attempt.
	st, err = c.SubmitJSON(ctx, poisonSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	failed, err := c.Watch(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if failed.State != StateFailed {
		t.Fatalf("poison job ended %q, want failed", failed.State)
	}
	if cnt, _ := counters(); cnt["jobs_failed"] != 1 {
		t.Errorf("at the failed event: jobs_failed = %d, want 1", cnt["jobs_failed"])
	}
	checkJournaled(t, walPath, failed)

	// canceled: a running job is canceled from outside.
	st, err = c.SubmitJSON(ctx, slowSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st.ID, StateRunning)
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	canceled, err := c.Watch(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if canceled.State != StateCanceled {
		t.Fatalf("canceled job ended %q", canceled.State)
	}
	if cnt, _ := counters(); cnt["jobs_canceled"] != 1 {
		t.Errorf("at the canceled event: jobs_canceled = %d, want 1", cnt["jobs_canceled"])
	}
	checkJournaled(t, walPath, canceled)
}
