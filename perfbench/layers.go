package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"prioritystar/internal/journal"
	"prioritystar/internal/obs"
	"prioritystar/internal/spec"
	"prioritystar/internal/surrogate"
	"prioritystar/internal/sweep"
)

// ratio returns num/den, or 0 when nothing was attempted.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// serveLayerMetrics derives the serve and surrogate layers' counts from the
// measured phase's /metrics deltas and the clients' observations.
func serveLayerMetrics(r *run, sr *serveRun) {
	n, delta := len(sr.log.lat), sr.delta
	r.set("serve.cache_hit_ratio", ratio(delta["cache_hits"], delta["cache_hits"]+delta["cache_misses"]), n)
	r.set("serve.sim_runs", float64(delta["sim_runs"]), n)
	r.set("serve.jobs_deduped", float64(delta["jobs_deduped"]), n)
	rejected := delta["forecast_shed"] + delta["submits_rejected_badspec"] + delta["submits_rejected_draining"] + int64(sr.tally.rejected)
	r.set("serve.rejected", float64(rejected), n)
	r.set("serve.client_retries", float64(sr.cm.Counter("client_retries")), n)
	r.set("serve.queue_depth_peak", sr.after.Gauges["queue_depth_peak"], n)
	t := sr.tally
	r.set("surrogate.hit_ratio", ratio(int64(t.approx), int64(t.approx+t.fallbacks)), t.approx+t.fallbacks)
}

// journalLayerMetrics reads the daemon's WAL, cache journal and checkpoint
// directory after the run. Per-job figures divide by every job the daemon
// accepted (set-up included), since the files cover its whole life.
func journalLayerMetrics(r *run, d *daemon, after obs.Snapshot) error {
	jobs := after.Counters["jobs_queued"]
	walLines, walBytes, err := lineStats(d.walPath())
	if err != nil {
		return err
	}
	_, cacheBytes, err := lineStats(d.cachePath())
	if err != nil {
		return err
	}
	left, err := os.ReadDir(d.walPath() + ".d")
	if err != nil {
		return err
	}
	// The first line of each journal is its header.
	r.set("journal.wal_records_per_job", ratio(walLines-1, jobs), int(jobs))
	r.set("journal.wal_bytes_per_job", ratio(walBytes, jobs), int(jobs))
	r.set("journal.cache_bytes_per_job", ratio(cacheBytes, after.Counters["sim_runs"]), int(after.Counters["sim_runs"]))
	r.set("journal.ckpt_files_left", float64(len(left)), 1)
	return nil
}

// lineStats returns a file's line count and size.
func lineStats(path string) (lines, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 64<<20)
	for sc.Scan() {
		lines++
		size += int64(len(sc.Bytes())) + 1
	}
	return lines, size, sc.Err()
}

// timeCalls runs fn reps times inside spans of the given layer and returns
// the median duration in microseconds. It stops at fn's first error.
func timeCalls(tr *tracer, layer, name string, reps int, fn func() error) (float64, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		sp := tr.begin(layer, name, 0, "")
		err := fn()
		d := sp.end()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, us(d))
	}
	return median(ds), nil
}

// microLayers times single calls into each layer on the quiet daemon after
// the measured phase: spec decoding and fingerprinting, a cache-hit submit
// in process and over HTTP, a result fetch, surrogate evaluation and
// anchoring, and a synced journal append.
func microLayers(r *run, d *daemon) error {
	tr := r.tr
	ctx := context.Background()
	c := newClient(d.addr, nil)
	p := d.pool[0]
	var doc spec.Experiment
	if err := json.Unmarshal(p.spec, &doc); err != nil {
		return err
	}
	exp, err := spec.Decode(p.spec)
	if err != nil {
		return err
	}
	st, err := c.SubmitJSON(ctx, p.spec)
	if err != nil {
		return err
	}

	approxDoc := d.anchorSpec
	approxDoc.Rhos, approxDoc.Mode, approxDoc.ApproxTol = []float64{0.3}, "approx", approxTol
	approxExp, err := spec.Decode(mustJSON(approxDoc))
	if err != nil {
		return err
	}
	ix := surrogate.NewIndex()
	if err := ix.AddResult(d.anchorBody); err != nil {
		return err
	}
	sg := surrogate.New(ix)
	anchorExp, err := spec.Decode(mustJSON(d.anchorSpec))
	if err != nil {
		return err
	}
	anchorRes, err := anchorExp.Run()
	if err != nil {
		return err
	}
	jw, err := journal.Create(filepath.Join(r.tmp, "probe.jsonl"), "perfbench1", "probe")
	if err != nil {
		return err
	}
	defer jw.Close()
	jw.SetSync(true)

	calls := []struct {
		metric, layer string
		reps          int
		fn            func() error
	}{
		{"spec.decode_us", "spec", microReps, func() error { _, err := spec.Decode(p.spec); return err }},
		{"spec.fingerprint_us", "spec", microReps, func() error { _, err := spec.Fingerprint(exp); return err }},
		{"serve.submit_inproc_us", "serve", microReps, func() error {
			st, err := d.srv.Submit(&doc)
			if err == nil && !st.Cached {
				err = fmt.Errorf("in-process submit of a pooled spec was not a cache hit")
			}
			return err
		}},
		{"serve.submit_http_us", "serve", microReps, func() error {
			st, err := c.SubmitJSON(ctx, p.spec)
			if err == nil && !st.Cached {
				err = fmt.Errorf("HTTP submit of a pooled spec was not a cache hit")
			}
			return err
		}},
		{"serve.result_us", "serve", microReps, func() error {
			body, err := c.Result(ctx, st.ID)
			if err == nil && !bytes.Equal(body, p.body) {
				err = fmt.Errorf("result bytes differ from the first stored")
			}
			return err
		}},
		{"surrogate.evaluate_us", "surrogate", microReps, func() error { _, err := sg.Evaluate(approxExp); return err }},
		{"surrogate.add_exact_us", "surrogate", microReps, func() error { surrogate.NewIndex().AddExact(anchorRes); return nil }},
		{"journal.sync_append_us", "journal", fsyncReps, func() error {
			return jw.Append(map[string]any{"op": "probe", "id": st.ID, "time": time.Now().UTC().Format(time.RFC3339)})
		}},
	}
	for _, cl := range calls {
		v, err := timeCalls(tr, cl.layer, cl.metric, cl.reps, cl.fn)
		if err != nil {
			return err
		}
		r.set(cl.metric, v, cl.reps)
	}
	return nil
}

// sameTables checks that a fleet result has the local result's value for
// every table metric at every point of every series.
func sameTables(fleet, local *sweep.Result) error {
	if len(fleet.Series) != len(local.Series) {
		return fmt.Errorf("fleet RunJob gave %d series, local Run %d", len(fleet.Series), len(local.Series))
	}
	for i, ls := range local.Series {
		fs := fleet.Series[i]
		if len(fs.Points) != len(ls.Points) {
			return fmt.Errorf("fleet RunJob gave %d points for %s, local Run %d", len(fs.Points), ls.Scheme.Name, len(ls.Points))
		}
		for j := range ls.Points {
			for _, m := range tableMetrics {
				a, b := ls.Points[j].Value(m), fs.Points[j].Value(m)
				if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
					return fmt.Errorf("fleet RunJob %s rho %v metric %v = %v, local Run %v", ls.Scheme.Name, ls.Points[j].Rho, m, b, a)
				}
			}
		}
	}
	return nil
}

// clusterLayer measures dispatch, wire and fold (serve-write only). It
// boots a coordinator with its lease journal and fleetWorkers loopback
// workers beside the measured daemon d, and runs fresh small sweeps one at
// a time, alternately through the coordinator's RunJob and locally; the
// difference of their medians is what the fleet adds. One more sweep goes
// end to end through the fleet daemon over HTTP: its result bytes must
// equal d's for the same spec, and the coordinator must fold exactly the
// replications it expected.
func clusterLayer(r *run, d *daemon) error {
	fd, err := boot(r.tmp, true)
	if err != nil {
		return err
	}
	defer fd.close()
	before := fd.metrics.Snapshot()
	var runMs, jobMs []float64
	for i := 0; i < sweepReps; i++ {
		body := mustJSON(smallSpec(fmt.Sprintf("cluster-%d", i), anchorRhos[:2], uint64(r.seed)<<32|0xffe000|uint64(i)))
		remote, err := spec.Decode(body)
		if err != nil {
			return err
		}
		local, err := spec.Decode(body)
		if err != nil {
			return err
		}
		sp := r.tr.begin("cluster", "cluster.runjob", 0, "")
		fres, err := fd.coord.RunJob(remote)
		jobMs = append(jobMs, ms(sp.end()))
		if err != nil {
			return err
		}
		sp = r.tr.begin("sweep", "sweep.run", 0, "")
		res, err := local.Run()
		runMs = append(runMs, ms(sp.end()))
		if err != nil {
			return err
		}
		r.check(sameTables(fres, res))
	}
	ctx := context.Background()
	doc := smallSpec("cluster-http", anchorRhos[1:], uint64(r.seed)<<32|0xffdfff)
	var t tally
	_, fleetBytes, err := exact(ctx, newClient(fd.addr, nil), doc, nil, 0, doc.ID, &t)
	if err != nil {
		return fmt.Errorf("fleet daemon job: %w", err)
	}
	_, nodeBytes, err := exact(ctx, newClient(d.addr, nil), doc, nil, 0, doc.ID, &t)
	if err != nil {
		return fmt.Errorf("single-node job: %w", err)
	}
	if !bytes.Equal(fleetBytes, nodeBytes) {
		r.check(fmt.Errorf("fleet result (%d bytes) differs from the single-node result (%d bytes)", len(fleetBytes), len(nodeBytes)))
	}
	delta := counterDelta(before, fd.metrics.Snapshot())
	jobs := sweepReps + 1
	// Each job is one scheme at two rhos.
	r.check(checkFold(delta, jobs*2*smallReps))

	r.set("cluster.runjob_ms", median(jobMs), sweepReps)
	r.set("sweep.run_ms", median(runMs), sweepReps)
	dispatched, local := delta["subjobs_dispatched"], delta["subjobs_local"]
	r.set("cluster.subjobs_per_job", ratio(dispatched+local, int64(jobs)), jobs)
	r.set("cluster.duplicate_ratio", ratio(delta["subjob_duplicates"], dispatched), jobs)
	r.set("cluster.hedges", float64(delta["chaos_hedges_total"]), jobs)
	r.set("cluster.hedge_win_ratio", ratio(delta["hedge_wins"], delta["chaos_hedges_total"]), jobs)
	r.set("cluster.local_frac", ratio(local, dispatched+local), jobs)
	r.set("cluster.redispatched", float64(delta["subjobs_redispatched"]), jobs)
	r.set("cluster.breaker_opens", float64(delta["breaker_open_total"]), jobs)
	return nil
}
