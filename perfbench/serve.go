package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"prioritystar/internal/cluster"
	"prioritystar/internal/obs"
	"prioritystar/internal/serve"
	"prioritystar/internal/spec"
	"prioritystar/internal/surrogate"
)

// opKind is the one op a serve workload's clients repeat.
type opKind int

const (
	// opHit resubmits a spec whose exact result is cached and fetches the
	// result bytes.
	opHit opKind = iota
	// opApprox submits an approx-mode spec inside the anchored family and
	// expects the surrogate to answer it.
	opApprox
	// opExact submits a spec never seen before, watches it over SSE to a
	// terminal state and fetches the result.
	opExact
)

func (k opKind) String() string {
	return [...]string{"hit", "approx", "exact"}[k]
}

// Workload shape. The client is closed loop — it waits for its reply before
// sending again, as psctl callers do — and has its own connection. There is
// one: the serve workloads run on one P (see workloads), where a second
// client's op only waits behind the first. On serve-write that doubled p50
// and left ops/s where it was.
const (
	clients      = 1
	poolSize     = 8 // exact specs cached at set-up, resubmitted by opHit
	fleetWorkers = 2
	workerSlots  = 2 // sub-jobs each fleet worker runs at once
	// approxTol is the relative error the approx ops accept, wide enough
	// that a 2-rep anchor's interpolation bound always qualifies.
	approxTol = 2
	// microReps is how many times the traced run times each isolated
	// layer call; fsyncReps and sweepReps are the same for synced journal
	// appends and for whole small sweeps.
	microReps = 200
	fsyncReps = 40
	sweepReps = 10
	// waitLimit bounds every wait on the daemon's own progress.
	waitLimit = 60 * time.Second
)

// anchorRhos are the anchor sweep's grid; approx ops ask for rhos strictly
// between the first and last, never on an anchor.
var anchorRhos = []float64{0.2, 0.4, 0.6}

// smallReps is the replication count of every generated spec.
const smallReps = 2

// smallSpec is the exact spec shape of the pool, the anchor and the write
// ops: a 4x4 torus, priority STAR, short windows.
func smallSpec(id string, rhos []float64, seed uint64) spec.Experiment {
	return spec.Experiment{
		ID: id, Dims: []int{4, 4}, Rhos: rhos, BroadcastFrac: 1,
		Schemes: []spec.Scheme{{Name: "priority-star"}},
		Warmup:  100, Measure: 400, Drain: 100, Reps: smallReps, Seed: seed,
	}
}

// poolRhos is the grid of pooled spec i. The grids are fixed and only the
// simulation seeds come from --seed, so the set-up does the same amount of
// work on every seed.
func poolRhos(i int) []float64 {
	return []float64{float64(10+4*i) / 100, float64(40+4*i) / 100}
}

// twoRhos draws two distinct rhos in [0.10, 0.70] on a 0.01 grid.
func twoRhos(rng *rand.Rand) []float64 {
	a, b := 10+rng.Intn(61), 10+rng.Intn(60)
	if b >= a {
		b++
	}
	if a > b {
		a, b = b, a
	}
	return []float64{float64(a) / 100, float64(b) / 100}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain data: cannot fail
	}
	return b
}

// violation is an op error that is a failed correctness check rather than
// a failed request: a wrong answer, not a missing one. Any violation in the
// measured phase fails the run.
type violation struct{ error }

func violationf(format string, args ...any) error {
	return violation{fmt.Errorf(format, args...)}
}

// pooled is one cached exact spec with the result bytes first stored for it.
type pooled struct {
	spec []byte
	body []byte
}

// daemon is one in-process starsimd: a single node, or a coordinator with
// its fleet of workers, each on its own loopback listener.
type daemon struct {
	dir     string
	srv     *serve.Server
	addr    string
	metrics *obs.MetricSet
	coord   *cluster.Coordinator
	workers []*serve.Server
	agents  []*cluster.Agent

	pool       []pooled
	anchorSpec spec.Experiment
	anchorBody []byte
}

func (d *daemon) walPath() string   { return filepath.Join(d.dir, "jobs.wal") }
func (d *daemon) cachePath() string { return filepath.Join(d.dir, "cache.jsonl") }

// boot starts a daemon with its WAL, cache and (fleet) lease journal in a
// fresh directory under parent.
func boot(parent string, fleet bool) (*daemon, error) {
	dir, err := os.MkdirTemp(parent, "daemon-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, metrics: &obs.MetricSet{}}
	cfg := serve.Config{
		Addr: "127.0.0.1:0", CachePath: d.cachePath(), WALPath: d.walPath(),
		Metrics: d.metrics,
	}
	if fleet {
		d.coord, err = cluster.NewCoordinator(cluster.CoordinatorConfig{
			JournalPath: filepath.Join(dir, "leases.jsonl"),
			Metrics:     d.metrics,
		})
		if err != nil {
			return nil, err
		}
		cfg.RunJob = d.coord.RunJob
		cfg.Degraded = d.coord.Degraded
	}
	if d.srv, err = serve.New(cfg); err != nil {
		d.close()
		return nil, err
	}
	if d.coord != nil {
		d.coord.Mount(d.srv)
	}
	if d.addr, err = d.srv.Start(); err != nil {
		d.close()
		return nil, err
	}
	if !fleet {
		return d, nil
	}
	for i := 0; i < fleetWorkers; i++ {
		ws, err := serve.New(serve.Config{Addr: "127.0.0.1:0"})
		if err != nil {
			d.close()
			return nil, err
		}
		d.workers = append(d.workers, ws)
		w := cluster.NewWorker(cluster.WorkerConfig{Slots: workerSlots, Metrics: ws.Metrics()})
		w.Mount(ws)
		addr, err := ws.Start()
		if err != nil {
			d.close()
			return nil, err
		}
		d.agents = append(d.agents, cluster.StartAgent(cluster.AgentConfig{
			Coordinator: d.addr, Advertise: addr, Name: fmt.Sprintf("w%d", i+1),
			Slots: workerSlots, Depth: w.Depth,
		}))
	}
	if err := waitFor(func() bool { return d.metrics.Gauge("workers_alive") == fleetWorkers }); err != nil {
		d.close()
		return nil, fmt.Errorf("fleet workers did not join: %w", err)
	}
	return d, nil
}

// close stops every agent and server and waits for them to drain.
func (d *daemon) close() {
	for _, a := range d.agents {
		a.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), waitLimit)
	defer cancel()
	servers := d.workers
	if d.srv != nil {
		servers = append([]*serve.Server{d.srv}, servers...)
	}
	for i, s := range servers {
		if err := s.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: daemon shutdown %d: %v\n", i, err)
		}
	}
	if d.coord != nil {
		if err := d.coord.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: closing the lease journal: %v\n", err)
		}
	}
}

// waitFor polls cond until it holds or waitLimit passes.
func waitFor(cond func() bool) error {
	deadline := time.Now().Add(waitLimit)
	for !cond() {
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// newClient returns a psctl-style client with its own connection pool.
func newClient(addr string, m *obs.MetricSet) *serve.Client {
	c := serve.NewClient(addr)
	c.HTTP = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	c.Metrics = m
	return c
}

// seedPool runs the set-up jobs: poolSize exact sweeps and one anchor sweep
// for the approx family, all submitted at once, then waits until the
// surrogate index holds every anchor. The wait is on the surrogate_anchors
// gauge because a job is published done before its result reaches the
// index; an approx op sent in between would fall back to simulating.
func (d *daemon) seedPool(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	specs := make([][]byte, 0, poolSize+1)
	for i := 0; i < poolSize; i++ {
		specs = append(specs, mustJSON(smallSpec(fmt.Sprintf("pool-%d", i), poolRhos(i), rng.Uint64()>>1)))
	}
	d.anchorSpec = smallSpec("anchor", anchorRhos, rng.Uint64()>>1)
	d.anchorSpec.Measure = 1000
	specs = append(specs, mustJSON(d.anchorSpec))
	anchors := len(anchorRhos)
	for i := 0; i < poolSize; i++ {
		anchors += 2 // each pool result anchors its own family at its two rhos
	}

	c := newClient(d.addr, nil)
	ctx := context.Background()
	ids := make([]string, len(specs))
	for i, s := range specs {
		st, err := c.SubmitJSON(ctx, s)
		if err != nil {
			return fmt.Errorf("set-up submit: %w", err)
		}
		ids[i] = st.ID
	}
	d.pool = d.pool[:0]
	for i, id := range ids {
		fin, err := c.Watch(ctx, id, nil)
		if err != nil {
			return fmt.Errorf("set-up watch: %w", err)
		}
		if fin.State != serve.StateDone {
			return fmt.Errorf("set-up job %s ended %s: %s", id, fin.State, fin.Error)
		}
		body, err := c.Result(ctx, id)
		if err != nil {
			return fmt.Errorf("set-up result: %w", err)
		}
		if i < poolSize {
			d.pool = append(d.pool, pooled{spec: specs[i], body: body})
		} else {
			d.anchorBody = body
		}
	}
	return waitFor(func() bool {
		snap, err := c.MetricsSnapshot(ctx)
		return err == nil && snap.Gauges["surrogate_anchors"] >= float64(anchors)
	})
}

// tally is what the clients observed, reconciled against /metrics deltas.
type tally struct {
	hits, approx, exact, fallbacks, deduped, rejected int
}

// serveRun is the measured phase's shared state.
type serveRun struct {
	r     *run
	d     *daemon
	kind  opKind
	start time.Time
	cm    *obs.MetricSet // client-side counters (retries)

	mu         sync.Mutex
	log        opLog
	tally      tally
	watch      []float64
	sliceOps   [2]int // ops started in untraced (0) and traced (1) slices
	violations int
	firstBad   error // the first violation

	// Filled in by measure once the daemon has quiesced.
	delta       map[string]int64
	after       obs.Snapshot
	heapKBPerOp float64
}

// traceSlice is the length of the alternating untraced/traced slices of a
// traced run's measured phase; their op rates give the tracing overhead.
const traceSlice = 500 * time.Millisecond

// runServe drives one serve workload against a single-node daemon.
func runServe(r *run, kind opKind) error {
	// Set-up is booting the daemon in a fresh directory and running the
	// set-up jobs; each repeat is a fresh daemon, the last one is measured.
	// One set-up takes about 0.1 s and a burst of outside contention can
	// double it, so the median is taken over many.
	const setupRepeats = 21
	var d *daemon
	setup, err := timeSetup(r.sp, setupRepeats, func() error {
		var err error
		if d, err = boot(r.tmp, false); err != nil {
			return err
		}
		if err := d.seedPool(r.seed); err != nil {
			d.close()
			return err
		}
		return nil
	}, func() { d.close() })
	if err != nil {
		return err
	}
	defer d.close()
	r.set("setup_s", setup.Seconds(), setupRepeats)

	sr := &serveRun{r: r, d: d, kind: kind, cm: &obs.MetricSet{}}
	sr.log.long = kind == opExact
	if err := sr.measure(); err != nil {
		return err
	}
	if !r.trace {
		sr.publish()
		return nil
	}
	ops := len(sr.log.lat)
	perSlice := func(k int) float64 { return float64(sr.sliceOps[k]) }
	if sr.sliceOps[0] > 0 && sr.sliceOps[1] > 0 {
		r.set("trace.overhead_frac", 1-perSlice(1)/perSlice(0), ops)
	}
	r.set("serve.heap_kb_per_op", sr.heapKBPerOp, ops)
	if len(sr.watch) > 0 {
		r.set("serve.watch_ms", median(sr.watch), len(sr.watch))
	}
	serveLayerMetrics(r, sr)
	if err := journalLayerMetrics(r, d, sr.after); err != nil {
		return err
	}
	if err := microLayers(r, d); err != nil {
		return err
	}
	if kind == opExact {
		return clusterLayer(r, d)
	}
	return nil
}

// measure runs the measured phase: the closed-loop clients for r.seconds
// against sr.d. It then waits for the daemon to quiesce and
// reconciles what the clients saw with the /metrics deltas. Violations and
// reconciliation errors are recorded as failed checks.
func (sr *serveRun) measure() error {
	r, d := sr.r, sr.d
	before := d.metrics.Snapshot()
	var heap0, heap1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&heap0)

	sr.log.begin()
	sr.start = sr.log.start
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			sr.client(id)
		}(i)
	}
	wg.Wait()
	sr.log.end(r.sp)

	// Quiesce before reconciling. An approx fallback leaves an exact job
	// running, and a job is published terminal before the daemon counts it
	// in jobs_done, so wait until every accepted job is counted as ended.
	if err := waitFor(func() bool {
		sr.after = d.metrics.Snapshot()
		ended := int64(0)
		for _, c := range []string{"jobs_done", "jobs_failed", "jobs_canceled", "jobs_quarantined"} {
			ended += sr.after.Counters[c] - before.Counters[c]
		}
		return ended == sr.after.Counters["jobs_queued"]-before.Counters["jobs_queued"]
	}); err != nil {
		return fmt.Errorf("jobs still running after the measured phase: %w", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&heap1)
	sr.heapKBPerOp = (float64(heap1.HeapAlloc) - float64(heap0.HeapAlloc)) / 1024 / float64(max(len(sr.log.lat), 1))
	sr.delta = counterDelta(before, sr.after)
	if sr.violations > 0 {
		r.check(fmt.Errorf("%d of %d ops failed a check; the first: %v", sr.violations, r.attempted, sr.firstBad))
	}
	r.checkAll(reconcile(sr.tally, sr.delta))
	fmt.Printf("observed: %+v over %.3f s; /metrics deltas: cache_hits=%d surrogate_hits=%d sim_runs=%d\n",
		sr.tally, sr.log.wall.Seconds(), sr.delta["cache_hits"], sr.delta["surrogate_hits"], sr.delta["sim_runs"])
	return nil
}

// publish sets the end-to-end metrics of the measured phase.
func (sr *serveRun) publish() {
	sr.log.publish(sr.r)
	if _, ok := sr.r.metrics["rss_mb"]; !ok {
		fmt.Printf("rss_mb: the phase ended before %d ops; measured after it\n", rssOps[sr.kind])
		keptRSS(sr.r)
	}
}

// rssOps is the op count at which a serve workload measures the daemon's
// memory: what it keeps once garbage is collected and returned to the OS,
// the cache and the job table the ops so far left behind. The job table
// grows with every op (defect (b) in README.md), so memory measured at the
// end of the phase would follow how many ops the host's speed allowed; a
// fixed count keeps the growth in and the host out.
var rssOps = [...]int{opHit: 5000, opApprox: 5000, opExact: 100}

// pauseForRSS stops the client at its rssOps-th op and measures rss_mb; the
// pause is left out of the measured phase.
func (sr *serveRun) pauseForRSS() {
	start := time.Now()
	keptRSS(sr.r)
	sr.mu.Lock()
	sr.log.paused += time.Since(start)
	sr.mu.Unlock()
}

// client is one closed-loop client of the measured phase.
func (sr *serveRun) client(id int) {
	c := newClient(sr.d.addr, sr.cm)
	rng := rand.New(rand.NewSource(sr.r.seed*1_000_003 + int64(id)))
	ctx := context.Background()
	for n := 0; ; n++ {
		if n == rssOps[sr.kind] && id == 0 {
			sr.pauseForRSS()
		}
		// The reference work runs between ops, so that it never delays
		// one; it is about 4% of the phase.
		sr.r.sp.tick()
		opStart := time.Now()
		sr.mu.Lock()
		elapsed := opStart.Sub(sr.start) - sr.log.paused
		sr.mu.Unlock()
		if elapsed >= sr.r.seconds {
			return
		}
		traced := sr.r.trace && int(elapsed/traceSlice)%2 == 1
		var tr *tracer
		if traced {
			tr = sr.r.tr
		}
		req := fmt.Sprintf("c%d-%d", id, n)
		root := tr.begin("client", "op."+sr.kind.String(), 0, req)
		var t tally
		var err error
		var watch time.Duration
		switch sr.kind {
		case opHit:
			err = sr.hit(ctx, c, rng, tr, root.id, req, &t)
		case opApprox:
			err = sr.approx(ctx, c, rng, tr, root.id, req, &t)
		case opExact:
			doc := smallSpec(req, twoRhos(rng), uint64(sr.r.seed)<<32|uint64(id)<<24|uint64(n))
			watch, _, err = exact(ctx, c, doc, tr, root.id, req, &t)
		}
		took := root.end()

		sr.mu.Lock()
		sr.r.attempted++
		sr.tally.hits += t.hits
		sr.tally.approx += t.approx
		sr.tally.exact += t.exact
		sr.tally.fallbacks += t.fallbacks
		sr.tally.deduped += t.deduped
		sr.tally.rejected += t.rejected
		if err != nil {
			sr.r.failed++
			if errors.As(err, new(violation)) {
				if sr.violations++; sr.firstBad == nil {
					sr.firstBad = err
				}
			}
			if sr.r.failed <= 5 {
				fmt.Printf("op %s failed: %v\n", req, err)
			}
		} else {
			sr.log.add(took)
		}
		if traced {
			sr.sliceOps[1]++
			if watch > 0 {
				sr.watch = append(sr.watch, ms(watch))
			}
		} else {
			sr.sliceOps[0]++
		}
		sr.mu.Unlock()
	}
}

// submit posts a spec inside a serve span, counting queue-full refusals.
func submit(ctx context.Context, c *serve.Client, body []byte, tr *tracer, parent int64, req string, t *tally) (*serve.JobStatus, error) {
	sp := tr.begin("serve", "serve.submit", parent, req)
	st, err := c.SubmitJSON(ctx, body)
	sp.end()
	if serve.IsQueueFull(err) {
		t.rejected++
	}
	return st, err
}

func result(ctx context.Context, c *serve.Client, id string, tr *tracer, parent int64, req string) ([]byte, error) {
	sp := tr.begin("serve", "serve.result", parent, req)
	defer sp.end()
	return c.Result(ctx, id)
}

// hit resubmits a pooled spec: it must be answered from the cache, and the
// result must be the bytes first stored for that spec.
func (sr *serveRun) hit(ctx context.Context, c *serve.Client, rng *rand.Rand, tr *tracer, parent int64, req string, t *tally) error {
	p := sr.d.pool[rng.Intn(len(sr.d.pool))]
	st, err := submit(ctx, c, p.spec, tr, parent, req, t)
	if err != nil {
		return err
	}
	if st.Cached {
		t.hits++
	}
	if !st.Cached || st.State != serve.StateDone {
		return violationf("pooled spec answered %s (cached=%v), want a cache hit", st.State, st.Cached)
	}
	body, err := result(ctx, c, st.ID, tr, parent, req)
	if err != nil {
		return err
	}
	if !bytes.Equal(body, p.body) {
		return violationf("cache hit %s returned %d bytes differing from the %d first stored", st.ID, len(body), len(p.body))
	}
	return nil
}

// approx asks for a rho strictly inside the anchored family: the surrogate
// must answer it without simulating. A fallback is a failed op; it is never
// retried or waited away.
func (sr *serveRun) approx(ctx context.Context, c *serve.Client, rng *rand.Rand, tr *tracer, parent int64, req string, t *tally) error {
	doc := sr.d.anchorSpec
	lo, hi := anchorRhos[0], anchorRhos[len(anchorRhos)-1]
	rho := lo + 0.001 + rng.Float64()*(hi-lo-0.002)
	for _, a := range anchorRhos {
		if rho == a {
			rho += 0.0005
		}
	}
	doc.ID, doc.Rhos, doc.Mode, doc.ApproxTol = req, []float64{rho}, "approx", approxTol
	st, err := submit(ctx, c, mustJSON(doc), tr, parent, req, t)
	if err != nil {
		return err
	}
	switch {
	case st.Approx:
		t.approx++
	case st.Cached:
		t.hits++
	case st.Deduped:
		t.deduped++
	default:
		t.fallbacks++
	}
	if !st.Approx || st.State != serve.StateDone {
		return violationf("approx spec rho %.4f answered %s (approx=%v), want a surrogate answer", rho, st.State, st.Approx)
	}
	body, err := result(ctx, c, st.ID, tr, parent, req)
	if err != nil {
		return err
	}
	var res surrogate.Doc
	if err := json.Unmarshal(body, &res); err != nil {
		return violationf("approx result: %w", err)
	}
	if !res.Approx || res.Fingerprint != st.Fingerprint || len(res.Series) != 1 || len(res.Series[0].Points) != 1 {
		return violationf("approx result for %s is not a one-point surrogate answer", st.ID)
	}
	return nil
}

// exact submits a fresh spec, watches it to done over SSE and fetches the
// result, which must describe exactly the submitted grid. It returns the
// watch time and the result bytes.
func exact(ctx context.Context, c *serve.Client, doc spec.Experiment, tr *tracer, parent int64, req string, t *tally) (time.Duration, []byte, error) {
	st, err := submit(ctx, c, mustJSON(doc), tr, parent, req, t)
	if err != nil {
		return 0, nil, err
	}
	switch {
	case st.Cached:
		t.hits++
	case st.Deduped:
		t.deduped++
	default:
		t.exact++
	}
	if st.Cached || st.Deduped || st.State != serve.StateQueued {
		return 0, nil, violationf("fresh spec answered %s (cached=%v deduped=%v), want queued", st.State, st.Cached, st.Deduped)
	}
	sp := tr.begin("serve", "serve.watch", parent, req)
	fin, err := c.Watch(ctx, st.ID, nil)
	watch := sp.end()
	if err != nil {
		return watch, nil, err
	}
	if fin.State != serve.StateDone {
		return watch, nil, violationf("job %s ended %s: %s", st.ID, fin.State, fin.Error)
	}
	body, err := result(ctx, c, st.ID, tr, parent, req)
	if err != nil {
		return watch, nil, err
	}
	var res serve.ResultDoc
	if err := json.Unmarshal(body, &res); err != nil {
		return watch, nil, violationf("exact result: %w", err)
	}
	if res.Fingerprint != st.Fingerprint || res.Partial || len(res.Series) != len(doc.Schemes) || len(res.Series[0].Points) != len(doc.Rhos) {
		return watch, nil, violationf("exact result for %s does not describe the submitted grid", st.ID)
	}
	return watch, body, nil
}

// counterDelta returns after - before for every counter.
func counterDelta(before, after obs.Snapshot) map[string]int64 {
	out := map[string]int64{}
	for k, v := range after.Counters {
		out[k] = v - before.Counters[k]
	}
	return out
}

// reconcile checks the clients' observations against the daemon's /metrics
// deltas over the measured phase: every hit, surrogate answer and exact job
// the clients saw must be counted once, and nothing else may have run.
func reconcile(t tally, delta map[string]int64) []error {
	var errs []error
	eq := func(name string, want int) {
		if got := delta[name]; got != int64(want) {
			errs = append(errs, fmt.Errorf("/metrics %s rose by %d, clients observed %d", name, got, want))
		}
	}
	ran := t.exact + t.fallbacks
	eq("cache_hits", t.hits)
	eq("surrogate_hits", t.approx)
	eq("surrogate_fallbacks", t.fallbacks)
	eq("jobs_deduped", t.deduped)
	eq("jobs_queued", ran)
	eq("sim_runs", ran)
	eq("jobs_done", ran)
	return errs
}

// checkFold checks a coordinator's fold accounting: it must have folded
// exactly the replications its jobs expected, wantReps in all, with no
// double fold and none missing.
func checkFold(delta map[string]int64, wantReps int) error {
	f, e := delta["cluster_reps_folded"], delta["cluster_reps_expected"]
	if f != e || e != int64(wantReps) {
		return fmt.Errorf("cluster folded %d replications and expected %d, want %d", f, e, wantReps)
	}
	return nil
}
