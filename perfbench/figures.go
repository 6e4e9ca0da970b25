package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"prioritystar/internal/obs"
	"prioritystar/internal/sim"
	"prioritystar/internal/sweep"
	"prioritystar/internal/torus"
	"prioritystar/internal/traffic"
)

// figuresDigest is the SHA-256 of every table of every experiment in the
// figure registry at Quick scale (see tableDigest). The registry fixes its
// own simulation seeds, so the tables — and this digest — are the same on
// every run, in any experiment order; a change here means the figures the
// repository reproduces changed.
const figuresDigest = "695176333e936d896437521d2ed6eeaec73ae084284b6cc366721e6aa1ec725a"

// tableMetrics are the aggregates every figure table is digested over.
var tableMetrics = []sweep.Metric{
	sweep.MetricReception, sweep.MetricBroadcast, sweep.MetricUnicast,
	sweep.MetricHighWait, sweep.MetricLowWait, sweep.MetricAvgUtil, sweep.MetricMaxDimUtil,
}

// runFigures drives figures-quick: every experiment of the figure registry
// at Quick scale, one after another in a seed-chosen order, each through
// sweep.Experiment.Run with the default sweep worker count. One op is one
// pass over the whole registry, so an op's latency is the time to reproduce
// every figure. Passes repeat until the measured phase has lasted
// --seconds; at least one pass always runs.
func runFigures(r *run) error {
	order := sweep.FigureIDs()
	rng := rand.New(rand.NewSource(r.seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	fmt.Printf("order: %v\n", order)

	// Set-up is planning every cell of the registry. One plan takes about
	// 0.1 ms, too short to time alone, so each sample times a batch of
	// plans and setup_s is the median sample per plan. Planning's speed
	// swings between two levels with the host, 8 and 14 ms of CPU time per
	// 100 plans, which the reference does not follow (README.md, "Noise
	// and bounds").
	// Planning is one goroutine's work, and it runs on one P: on two, the
	// collector's background worker took the other vCPU and a run's median
	// batch came out anywhere from 14 to 25 ms; on one it stayed within
	// 14.7-15.4 ms.
	const setupRepeats, setupBatch = 21, 100
	procs := runtime.GOMAXPROCS(1)
	setup, err := timeSetup(r.sp, setupRepeats, func() error {
		for i := 0; i < setupBatch; i++ {
			if err := planFigures(order); err != nil {
				return err
			}
		}
		return nil
	}, nil)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return err
	}
	r.set("setup_s", setup.Seconds()/setupBatch, setupRepeats*setupBatch)
	if r.trace {
		return traceFigures(r, order)
	}

	// A batch job's memory is what it holds while it runs. The passes
	// keep both Ps busy for their whole length, so the reference work
	// runs beside them and takes its share of a P.
	rss := startRSS()
	stopRef := r.sp.background()
	defer stopRef()
	log := opLog{long: true}
	log.begin()
	for pass := 0; pass == 0 || time.Since(log.start) < r.seconds; pass++ {
		r.attempted++
		passStart := time.Now()
		results := map[string]*sweep.Result{}
		var errs []error
		for _, id := range order {
			exp, err := sweep.Figure(id, sweep.Quick)
			if err != nil {
				return err
			}
			start := time.Now()
			res, err := exp.Run()
			fmt.Printf("pass %d: %-22s %8.3f s\n", pass, id, time.Since(start).Seconds())
			if err != nil {
				errs = append(errs, fmt.Errorf("%s: %v", id, err))
				continue
			}
			if n := failedReps(res); n > 0 {
				errs = append(errs, fmt.Errorf("%s: %d replications failed", id, n))
			}
			results[id] = res
		}
		took := time.Since(passStart)
		if len(errs) > 0 {
			r.failed++
			r.checkAll(errs)
		} else {
			log.add(took)
		}
		r.checkAll(checkFigures(results))
		if d := tableDigest(results); d != figuresDigest {
			r.check(fmt.Errorf("figure tables digest %s, want %s", d, figuresDigest))
		}
	}
	stopRef()
	log.end(r.sp)
	rss.finish(r)
	fmt.Printf("figures: %d pass(es) in %.3f s wall, %.3f s CPU\n", r.attempted, log.wall.Seconds(), log.cpu.Seconds())
	log.publish(r)
	return nil
}

// planFigures resolves every (scheme, rho) cell of the listed experiments:
// traffic.RatesForRho and sweep.SchemeSpec.Build, which solve the balance
// equations (Eq. 2/4) and build the scheme tables. This is the set-up a
// sweep performs before its first simulation.
func planFigures(ids []string) error {
	for _, id := range ids {
		exp, err := sweep.Figure(id, sweep.Quick)
		if err != nil {
			return err
		}
		if err := exp.Validate(); err != nil {
			return err
		}
		shape, err := torus.New(exp.Dims...)
		if err != nil {
			return err
		}
		for si := range exp.Schemes {
			for ri := range exp.Rhos {
				if _, _, err := buildCell(exp, shape, si, ri, nil, 0); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// buildCell builds the simulation config of one cell the way a sweep does
// and returns how long that took.
func buildCell(exp *sweep.Experiment, shape *torus.Shape, si, ri int, tr *tracer, parent int64) (sim.Config, time.Duration, error) {
	sp := tr.begin("balance", "balance.build", parent, exp.ID)
	rates, err := traffic.RatesForRho(shape, exp.Rhos[ri], exp.BroadcastFrac, exp.Length.Mean(), exp.Model)
	if err != nil {
		return sim.Config{}, sp.end(), fmt.Errorf("%s: %w", exp.ID, err)
	}
	sch, err := exp.Schemes[si].Build(shape, rates, exp.Model)
	if err != nil {
		return sim.Config{}, sp.end(), fmt.Errorf("%s: %w", exp.ID, err)
	}
	return sim.Config{
		Shape: shape, Scheme: sch, Rates: rates, Length: exp.Length,
		Warmup: exp.Warmup, Measure: exp.Measure, Drain: exp.Drain,
		MaxBacklog: exp.MaxBacklog,
	}, sp.end(), nil
}

func failedReps(res *sweep.Result) int {
	n := 0
	for _, s := range res.Series {
		for _, p := range s.Points {
			n += p.FailedReps
		}
	}
	return n
}

// tableDigest hashes every metric table of every experiment, in ID order.
func tableDigest(results map[string]*sweep.Result) string {
	ids := make([]string, 0, len(results))
	for id := range results {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := sha256.New()
	for _, id := range ids {
		for _, m := range tableMetrics {
			fmt.Fprintf(h, "%s\n%s", id, results[id].Table(m))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// countProbe counts engine events for one batch; the batch runs on a single
// goroutine, so it needs no locking.
type countProbe struct {
	obs.Base
	services, enqueues, deliveries, slots int64
}

func (c *countProbe) Enqueue(int64, torus.LinkID, int, int, int)          { c.enqueues++ }
func (c *countProbe) Service(int64, torus.LinkID, int, int, int32, int64) { c.services++ }
func (c *countProbe) Deliver(int64, torus.Node, bool, bool, int64)        { c.deliveries++ }
func (c *countProbe) SlotEnd(int64, int64)                                { c.slots++ }

const overheadRef = "fig2+5"

// overheadReps is how many untraced and traced decompositions of
// overheadRef the traced run alternates to measure the tracing overhead.
const overheadReps = 5

// decomposition is one experiment run through sweep.Experiment.Subjobs /
// RunSubjob / Assemble, the same work Run does, one span per sub-job.
type decomposition struct {
	exp     *sweep.Experiment
	sjs     []sweep.Subjob
	records map[sweep.RepKey]sweep.RepRecord
	res     *sweep.Result
	// wall is the whole decomposition; busy sums the sub-jobs' durations,
	// longest is the longest of them.
	wall, busy, longest, assemble time.Duration
}

// decompose runs experiment id at Quick scale on workers goroutines,
// recording its spans in tr (nil: untraced).
func decompose(id string, workers int, tr *tracer) (*decomposition, error) {
	exp, err := sweep.Figure(id, sweep.Quick)
	if err != nil {
		return nil, err
	}
	root := tr.begin("sweep", "sweep.experiment", 0, id)
	sp := tr.begin("sweep", "sweep.subjobs", root.id, id)
	sjs, err := exp.Subjobs(nil)
	sp.end()
	if err != nil {
		return nil, err
	}
	// Run gives each batch one stripe when the cells outnumber the
	// workers, as they do in every registry experiment.
	exp.Workers = 1
	d := &decomposition{exp: exp, sjs: sjs, records: map[sweep.RepKey]sweep.RepRecord{}}
	var mu sync.Mutex
	var firstErr error
	start := time.Now()
	forEach(len(sjs), workers, func(k int) {
		sp := tr.begin("sweep", "sweep.run_subjob", root.id, id)
		recs, err := exp.RunSubjob(sjs[k])
		took := sp.end()
		mu.Lock()
		defer mu.Unlock()
		d.busy += took
		d.longest = max(d.longest, took)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		for _, rec := range recs {
			d.records[sweep.RepKey{Scheme: rec.Scheme, Rho: rec.Rho, Rep: rec.Rep}] = rec
		}
	})
	if firstErr != nil {
		return nil, fmt.Errorf("%s: %w", id, firstErr)
	}
	sp = tr.begin("sweep", "sweep.assemble", root.id, id)
	d.res = exp.Assemble(d.records, 0, time.Since(start))
	d.assemble = sp.end()
	d.wall = root.end()
	return d, nil
}

// traceOverhead alternates untraced and traced decompositions of
// overheadRef and returns the relative difference of their median walls.
// The traced ones record into a throwaway tracer, so the run's own spans
// and self times cover the registry pass alone.
func traceOverhead(workers int) (float64, error) {
	var plain, traced []float64
	for i := 0; i < overheadReps; i++ {
		for _, tr := range []*tracer{nil, newTracer()} {
			d, err := decompose(overheadRef, workers, tr)
			if err != nil {
				return 0, err
			}
			if tr == nil {
				plain = append(plain, d.wall.Seconds())
			} else {
				traced = append(traced, d.wall.Seconds())
			}
		}
	}
	return (median(traced) - median(plain)) / median(plain), nil
}

// traceFigures is the traced figures-quick run. Each experiment runs twice,
// both times on the default number of sweep workers:
//
//   - decomposed (see decompose), giving the sweep layer's numbers; the
//     assembled tables must match Run's digest;
//   - replayed cell by cell through the balance solve and
//     sim.(*BatchRunner).Run with a counting probe attached, giving the
//     balance and sim layers' numbers. The replay's reception delays must
//     equal the sub-jobs' bit for bit (a probe never changes a trajectory).
//
// sweep.run_ms is one untraced Run of overheadRef, one of the shortest
// experiments; the tracing overhead is measured on its decomposition.
func traceFigures(r *run, order []string) error {
	tr := r.tr
	workers := runtime.GOMAXPROCS(0)
	results := map[string]*sweep.Result{}
	var subjobs int
	var longest, subjobBusy, decompWall, assemble time.Duration
	var simBusy, build time.Duration
	var slots, services, enqueues, deliveries int64
	var allocMB float64
	var allocBefore, allocAfter runtime.MemStats

	ref, err := sweep.Figure(overheadRef, sweep.Quick)
	if err != nil {
		return err
	}
	start := time.Now()
	if _, err := ref.Run(); err != nil {
		return err
	}
	r.set("sweep.run_ms", ms(time.Since(start)), 1)
	overhead, err := traceOverhead(workers)
	if err != nil {
		return err
	}
	r.set("trace.overhead_frac", overhead, overheadReps)

	for _, id := range order {
		d, err := decompose(id, workers, tr)
		if err != nil {
			return err
		}
		exp, sjs, records := d.exp, d.sjs, d.records
		subjobs += len(sjs)
		subjobBusy += d.busy
		longest = max(longest, d.longest)
		assemble += d.assemble
		decompWall += d.wall
		results[id] = d.res
		if n := failedReps(d.res); n > 0 {
			r.check(fmt.Errorf("%s: %d replications failed", id, n))
		}

		// Kernel replay.
		shape, err := torus.New(exp.Dims...)
		if err != nil {
			return err
		}
		var mu sync.Mutex
		var firstErr error
		replay := tr.begin("sim", "sim.replay", 0, id)
		runtime.ReadMemStats(&allocBefore)
		forEach(len(sjs), workers, func(k int) {
			sj := sjs[k]
			cfg, took, err := buildCell(exp, shape, sj.Scheme, sj.Rho, tr, replay.id)
			probe := &countProbe{}
			var busy time.Duration
			var outs []sim.RepResult
			if err == nil {
				cfg.Probe = probe
				sp := tr.begin("sim", "sim.batch_run", replay.id, id)
				var br sim.BatchRunner
				outs, err = br.Run(sim.Batch{Base: cfg, Seeds: sj.Seeds, Workers: 1})
				busy = sp.end()
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			simBusy += busy
			build += took
			slots += probe.slots
			services += probe.services
			enqueues += probe.enqueues
			deliveries += probe.deliveries
			for j, rep := range sj.Reps {
				rec := records[sweep.RepKey{Scheme: sj.Scheme, Rho: sj.Rho, Rep: rep}]
				if outs[j].Err != nil {
					continue
				}
				if got, want := outs[j].Result.Reception.Mean(), float64(rec.Reception); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					r.check(fmt.Errorf("%s cell (%d,%d) rep %d: probed replay reception %v != sub-job %v",
						id, sj.Scheme, sj.Rho, rep, got, want))
				}
			}
		})
		runtime.ReadMemStats(&allocAfter)
		replay.end()
		if firstErr != nil {
			return fmt.Errorf("%s replay: %w", id, firstErr)
		}
		allocMB += float64(allocAfter.TotalAlloc-allocBefore.TotalAlloc) / (1 << 20)
	}
	// The traced run is one pass over the registry: one op.
	r.attempted = 1
	if len(r.failures) > 0 {
		r.failed = 1
	}
	r.checkAll(checkFigures(results))
	if d := tableDigest(results); d != figuresDigest {
		r.check(fmt.Errorf("decomposed figure tables digest %s, want %s", d, figuresDigest))
	}

	r.set("sim.busy_s", simBusy.Seconds(), subjobs)
	r.set("sim.slots_per_s", float64(slots)/simBusy.Seconds(), subjobs)
	r.set("sim.services", float64(services), subjobs)
	r.set("sim.enqueues", float64(enqueues), subjobs)
	r.set("sim.deliveries", float64(deliveries), subjobs)
	r.set("sim.ns_per_service", float64(simBusy.Nanoseconds())/float64(services), subjobs)
	r.set("sim.alloc_mb", allocMB, len(order))
	r.set("balance.build_ms", ms(build), subjobs)
	r.set("sweep.subjobs", float64(subjobs), len(order))
	r.set("sweep.assemble_ms", ms(assemble), len(order))
	r.set("sweep.longest_subjob_s", longest.Seconds(), subjobs)
	r.set("sweep.worker_idle_frac", 1-subjobBusy.Seconds()/(decompWall.Seconds()*float64(workers)), len(order))
	return nil
}

// forEach calls fn(0..n-1) from at most workers goroutines and waits.
func forEach(n, workers int, fn func(int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				fn(k)
			}
		}()
	}
	for k := 0; k < n; k++ {
		next <- k
	}
	close(next)
	wg.Wait()
}
