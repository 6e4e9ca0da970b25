// Command perfbench is the repository benchmark. It measures the two things
// the repository's users wait on — regenerating the paper's figures and
// getting answers from the simulation service — and, in a separate traced
// run, breaks them down by layer.
//
//	bash perfbench/run.sh --workload figures-quick --seed 1 --seconds 10 --trace 0
//
// Each run is one fresh process driving one workload. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; with --trace 0 the metrics are the end-to-end set, with
// --trace 1 the per-layer set (see BENCHMARK.json). Every run checks its
// outputs and exits non-zero when a check fails.
//
// The benchmark only calls the repository's packages through their public
// functions; it changes nothing inside the program.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd is the metric set of an untraced run; every workload reports
// every name (the op a workload counts is defined in BENCHMARK.json).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
}

// perLayer is the metric set of a traced run. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"sim.busy_s", "s"},
	{"sim.slots_per_s", "1/s"},
	{"sim.services", "count"},
	{"sim.enqueues", "count"},
	{"sim.deliveries", "count"},
	{"sim.ns_per_service", "ns"},
	{"sim.alloc_mb", "MB"},
	{"balance.build_ms", "ms"},
	{"sweep.subjobs", "count"},
	{"sweep.assemble_ms", "ms"},
	{"sweep.longest_subjob_s", "s"},
	{"sweep.worker_idle_frac", "ratio"},
	{"sweep.run_ms", "ms"},
	{"spec.decode_us", "us"},
	{"spec.fingerprint_us", "us"},
	{"serve.submit_inproc_us", "us"},
	{"serve.submit_http_us", "us"},
	{"serve.result_us", "us"},
	{"serve.watch_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.sim_runs", "count"},
	{"serve.jobs_deduped", "count"},
	{"serve.rejected", "count"},
	{"serve.client_retries", "count"},
	{"serve.queue_depth_peak", "count"},
	{"serve.heap_kb_per_op", "KB"},
	{"surrogate.hit_ratio", "ratio"},
	{"surrogate.evaluate_us", "us"},
	{"surrogate.add_exact_us", "us"},
	{"journal.sync_append_us", "us"},
	{"journal.wal_records_per_job", "count"},
	{"journal.wal_bytes_per_job", "B"},
	{"journal.cache_bytes_per_job", "B"},
	{"journal.ckpt_files_left", "count"},
	{"cluster.runjob_ms", "ms"},
	{"cluster.subjobs_per_job", "count"},
	{"cluster.duplicate_ratio", "ratio"},
	{"cluster.hedges", "count"},
	{"cluster.hedge_win_ratio", "ratio"},
	{"cluster.local_frac", "ratio"},
	{"cluster.redispatched", "count"},
	{"cluster.breaker_opens", "count"},
	{"self.sim_s", "s"},
	{"self.balance_s", "s"},
	{"self.sweep_s", "s"},
	{"self.spec_s", "s"},
	{"self.serve_s", "s"},
	{"self.surrogate_s", "s"},
	{"self.journal_s", "s"},
	{"self.cluster_s", "s"},
	{"self.client_s", "s"},
	{"trace.spans", "count"},
	{"trace.overhead_frac", "ratio"},
}

// workload is one named workload: the function that drives it and how many
// Ps (GOMAXPROCS) its process runs on, 0 meaning the Go default of one per
// CPU.
type workload struct {
	drive func(*run) error
	procs int
}

// workloads maps each workload name to the function that runs it.
//
// The serve workloads run on one P. Their ops hand off between the client,
// the HTTP server, the queue and the sweep workers many times each, and
// with two Ps each handoff could wake the other vCPU, which took as long as
// the host's load made it take: on a 2-vCPU VM that shares its host,
// serve-write's ops/s ranged from 50 to 118 over five runs with two Ps and
// from 86 to 94 with one. figures-quick keeps the default: its sub-jobs run
// for seconds without a handoff, and its traced run, 57-70 s on two Ps,
// would come close to the 180 s a run may take on one.
var workloads = map[string]workload{
	"figures-quick": {runFigures, 0},
	"serve-hit":     {func(r *run) error { return runServe(r, opHit) }, 1},
	"serve-approx":  {func(r *run) error { return runServe(r, opApprox) }, 1},
	"serve-write":   {func(r *run) error { return runServe(r, opExact) }, 1},
}

// workdir holds everything a run writes: scratch daemons' journals (removed
// when the run ends) and traced runs' span files. It is relative to the
// checkout root the benchmark runs from, and ignored by git.
const workdir = ".bench_build"

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	tmp      string  // scratch directory inside the checkout
	tr       *tracer // nil on untraced runs
	sp       *speedo // the host's speed over each timed phase

	attempted, failed int
	metrics           map[string]float64
	samples           map[string]int
	failures          []string // failed correctness checks
}

func (r *run) set(name string, v float64, n int) {
	r.metrics[name] = v
	r.samples[name] = n
}

// check records a correctness failure; the run reports correct=false and
// exits non-zero.
func (r *run) check(err error) {
	if err != nil {
		r.failures = append(r.failures, err.Error())
	}
}

func (r *run) checkAll(errs []error) {
	for _, err := range errs {
		r.check(err)
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Int("seconds", 10, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	tmp, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r := &run{
		workload: *workload, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1, tmp: tmp, sp: &speedo{},
		metrics: map[string]float64{}, samples: map[string]int{},
	}
	if r.trace {
		r.tr = newTracer()
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s tempdir_fs=%s\n",
		r.workload, r.seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(tmp))
	err = w.drive(r)
	os.RemoveAll(tmp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	if r.trace {
		r.finishTrace(filepath.Join(workdir, "traces"))
	}
	if !r.report() {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// finishTrace derives the per-layer self times and span count, and writes
// the spans out.
func (r *run) finishTrace(dir string) {
	for layer, s := range r.tr.selfTimes() {
		r.set("self."+layer+"_s", s.Seconds(), 1)
	}
	r.set("trace.spans", float64(r.tr.len()), 1)
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
	if err := r.tr.writeFile(path); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		return
	}
	fmt.Printf("spans: %s\n", path)
}

// report prints every metric with its unit and sample count, the check
// results, and the final JSON line. It returns false when the run must fail.
func (r *run) report() bool {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	ok := true
	for _, d := range defs {
		v, have := r.metrics[d.name]
		if !have && !r.trace {
			r.failures = append(r.failures, "metric "+d.name+" was not measured")
			continue
		}
		out[d.name] = value{v, d.unit}
		fmt.Printf("metric %-28s %14.6g %-6s samples=%d\n", d.name, v, d.unit, r.samples[d.name])
	}
	for _, f := range r.failures {
		fmt.Printf("CHECK FAILED: %s\n", f)
		ok = false
	}
	if ok {
		fmt.Println("checks: all passed")
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{ok, r.attempted, r.failed, out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return false
	}
	fmt.Println(string(line))
	return ok
}
