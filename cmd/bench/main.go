// Command bench runs the figure-class simulator benchmarks outside `go
// test` and appends a record to the BENCH_sim.json trajectory, so the
// performance history of the engine (ns/op, allocs/op, simulated slots per
// second) can be tracked across changes.
//
//	bench -out BENCH_sim.json                     # append a record for the current tree
//	bench -baseline old.json -out BENCH_sim.json  # also embed before/after speedups
//	bench -quick -out -                           # smoke-sized (CI), record to stdout
//	bench -quick -gate BENCH_sim.json             # fail on >10% slots/s regression
//	bench -pprof bench                            # bench.cpu.pprof + bench.mem.pprof
//
// BENCH_sim.json is a JSON-lines trajectory (schema prioritystar-bench/v3):
// a header line, then one record per run, oldest first, each stamped with
// the time and the git revision of the measured tree (see gitRev). -out
// appends; -gate and -baseline compare against the latest record of their
// file of the same size, -quick or full (see latest). With -baseline, each
// benchmark that also appears in that record reports its slots/sec as
// "before" alongside the fresh measurement, plus the resulting speedup.
//
// Records carry the v2 measurement fields: per-measurement mode
// ("sequential" or "batched"), replication counts, and aggregate slots per
// second for batched multi-replication workloads. A single-document v1 or
// v2 file (the format before the trajectory) reads as a one-record
// trajectory, and appending to one converts it, keeping it as the first
// record.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"prioritystar"
	"prioritystar/internal/obs"
)

// workload is one benchmark: a topology and operating point, simulated for
// at most Warmup+Measure+Drain slots per iteration (a run ends once its
// measured work is done, so slots/s counts the slots each run reports as
// simulated). Reps > 0 marks a batched workload: each iteration runs Reps
// replications through one SimulateBatch call.
type workload struct {
	Name string
	Dims []int
	Rho  float64
	Frac float64 // fraction of transmission load from broadcasts
	Mean float64 // packet length mean (1 = unit lengths)
	Reps int     // 0 = one sequential replication per iteration

	Warmup, Measure, Drain int64
}

// workloads mirrors the figure benchmarks of bench_test.go, plus the
// low-rho operating points (rho <= 0.5) where the event-driven engine's
// advantage over a full link scan is largest — the regime the paper's
// delay analysis targets — plus the engine-batched/* series measuring the
// batched multi-replication path at the standard 8x8 workloads.
func workloads(quick bool, mode string) []workload {
	scale := int64(1)
	if quick {
		scale = 4
	}
	mk := func(name string, dims []int, rho, frac float64, warm, meas, drain int64) workload {
		return workload{Name: name, Dims: dims, Rho: rho, Frac: frac, Mean: 1,
			Warmup: warm / scale, Measure: meas / scale, Drain: drain / scale}
	}
	mkBatch := func(name string, dims []int, rho float64, reps int, meas int64) workload {
		w := mk(name, dims, rho, 1, 0, meas, 0)
		w.Reps = reps
		return w
	}
	seq := []workload{
		mk("engine/8x8/rho0.2", []int{8, 8}, 0.2, 1, 0, 2000, 0),
		mk("engine/8x8/rho0.9", []int{8, 8}, 0.9, 1, 0, 2000, 0),
		mk("fig2/reception/8x8/rho0.3", []int{8, 8}, 0.3, 1, 600, 2500, 1200),
		mk("fig2/reception/8x8/rho0.8", []int{8, 8}, 0.8, 1, 600, 2500, 1200),
		mk("fig3/reception/16x16/rho0.1", []int{16, 16}, 0.1, 1, 600, 2500, 1200),
		mk("fig3/reception/16x16/rho0.3", []int{16, 16}, 0.3, 1, 600, 2500, 1200),
		mk("fig4/reception/8x8x8/rho0.2", []int{8, 8, 8}, 0.2, 1, 300, 1200, 600),
		mk("fig4/reception/8x8x8/rho0.5", []int{8, 8, 8}, 0.5, 1, 300, 1200, 600),
		mk("fig8/hetero/4x4x8/rho0.5", []int{4, 4, 8}, 0.5, 0.5, 600, 2500, 1200),
		mk("hypercube8/rho0.5", []int{2, 2, 2, 2, 2, 2, 2, 2}, 0.5, 1, 300, 1200, 600),
	}
	batched := []workload{
		mkBatch("engine-batched/8x8/rho0.2", []int{8, 8}, 0.2, 8, 2000),
		mkBatch("engine-batched/8x8/rho0.9", []int{8, 8}, 0.9, 8, 2000),
		mkBatch("engine-batched/16x16/rho0.3", []int{16, 16}, 0.3, 8, 2000),
	}
	switch mode {
	case "sequential":
		return seq
	case "batched":
		return batched
	default:
		return append(seq, batched...)
	}
}

// Measurement is one benchmark's recorded numbers. SlotsPerSec and
// SlotsPerIter count the slots the runs actually simulated (sim.Result.Slots),
// not the configured horizon: a run that finishes its measured work early is
// not credited with slots it never ran.
type Measurement struct {
	Name         string  `json:"name"`
	Mode         string  `json:"mode,omitempty"` // "sequential" | "batched" (v2)
	Reps         int     `json:"reps,omitempty"` // replications per iteration (v2)
	Iterations   int     `json:"iterations"`
	NsPerOp      float64 `json:"ns_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	SlotsPerSec  float64 `json:"slots_per_sec"`
	SlotsPerIter int64   `json:"slots_per_iter"`
	// AggregateSlotsPerSec is total simulated slots per wall-clock second
	// summed over every replication an iteration advances: for a batched
	// workload this is the Reps replications' slots over time, the
	// sweep-facing throughput; for a sequential one it equals SlotsPerSec.
	// (v2)
	AggregateSlotsPerSec float64 `json:"aggregate_slots_per_sec,omitempty"`

	// Before/after comparison, present only when -baseline matched.
	BaselineSlotsPerSec float64 `json:"baseline_slots_per_sec,omitempty"`
	BaselineNsPerOp     float64 `json:"baseline_ns_per_op,omitempty"`
	BaselineAllocsPerOp int64   `json:"baseline_allocs_per_op,omitempty"`
	Speedup             float64 `json:"speedup,omitempty"`

	// Probe-attached variant, present only with -probe: the same workload
	// measured with the standard observability bundle attached, and the
	// fractional slowdown it causes ((plain - probed) / plain).
	ProbeSlotsPerSec float64 `json:"probe_slots_per_sec,omitempty"`
	ProbeOverhead    float64 `json:"probe_overhead,omitempty"`
}

// Record is one bench run: a line of the BENCH_sim.json trajectory.
type Record struct {
	Time       string        `json:"time,omitempty"`
	Rev        string        `json:"rev,omitempty"`
	Schema     string        `json:"schema,omitempty"` // set only on converted v1/v2 documents
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	Quick      bool          `json:"quick,omitempty"`
	Benchmarks []Measurement `json:"benchmarks"`
}

// header is the first line of a trajectory.
type header struct {
	Schema string `json:"schema"`
}

// schemaV1 and schemaV2 are the single-document formats that preceded the
// trajectory; schemaV3 is the trajectory header.
const (
	schemaV1 = "prioritystar-bench/v1"
	schemaV2 = "prioritystar-bench/v2"
	schemaV3 = "prioritystar-bench/v3"
)

// parseTrajectory decodes a trajectory, or a legacy v1/v2 document as a
// one-record trajectory. legacy reports the latter.
func parseTrajectory(data []byte) (recs []Record, legacy bool, err error) {
	var doc Record
	if json.Unmarshal(data, &doc) == nil && (doc.Schema == schemaV1 || doc.Schema == schemaV2) {
		return []Record{doc}, true, nil
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var h header
	if err := json.Unmarshal(lines[0], &h); err != nil || h.Schema != schemaV3 {
		return nil, false, fmt.Errorf("neither a %s trajectory nor a %s or %s document", schemaV3, schemaV1, schemaV2)
	}
	for i, line := range lines[1:] {
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, false, fmt.Errorf("line %d: %v", i+2, err)
		}
		recs = append(recs, r)
	}
	return recs, false, nil
}

// latest reads the trajectory at path and returns its most recent record
// of the given size (-quick or full), or its most recent record when it
// has none of that size: quick runs amortize per-run set-up over 4x fewer
// slots, so they compare fairly only with quick records.
func latest(path string, quick bool) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	recs, _, err := parseTrajectory(data)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %v", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: trajectory has no records", path)
	}
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Quick == quick {
			return &recs[i], nil
		}
	}
	return &recs[len(recs)-1], nil
}

// appendRecord appends rec to the trajectory at path, creating it when
// absent or empty and converting a legacy v1/v2 document into the
// trajectory's first record. Existing record lines are kept byte for byte,
// and the file is replaced atomically.
func appendRecord(path string, rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	out, _ := json.Marshal(header{Schema: schemaV3})
	out = append(out, '\n')
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist) || err == nil && len(bytes.TrimSpace(data)) == 0:
	case err != nil:
		return err
	default:
		recs, legacy, err := parseTrajectory(data)
		if err != nil {
			return fmt.Errorf("parsing %s: %v", path, err)
		}
		if !legacy {
			out = append(bytes.TrimRight(data, "\n"), '\n')
			break
		}
		first, err := json.Marshal(recs[0])
		if err != nil {
			return err
		}
		out = append(append(out, first...), '\n')
	}
	out = append(append(out, line...), '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// gitRev names the measured tree: the build's VCS stamp, else the HEAD of
// the git checkout in the working directory. When the tracked Go sources
// differ from HEAD it appends "+dirty." and a hash of that diff, so two
// different uncommitted trees never share a stamp. "" when neither source
// of a revision is available.
func gitRev() string {
	if rev := obs.GitRevision(); rev != "" {
		return rev
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	rev := strings.TrimSpace(string(out))
	diff, err := exec.Command("git", "diff", "HEAD", "--", "*.go", "go.mod").Output()
	if err == nil && len(diff) > 0 {
		rev += fmt.Sprintf("+dirty.%.6x", sha256.Sum256(diff))
	}
	return rev
}

func run(w workload, probe bool) (Measurement, error) {
	shape, err := prioritystar.NewTorus(w.Dims...)
	if err != nil {
		return Measurement{}, err
	}
	rates, err := prioritystar.RatesForRho(shape, w.Rho, w.Frac, w.Mean, prioritystar.ExactDistance)
	if err != nil {
		return Measurement{}, err
	}
	scheme, err := prioritystar.PrioritySTAR(shape, rates, prioritystar.ExactDistance)
	if err != nil {
		return Measurement{}, err
	}
	base := prioritystar.SimConfig{
		Shape: shape, Scheme: scheme, Rates: rates,
		Warmup: w.Warmup, Measure: w.Measure, Drain: w.Drain,
	}
	// br persists across testing.Benchmark's sizing rounds so the measured
	// (final) round runs on warm engines — the same steady state the
	// sequential path gets from the package-level runner pool.
	var br prioritystar.SimBatchRunner
	// measure returns the benchmark result and the slots simulated in its
	// final (reported) round.
	measure := func(attach bool) (testing.BenchmarkResult, int64, error) {
		var benchErr error
		var slots int64
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			slots = 0 // every sizing round starts over; the last one is reported
			if w.Reps > 0 {
				// Batched: each iteration advances Reps replications
				// through one SimulateBatch call, reusing the runner's
				// engines across iterations like a sweep worker would.
				seeds := make([]uint64, w.Reps)
				for i := 0; i < b.N; i++ {
					for r := range seeds {
						seeds[r] = uint64(i*w.Reps+r) + 1
					}
					out, err := br.Run(prioritystar.SimBatch{Base: base, Seeds: seeds})
					if err != nil {
						benchErr = err
						b.FailNow()
					}
					for _, rr := range out {
						if rr.Err != nil {
							benchErr = rr.Err
							b.FailNow()
						}
						slots += rr.Result.Slots
					}
				}
				return
			}
			for i := 0; i < b.N; i++ {
				cfg := base
				cfg.Seed = uint64(i + 1)
				if attach {
					cfg.Probe = prioritystar.NewStandardProbes(shape, w.Warmup, w.Measure)
				}
				res, err := prioritystar.Simulate(cfg)
				if err != nil {
					benchErr = err
					b.FailNow()
				}
				slots += res.Slots
			}
		})
		return r, slots, benchErr
	}
	r, slots, err := measure(false)
	if err != nil {
		return Measurement{}, err
	}
	// The headline slots/s is the aggregate in both modes: simulated slots
	// over every replication (one for a sequential workload) per second.
	m := Measurement{
		Name:                 w.Name,
		Mode:                 "sequential",
		Reps:                 max(w.Reps, 1),
		Iterations:           r.N,
		NsPerOp:              float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:           r.AllocedBytesPerOp(),
		AllocsPerOp:          r.AllocsPerOp(),
		SlotsPerSec:          float64(slots) / r.T.Seconds(),
		SlotsPerIter:         slots / int64(r.N),
		AggregateSlotsPerSec: float64(slots) / r.T.Seconds(),
	}
	if w.Reps > 0 {
		m.Mode = "batched"
	}
	if probe && w.Reps == 0 {
		pr, prSlots, err := measure(true)
		if err != nil {
			return Measurement{}, err
		}
		m.ProbeSlotsPerSec = float64(prSlots) / pr.T.Seconds()
		m.ProbeOverhead = (m.SlotsPerSec - m.ProbeSlotsPerSec) / m.SlotsPerSec
	}
	return m, nil
}

// gateCheck compares fresh measurements against the committed floor record:
// any workload present in both whose fresh slots/s fall more than tol below
// the committed number is a regression.
func gateCheck(fresh []Measurement, committed *Record, tol float64) []string {
	floor := make(map[string]Measurement, len(committed.Benchmarks))
	for _, m := range committed.Benchmarks {
		floor[m.Name] = m
	}
	var failures []string
	for _, m := range fresh {
		c, ok := floor[m.Name]
		if !ok || c.SlotsPerSec <= 0 {
			continue
		}
		if m.SlotsPerSec < (1-tol)*c.SlotsPerSec {
			failures = append(failures, fmt.Sprintf(
				"%s: %.0f slots/s is %.1f%% below committed %.0f (tolerance %.0f%%)",
				m.Name, m.SlotsPerSec, 100*(1-m.SlotsPerSec/c.SlotsPerSec), c.SlotsPerSec, 100*tol))
		}
	}
	return failures
}

func main() {
	out := flag.String("out", "BENCH_sim.json", "trajectory to append the record to ('-' for stdout)")
	baseline := flag.String("baseline", "", "trajectory whose latest record is embedded as the 'before' numbers")
	quick := flag.Bool("quick", false, "smoke-sized workloads (4x fewer slots)")
	probe := flag.Bool("probe", false, "also measure each workload with the standard probe bundle attached")
	mode := flag.String("mode", "both", "which series to run: sequential, batched, or both")
	gate := flag.String("gate", "", "trajectory whose latest record is the regression floor (exit 1 on regression; skips -out)")
	gateTol := flag.Float64("gate-tol", 0.10, "fractional slots/s regression tolerated by -gate")
	pprofOut := flag.String("pprof", "", "profile prefix: writes PREFIX.cpu.pprof and PREFIX.mem.pprof")
	flag.Parse()

	switch *mode {
	case "sequential", "batched", "both":
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown -mode %q (want sequential, batched, or both)\n", *mode)
		os.Exit(2)
	}

	var before map[string]Measurement
	if *baseline != "" {
		f, err := latest(*baseline, *quick)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		before = make(map[string]Measurement, len(f.Benchmarks))
		for _, m := range f.Benchmarks {
			before[m.Name] = m
		}
	}
	var gateFloor *Record
	if *gate != "" {
		f, err := latest(*gate, *quick)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		gateFloor = f
	}

	if *pprofOut != "" {
		f, err := os.Create(*pprofOut + ".cpu.pprof")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			mf, err := os.Create(*pprofOut + ".mem.pprof")
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return
			}
			defer mf.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
			}
		}()
	}

	file := Record{
		Time:      time.Now().UTC().Format(time.RFC3339),
		Rev:       gitRev(),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Quick:     *quick,
	}
	for _, w := range workloads(*quick, *mode) {
		m, err := run(w, *probe)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
			os.Exit(1)
		}
		if b, ok := before[m.Name]; ok && b.SlotsPerSec > 0 {
			m.BaselineSlotsPerSec = b.SlotsPerSec
			m.BaselineNsPerOp = b.NsPerOp
			m.BaselineAllocsPerOp = b.AllocsPerOp
			m.Speedup = m.SlotsPerSec / b.SlotsPerSec
		}
		file.Benchmarks = append(file.Benchmarks, m)
		switch {
		case m.Speedup > 0:
			fmt.Printf("%-32s %12.0f slots/s  %8d allocs/op  (%.2fx vs baseline)\n",
				m.Name, m.SlotsPerSec, m.AllocsPerOp, m.Speedup)
		case m.ProbeSlotsPerSec > 0:
			fmt.Printf("%-32s %12.0f slots/s  %8d allocs/op  (probed %.0f slots/s, %+.1f%% overhead)\n",
				m.Name, m.SlotsPerSec, m.AllocsPerOp, m.ProbeSlotsPerSec, 100*m.ProbeOverhead)
		default:
			fmt.Printf("%-32s %12.0f slots/s  %8d allocs/op\n", m.Name, m.SlotsPerSec, m.AllocsPerOp)
		}
	}

	if gateFloor != nil {
		failures := gateCheck(file.Benchmarks, gateFloor, *gateTol)
		if len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintln(os.Stderr, "bench: REGRESSION:", f)
			}
			os.Exit(1)
		}
		fmt.Printf("bench: gate passed (%d workloads within %.0f%% of %s)\n",
			len(file.Benchmarks), 100**gateTol, *gate)
		return
	}

	if *out == "-" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		os.Stdout.Write(append(data, '\n'))
		return
	}
	if err := appendRecord(*out, file); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println("appended a record to", *out)
}
