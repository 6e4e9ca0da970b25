// Command trace records and inspects binary event traces of the simulator.
//
// Record one instrumented run (writes the trace plus a .manifest.json
// sidecar, then replays the trace to verify it reproduces the live run):
//
//	trace -record run.trace -shape 8x8 -scheme priority-star -rho 0.8
//
// Inspect a recorded trace (prints the embedded manifest and the replayed
// event summary; -events N additionally dumps the first N records):
//
//	trace -inspect run.trace
//	trace -inspect run.trace -events 20
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"prioritystar"
	"prioritystar/internal/cli"
	"prioritystar/internal/obs"
	"prioritystar/internal/sim"
	"prioritystar/internal/traffic"
)

func main() {
	var (
		record  = flag.String("record", "", "run one simulation and record its event trace to this path")
		inspect = flag.String("inspect", "", "replay a recorded trace and print its summary")
		events  = flag.Int("events", 0, "with -inspect, also dump the first N decoded events")

		shape   = flag.String("shape", "8x8", "torus shape, e.g. 8x8 or 4x4x8")
		scheme  = flag.String("scheme", "priority-star", "routing scheme: "+cli.SchemeNames())
		rho     = flag.Float64("rho", 0.8, "throughput factor")
		frac    = flag.Float64("frac", 1, "fraction of transmission load from broadcasts")
		lenStr  = flag.String("len", "fixed:1", "packet lengths: fixed:N or geom:MEAN")
		seed    = flag.Uint64("seed", 1, "RNG seed")
		warmup  = flag.Int64("warmup", 1000, "warm-up slots")
		measure = flag.Int64("measure", 5000, "measurement slots")
		drain   = flag.Int64("drain", 2000, "maximum drain slots (a run ends once its measured tasks finish)")
	)
	flag.Parse()

	var err error
	switch {
	case *record != "" && *inspect != "":
		err = fmt.Errorf("-record and -inspect are mutually exclusive")
	case *record != "":
		err = runRecord(*record, *shape, *scheme, *lenStr, *rho, *frac, *seed, *warmup, *measure, *drain)
	case *inspect != "":
		err = runInspect(*inspect, *events)
	default:
		err = fmt.Errorf("pass -record PATH or -inspect PATH")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
}

// runRecord executes one instrumented simulation, streams its events to
// path, writes the manifest sidecar, and then replays the freshly written
// trace to verify it reproduces the live run's delivery counts.
func runRecord(path, shapeStr, schemeStr, lenStr string, rho, frac float64,
	seed uint64, warmup, measure, drain int64) error {
	dims, err := cli.ParseShape(shapeStr)
	if err != nil {
		return err
	}
	schemeSpec, err := cli.SchemeByName(schemeStr)
	if err != nil {
		return err
	}
	length, err := cli.ParseLength(lenStr)
	if err != nil {
		return err
	}
	shape, err := prioritystar.NewTorus(dims...)
	if err != nil {
		return err
	}
	rates, err := traffic.RatesForRho(shape, rho, frac, length.Mean(), prioritystar.ExactDistance)
	if err != nil {
		return err
	}
	sch, err := schemeSpec.Build(shape, rates, prioritystar.ExactDistance)
	if err != nil {
		return err
	}

	m := obs.NewManifest(dims, schemeSpec.Name, seed, rates.LambdaB, rates.LambdaR,
		warmup, measure, drain)
	m.Rho = rho
	m.Length = lenStr
	m.CreatedAt = time.Now().UTC().Format(time.RFC3339)

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tw, err := obs.NewTraceWriter(f, m)
	if err != nil {
		f.Close()
		return err
	}
	cnt := &obs.Counters{}
	res, err := sim.Run(sim.Config{
		Shape: shape, Scheme: sch, Rates: rates, Length: length, Seed: seed,
		Warmup: warmup, Measure: measure, Drain: drain,
		Probe: obs.Multi{tw, cnt},
	})
	if err != nil {
		f.Close()
		return err
	}
	if err := tw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := m.Save(obs.ManifestPath(path)); err != nil {
		return err
	}

	// Replay verification: the recorded stream must reproduce the live run.
	sum, err := summarizeFile(path)
	if err != nil {
		return fmt.Errorf("replaying %s: %w", path, err)
	}
	if sum.Delivers != cnt.Delivers || sum.Finals != cnt.Finals || sum.Services != cnt.Services {
		return fmt.Errorf("replay mismatch: trace has %d delivers / %d finals / %d services, live run had %d / %d / %d",
			sum.Delivers, sum.Finals, sum.Services, cnt.Delivers, cnt.Finals, cnt.Services)
	}

	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d events, %d bytes, %.1f B/event) and %s\n",
		path, sum.Events, st.Size(), float64(st.Size())/float64(sum.Events), obs.ManifestPath(path))
	fmt.Printf("replay verified: %d deliveries (%d final), %d services over %d slots\n",
		sum.Delivers, sum.Finals, sum.Services, sum.Slots)
	fmt.Printf("live run: reception delay %.3f, avg utilization %.4f\n",
		res.Reception.Mean(), res.AvgUtilization)
	return nil
}

// runInspect prints a recorded trace's manifest and replayed summary.
func runInspect(path string, events int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := obs.NewTraceReader(f)
	if err != nil {
		return err
	}

	mj, err := json.MarshalIndent(r.Manifest(), "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("manifest:\n%s\n", mj)

	for i := 0; i < events; i++ {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		fmt.Printf("event %4d: %s\n", i, formatEvent(ev))
	}

	sum, err := obs.Summarize(r)
	if err != nil {
		return err
	}
	if events > 0 {
		// Summarize consumed only the remaining records; refold the dumped
		// prefix by replaying from the start for an accurate total.
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return err
		}
		r2, err := obs.NewTraceReader(f)
		if err != nil {
			return err
		}
		if sum, err = obs.Summarize(r2); err != nil {
			return err
		}
	}
	sj, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("summary:\n%s\n", sj)
	return nil
}

func summarizeFile(path string) (obs.TraceSummary, error) {
	f, err := os.Open(path)
	if err != nil {
		return obs.TraceSummary{}, err
	}
	defer f.Close()
	r, err := obs.NewTraceReader(f)
	if err != nil {
		return obs.TraceSummary{}, err
	}
	return obs.Summarize(r)
}

func formatEvent(ev obs.Event) string {
	switch ev.Type {
	case obs.EvEnqueue:
		return fmt.Sprintf("slot %6d enqueue  link %d dim %d class %d depth %d",
			ev.Slot, ev.Link, ev.Dim, ev.Class, ev.Depth)
	case obs.EvService:
		return fmt.Sprintf("slot %6d service  link %d dim %d class %d len %d wait %d",
			ev.Slot, ev.Link, ev.Dim, ev.Class, ev.Length, ev.Wait)
	case obs.EvDeliver:
		return fmt.Sprintf("slot %6d deliver  node %d broadcast=%t final=%t delay %d",
			ev.Slot, ev.Node, ev.Broadcast, ev.Final, ev.Delay)
	case obs.EvSpawn:
		return fmt.Sprintf("slot %6d spawn    broadcast=%t measured=%t",
			ev.Slot, ev.Broadcast, ev.Measured)
	case obs.EvSlotEnd:
		return fmt.Sprintf("slot %6d slot-end backlog %d", ev.Slot, ev.Backlog)
	case obs.EvFault:
		return fmt.Sprintf("slot %6d fault    link %d permanent=%t lost %d",
			ev.Slot, ev.Link, ev.Permanent, ev.Lost)
	default:
		return fmt.Sprintf("slot %6d unknown type %d", ev.Slot, ev.Type)
	}
}
