package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the same rule as Python's statistics.quantiles with
// method="inclusive"). xs is left as it was.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssEvery is how often the measured phase samples the resident set.
const rssEvery = 50 * time.Millisecond

// rssMB returns the process's current resident set in MiB, less the
// speedo's memory table (refMem), which is the benchmark's own and always
// resident.
func rssMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("unexpected /proc/self/statm: %q", b)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(pages)*float64(os.Getpagesize())/(1<<20) - refMemMB, nil
}

// rssSampler records the resident set every rssEvery until stopped. The
// median of the samples is steadier than the peak, which depends on where
// the garbage collector's cycles happen to fall.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
	err     error
}

// startRSS starts sampling from a resident set without the set-up's
// garbage, so that the samples do not depend on how much of it the
// scavenger has returned.
func startRSS() *rssSampler {
	debug.FreeOSMemory()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			v, err := rssMB()
			if err != nil {
				s.err = err
				return
			}
			s.samples = append(s.samples, v)
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it and sets rss_mb to the median
// sample.
func (s *rssSampler) finish(r *run) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		r.check(fmt.Errorf("sampling the resident set: %w", s.err))
		return
	}
	r.set("rss_mb", median(s.samples), len(s.samples))
}

// keptRSS sets rss_mb to the resident set once garbage is collected and
// returned to the OS: the memory a long-running process keeps.
func keptRSS(r *run) {
	debug.FreeOSMemory()
	v, err := rssMB()
	if err != nil {
		r.check(fmt.Errorf("reading the resident set: %w", err))
		return
	}
	r.set("rss_mb", v, 1)
}

// timeSetup runs setup repeats times while sp times the reference work in
// the background, and returns the median CPU time (user+sys) the process
// spent on one set-up, scaled to the nominal host speed (see speedo).
// teardown, when non-nil, undoes each set-up but the last, outside the
// timing; the last set-up's state is what the measured phase runs against.
//
// It is CPU time, not wall time, because the serve set-ups wait on the
// shared disk: over five runs their CPU time stayed within 3% while their
// wall time spread 32%, with the reference steady. The wall time is
// printed beside it.
func timeSetup(sp *speedo, repeats int, setup func() error, teardown func()) (time.Duration, error) {
	var ds, cs []float64
	stop := sp.background()
	for i := 0; i < repeats; i++ {
		start, cpu0 := time.Now(), cpuTime()
		if err := setup(); err != nil {
			stop()
			return 0, err
		}
		ds = append(ds, float64(time.Since(start)))
		cs = append(cs, float64(cpuTime()-cpu0))
		if teardown != nil && i < repeats-1 {
			teardown()
		}
	}
	stop()
	sc := sp.take()
	cpu := median(cs)
	fmt.Printf("set-up: median %.6f s CPU raw, %.6f s wall; %s\n", cpu/float64(time.Second), median(ds)/float64(time.Second), sc)
	return time.Duration(cpu / sc.cpu), nil
}

// opLog collects one workload's op latencies and the CPU time of the
// measured phase, and turns them into the end-to-end metrics.
type opLog struct {
	lat    []float64 // ms
	start  time.Time
	cpu0   time.Duration
	steal0 time.Duration
	paused time.Duration // left out of the phase: the clients were stopped
	// long ops last longer than the host's bursts of stolen time (see
	// ran): serve-write's jobs and figures-quick's passes.
	long bool
	// The whole phase.
	wall, cpu, steal time.Duration
	sc               scale
}

func (l *opLog) begin() {
	l.start = time.Now()
	l.cpu0 = cpuTime()
	l.steal0 = stealTime()
}

// add records one completed op.
func (l *opLog) add(took time.Duration) { l.lat = append(l.lat, ms(took)) }

// end closes the phase and takes the host speed sp measured over it.
func (l *opLog) end(sp *speedo) {
	l.wall = time.Since(l.start) - l.paused
	l.cpu = cpuTime() - l.cpu0
	l.steal = stealTime() - l.steal0
	l.sc = sp.take()
}

// stolen is the time the host took from the process over the phase: the
// VM's steal time, which counts every vCPU, but no more than the time the
// process's Ps spent off a CPU.
func (l *opLog) stolen() time.Duration {
	offCPU := time.Duration(runtime.GOMAXPROCS(0))*l.wall - l.cpu
	return max(min(l.steal, offCPU), 0)
}

// ran is the share of the time the process wanted to run that the host let
// it: over the phase it used c of CPU time while the host took s from it
// (see stolen), so it ran c/(c+s) of the time it could have used. On two
// Ps, ten passes of figures-quick kept 8-23 s of their two vCPUs' time
// idle or stolen; on one, serve-write phases of 10 s used 6.6-8 s of CPU
// while the VM's steal time rose by 3-7 s.
//
// The phase's wall time is multiplied by ran, and so are long ops'
// latencies, which the host's bursts of steal, several milliseconds each,
// stretch in proportion. A short op is either missed by a burst or hit by
// a whole one, so its median and 90th percentile are left as they are.
func (l *opLog) ran() float64 {
	s := l.stolen()
	if l.cpu <= 0 || s <= 0 {
		return 1
	}
	return float64(l.cpu) / float64(l.cpu+s)
}

// publish sets ops_per_s, p50_ms, p90_ms and cpu_ms_per_op, with stolen
// time left out and scaled to the nominal host speed, and prints them raw.
func (l *opLog) publish(r *run) {
	n := len(l.lat)
	if n == 0 {
		r.check(errNoOps)
		return
	}
	opsPerS := float64(n) / l.wall.Seconds()
	p50, p90 := quantile(l.lat, 0.5), quantile(l.lat, 0.9)
	cpuPerOp := ms(l.cpu) / float64(n)
	fmt.Printf("raw: ops_per_s=%.6g p50_ms=%.6g p90_ms=%.6g cpu_ms_per_op=%.6g; phase %.3f s wall, %.3f s CPU, %.3f s VM steal, %.3f s stolen; %s\n",
		opsPerS, p50, p90, cpuPerOp, l.wall.Seconds(), l.cpu.Seconds(), l.steal.Seconds(), l.stolen().Seconds(), l.sc)
	ran := l.ran()
	latRan := 1.0
	if l.long {
		latRan = ran
	}
	r.set("ops_per_s", opsPerS/ran*l.sc.wall, n)
	r.set("p50_ms", p50*latRan/l.sc.wall, n)
	r.set("p90_ms", p90*latRan/l.sc.wall, n)
	r.set("cpu_ms_per_op", cpuPerOp/l.sc.cpu, n)
}

// fsType names the filesystem holding path; fsync costs are that
// filesystem's real disk time, so runs record it.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
