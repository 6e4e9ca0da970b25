package main

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on VMs that share their host with other tenants, and
// the host's speed changes under them. A fixed single-thread loop outside
// the program has taken 0.44-0.72 s from one second to the next with no
// steal time counted; ten runs of one workload have spread by 40-70% of
// their median, in CPU time as much as in wall time. A regression bound of
// 25% cannot be checked against raw times that swing by more than that
// between two runs of the same code.
//
// So every time the benchmark reports is scaled to a fixed host speed. A
// speedo times a fixed piece of reference work — the benchmark's own; it
// calls nothing in the repository — every refEvery through each timed
// phase, and the phase's wall times are divided by the reference's median
// wall time over its nominal time, its CPU times likewise. A change that
// makes the program 10% slower makes the scaled times 10% slower; a host
// that runs everything at half speed leaves them where they were. Every run
// also prints the raw times and the scale.
//
// The reference work has two parts, and the scale is the geometric mean of
// their ratios to nominal. The core part is refCoreSteps pseudo-random
// read-modify-writes over an 8 KiB table, each feeding the next index and
// taking a branch the predictor cannot learn. It fits in a core's L1
// cache, so it runs at the core's speed. The memory part is refMemSteps
// dependent reads at random over 64 MiB, which the host's 105 MiB L3 cache
// holds only as far as the other tenants leave room, so it runs at the
// speed of the host's shared cache and memory. The program depends on
// both: over six to eight runs of serve-write and serve-approx, dividing
// their raw p50 and CPU time by the core part alone left spreads of 6-16%,
// and by both parts 7-11%, against 8-20% raw. Neither part depends on the
// cache state the program leaves behind: the core part's table is too small
// to lose, and the memory part's too large to keep. A reference that slowed
// down with the program would hide the program's regressions.
const (
	refCoreLen   = 1 << 11 // uint32s: 8 KiB
	refCoreSteps = 42_000
	refMemLen    = 1 << 24 // uint32s: 64 MiB
	refMemSteps  = 2_000
	// refEvery is how often a phase times the reference work. Its two
	// parts take about 0.5 ms each, so it costs about 4% of the phase.
	refEvery = 25 * time.Millisecond
	// refCoreNominal and refMemNominal are the parts' median times, wall
	// and thread CPU alike, on the machine the baseline was measured on
	// (baseline.json) while its host was quiet. Scaled times are times on
	// that machine at that speed.
	refCoreNominal = 500 * time.Microsecond
	refMemNominal  = 500 * time.Microsecond
)

// refMem is the memory part's table. It is mapped outside the Go heap, so
// that the collector neither scans it nor paces the program's collections
// by it, and on huge pages where the kernel has them, so that a read's
// cost is the cache's or memory's and not a page walk through tables the
// program's own work evicted. It is filled when the program starts, so it
// is resident, at its full size, for the whole run; rssMB leaves it out. It
// is only read afterwards, so any number of speedos can share it.
var refMem = func() []uint32 {
	b, err := syscall.Mmap(-1, 0, refMemLen*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("mapping the reference table: %v", err))
	}
	// Without huge pages the reference still works, only less well.
	_ = syscall.Madvise(b, 14) // MADV_HUGEPAGE
	t := unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), refMemLen)
	x := uint32(2463534242)
	for i := range t {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t[i] = x
	}
	return t
}()

// refMemMB is refMem's size in MiB.
const refMemMB = refMemLen * 4 / (1 << 20)

// coreWork is one slice of the core part on table.
func coreWork(table *[refCoreLen]uint32) uint32 {
	x, acc := uint32(2463534242), uint32(0)
	for i := 0; i < refCoreSteps; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := (x ^ acc) & (refCoreLen - 1)
		v := table[j]
		if v&1 == 0 {
			acc += v >> 1
		} else {
			acc ^= v * 2654435761
		}
		table[j] = v + x
	}
	return acc
}

// memWork is one slice of the memory part, starting at index j: each
// read's index depends on the value the last one returned.
func memWork(j uint32) uint32 {
	for i := 0; i < refMemSteps; i++ {
		j = (refMem[j] ^ uint32(i)) & (refMemLen - 1)
	}
	return j
}

// threadCPU returns the calling thread's CPU time. clock_gettime fails
// only on a bad clock ID or address, and both are fixed here.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// speedo times the reference work. It is safe for concurrent use; one
// slice runs at a time.
type speedo struct {
	mu   sync.Mutex
	core [refCoreLen]uint32
	sink uint32 // keeps the reference work from being optimized away
	// memAt is where the next memory slice starts. It moves on by a large
	// odd step every slice, so that no slice finds the lines a recent one
	// read still in cache.
	memAt uint32
	last  time.Time
	// One entry per slice, in seconds.
	coreWall, coreCPU, memWall, memCPU []float64
}

// timed runs work and returns its wall and thread CPU time.
func timed(work func()) (wall, cpu float64) {
	start, cpu0 := time.Now(), threadCPU()
	work()
	return time.Since(start).Seconds(), (threadCPU() - cpu0).Seconds()
}

// slice times one slice of each part of the reference work. A slice that
// the Go scheduler moves to another thread halfway reads a meaningless CPU
// time; that is rare, and take's median ignores it.
func (s *speedo) slice() {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, c := timed(func() { s.sink += coreWork(&s.core) })
	s.coreWall, s.coreCPU = append(s.coreWall, w), append(s.coreCPU, c)
	w, c = timed(func() { s.sink += memWork(s.memAt) })
	s.memAt = (s.memAt + 0x9E3779B1) & (refMemLen - 1)
	s.memWall, s.memCPU = append(s.memWall, w), append(s.memCPU, c)
	s.last = time.Now()
}

// tick times a slice if refEvery has passed since the last one. A
// closed-loop client calls it between ops, so the reference work never
// overlaps an op.
func (s *speedo) tick() {
	s.mu.Lock()
	due := time.Since(s.last) >= refEvery
	s.mu.Unlock()
	if due {
		s.slice()
	}
}

// background times a slice every refEvery on its own goroutine, for a
// phase with no pauses to put them in, until stop is called; stop waits
// for the goroutine to end, and may be called more than once.
func (s *speedo) background() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(refEvery)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				s.slice()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(quit) })
		<-done
	}
}

// scale is the outcome of one phase's reference timings: what to divide
// the phase's wall and CPU times by to get times at the nominal speed. It
// takes each part's median slice, not the mean. A slice that a garbage
// collection pause or the Go scheduler stretches measures the program, not
// the host: if such slices counted, a change that made the program collect
// more often would slow the reference down with it and hide itself.
type scale struct {
	wall, cpu float64
	slices    int
}

// take returns the scale of the slices timed since the last take, and
// starts a new phase.
func (s *speedo) take() scale {
	s.mu.Lock()
	defer s.mu.Unlock()
	sc := scale{wall: 1, cpu: 1, slices: len(s.coreWall)}
	if sc.slices > 0 {
		both := func(core, mem []float64) float64 {
			return math.Sqrt(median(core) / refCoreNominal.Seconds() * median(mem) / refMemNominal.Seconds())
		}
		sc.wall = both(s.coreWall, s.memWall)
		sc.cpu = both(s.coreCPU, s.memCPU)
	}
	s.coreWall, s.coreCPU = s.coreWall[:0], s.coreCPU[:0]
	s.memWall, s.memCPU = s.memWall[:0], s.memCPU[:0]
	return sc
}

func (sc scale) String() string {
	return fmt.Sprintf("reference at %.1f%% of nominal wall time, %.1f%% of nominal CPU time, over %d slices",
		100*sc.wall, 100*sc.cpu, sc.slices)
}

// clockTicks is USER_HZ, the unit of /proc/stat.
const clockTicks = 100

// stealTime returns the time the host has kept this VM's vCPUs from
// running while they had work, summed over the vCPUs since boot: the
// "steal" column of /proc/stat.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / clockTicks
}
