// Package sim is the slotted-time, store-and-forward network simulator the
// experiments run on. It models the paper's queueing environment directly:
//
//   - time advances in slots; a packet of length L occupies a directed link
//     for L consecutive slots (unit length packets take one slot, the
//     paper's analysis model);
//   - every node transmits on all of its outgoing links in parallel
//     (all-port model), each link serving an unbounded multi-class output
//     queue with head-of-line priority and FCFS order within a class;
//   - a packet that finishes arriving at the start of slot t can be
//     forwarded during slot t, so an uncontended packet's delay equals its
//     hop distance times its length;
//   - broadcast and unicast tasks arrive as Poisson streams and are routed
//     by a core.Scheme (STAR trees, priority classes, shortest paths).
//
// Statistics are collected for tasks born inside the measurement window
// [Warmup, Warmup+Measure); the simulation then runs up to Drain additional
// slots so most measured tasks can complete, ending as soon as the last one
// has, and reports how many did not.
//
// The engine is event-driven: a link is examined only when its in-flight
// transmission completes or when a packet is enqueued on it while it is
// idle, so per-slot cost is proportional to actual link activity rather
// than to the total number of links (see DESIGN.md, "Engine internals &
// performance"). Ready links are served in ascending LinkID order each
// slot, which makes runs bit-identical to the historical full-scan engine
// for a fixed seed.
//
// An optional observability probe (Config.Probe, see internal/obs) receives
// enqueue/service/deliver/spawn/slot events; when unset each site costs one
// nil comparison, and attaching a probe never changes the trajectory.
package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"sync"
	"time"

	"prioritystar/internal/core"
	"prioritystar/internal/fault"
	"prioritystar/internal/obs"
	"prioritystar/internal/queue"
	"prioritystar/internal/stats"
	"prioritystar/internal/torus"
	"prioritystar/internal/traffic"
)

// EngineVersion names the simulation semantics: any change that alters the
// trajectory or the statistics of a fixed (config, seed) pair must bump it.
// It is folded into spec.Fingerprint, so bumping it invalidates the
// daemon's content-addressed result cache, old checkpoint journals and
// fleet leases instead of letting stale results masquerade as current ones.
//
// Version 2 ends a run once its measured work is done (see Config.Drain):
// every measured statistic is version 1's bit for bit, but MaxBacklog,
// ClampedLengths and probe streams cover only the slots actually run, and a
// brake (MaxBacklog, the watchdog, a timeout) that would have fired only
// after the measured work was done no longer fires (Status stays StatusOK).
const EngineVersion = "prioritystar-sim/2"

// wheelSize is the timing-wheel span; packet service times are clamped to
// wheelSize-1 slots (Result.ClampedLengths counts occurrences, which are
// astronomically rare for the geometric lengths used by the experiments).
// It is a power of two so wheel positions use a mask, not a division.
const (
	wheelSize = 4096
	wheelMask = wheelSize - 1
)

// Config describes one simulation run.
type Config struct {
	Shape  *torus.Shape
	Scheme *core.Scheme
	Rates  traffic.Rates      // per-node task arrival rates
	Length traffic.LengthDist // packet length distribution (zero value = unit)
	Seed   uint64

	Warmup  int64 // slots before the measurement window
	Measure int64 // slots in the measurement window (required, > 0)
	// Drain is the maximum number of slots run after the window for
	// measured tasks to finish. The run ends at the end of the first slot
	// at or after the window's last at which no measured broadcast task is
	// in flight and every measured unicast has been delivered: later slots
	// could not change any measured statistic. A run that still holds
	// measured work runs all Drain slots (Result.Slots reports how many
	// slots ran).
	Drain int64

	// MaxBacklog aborts the run early when the total number of queued
	// packets exceeds it, which happens only for unstable operating points
	// (rho beyond the scheme's maximum throughput). 0 means the default of
	// 4 million packets.
	MaxBacklog int64

	// Faults injects link and node failures from a deterministic schedule
	// (see internal/fault). nil or an empty schedule leaves the engine on
	// its fault-free path, bit-identical to an engine without fault
	// support. With faults active, unicast packets route minimally-adaptively
	// around failed profitable links (waiting when no live alternative
	// exists) and broadcast copies that would cross a permanently failed
	// link are dropped with their whole subtree, recorded in
	// Result.LostCopies and Result.Reachability.
	Faults *fault.Schedule

	// Guard configures the runtime guards: the divergence watchdog and the
	// wall-clock timeout. The zero value disables both and leaves the
	// trajectory untouched.
	Guard Guard

	// Context, when non-nil, is polled every 1024 slots; once it is
	// cancelled the run stops and Run returns the context's error.
	Context context.Context

	// OnDeliver, when non-nil, is invoked for every packet arrival: each
	// broadcast copy received by a node and each unicast hop (Final marks
	// arrival at the unicast destination). Intended for tests and tracing;
	// it adds an indirect call per delivery.
	OnDeliver func(DeliverEvent)

	// Probe, when non-nil, receives every engine event (enqueue, service
	// start, delivery, task spawn, end of slot) for metrics and tracing;
	// see internal/obs. A nil probe costs exactly one pointer comparison
	// per event site, and attaching one never changes the simulated
	// trajectory: same-seed runs are bit-identical with and without it.
	Probe obs.Probe

	// ImpulseBroadcasts injects this many broadcast tasks per node at slot
	// 0, modelling the static multinode-broadcast task of the paper's
	// introduction (1 task per node = MNB). Combine with zero Rates and
	// zero Warmup to measure the makespan via Result.Broadcast.Max().
	ImpulseBroadcasts int
	// ImpulseTotalExchange, when true, injects one unicast from every node
	// to every other node at slot 0 — the static total-exchange (TE) task.
	ImpulseTotalExchange bool
	// SingleBroadcast, when true, injects exactly one broadcast task from
	// SingleBroadcastSource at slot 0 (the static single-broadcast task).
	SingleBroadcast       bool
	SingleBroadcastSource torus.Node
}

// DeliverEvent describes one packet arrival for Config.OnDeliver.
type DeliverEvent struct {
	Slot  int64
	Node  torus.Node
	Birth int64
	// Task is the broadcast task key for measured broadcast copies and -1
	// otherwise.
	Task int64
	// Broadcast is true for broadcast copies, false for unicast packets.
	Broadcast bool
	// Final is true when a unicast packet reached its destination (always
	// true for broadcast copies: every arrival is a delivery).
	Final bool
}

// Guard bundles the runtime guards of one run. The zero value disables every
// guard; an enabled guard never perturbs the trajectory of a run it does not
// terminate (guards read engine state but never touch the RNG).
type Guard struct {
	// DivergeBacklog terminates the run with StatusDiverged as soon as the
	// total backlog exceeds it. 0 disables the bound. Unlike
	// Config.MaxBacklog (an emergency brake yielding StatusTruncated),
	// this is the watchdog's deliberate "this point has left its stable
	// region" signal.
	DivergeBacklog int64

	// GrowthWindow enables the sustained-growth watchdog: every
	// GrowthWindow slots the total backlog is sampled, and when GrowthRuns
	// consecutive samples each exceed their predecessor by more than
	// GrowthSlack packets the run terminates with StatusDiverged. A run at
	// rho >= 1 adds Theta(deficit x links) packets per slot, so it trips
	// the watchdog within GrowthRuns windows instead of burning the whole
	// horizon; a stable run's backlog fluctuates around its mean and keeps
	// resetting the streak. 0 disables the check.
	GrowthWindow int64
	// GrowthRuns is the consecutive-growth streak length that declares
	// divergence. 0 means the default of 4.
	GrowthRuns int
	// GrowthSlack is the minimum per-window backlog increase that counts
	// as growth. 0 means the default of max(64, links/8).
	GrowthSlack int64

	// Timeout bounds the run's wall-clock time; when exceeded (polled
	// every 1024 slots) the run stops with StatusTimeout. 0 disables it.
	Timeout time.Duration
}

// active reports whether any watchdog check is enabled.
func (g *Guard) active() bool { return g.DivergeBacklog > 0 || g.GrowthWindow > 0 }

// DefaultGuard returns a divergence watchdog tuned for shape s: a backlog
// bound of 64 packets per link and a sustained-growth check every 250 slots.
func DefaultGuard(s *torus.Shape) Guard {
	return Guard{DivergeBacklog: int64(s.Links()) * 64, GrowthWindow: 250}
}

// Status classifies how a run ended.
type Status uint8

// Run statuses.
const (
	// StatusOK: the run finished its measured work or reached its horizon.
	StatusOK Status = iota
	// StatusTruncated: the backlog exceeded Config.MaxBacklog.
	StatusTruncated
	// StatusDiverged: the divergence watchdog (Config.Guard) fired.
	StatusDiverged
	// StatusTimeout: the wall-clock timeout (Config.Guard.Timeout) expired.
	StatusTimeout
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusTruncated:
		return "truncated"
	case StatusDiverged:
		return "diverged"
	case StatusTimeout:
		return "timeout"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

func (c *Config) totalSlots() int64 { return c.Warmup + c.Measure + c.Drain }

// Validate checks the configuration without running it. Run and Runner.Run
// call it first and surface its error verbatim.
func (c *Config) Validate() error {
	if c.Shape == nil || c.Scheme == nil {
		return fmt.Errorf("sim: nil shape or scheme")
	}
	if c.Shape.Dims() == 0 || c.Shape.Size() == 0 {
		return fmt.Errorf("sim: shape has no dimensions (construct shapes with torus.New)")
	}
	if c.Scheme.Shape != c.Shape {
		return fmt.Errorf("sim: scheme was built for %v, config uses %v", c.Scheme.Shape, c.Shape)
	}
	if math.IsNaN(c.Rates.LambdaB) || math.IsInf(c.Rates.LambdaB, 0) ||
		math.IsNaN(c.Rates.LambdaR) || math.IsInf(c.Rates.LambdaR, 0) {
		return fmt.Errorf("sim: arrival rates must be finite, got %+v", c.Rates)
	}
	if c.Rates.LambdaB < 0 || c.Rates.LambdaR < 0 {
		return fmt.Errorf("sim: negative arrival rates %+v", c.Rates)
	}
	if c.Measure <= 0 {
		return fmt.Errorf("sim: Measure must be positive, got %d", c.Measure)
	}
	if c.Warmup < 0 || c.Drain < 0 {
		return fmt.Errorf("sim: negative Warmup or Drain")
	}
	if g := &c.Guard; g.DivergeBacklog < 0 || g.GrowthWindow < 0 || g.GrowthRuns < 0 ||
		g.GrowthSlack < 0 || g.Timeout < 0 {
		return fmt.Errorf("sim: negative Guard field %+v", *g)
	}
	if err := c.Faults.Validate(c.Shape); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// Result holds the measured statistics of one run.
type Result struct {
	// Reception aggregates, per delivered copy of a measured broadcast
	// task, the time since task generation (the paper's reception delay).
	Reception stats.Welford
	// Broadcast aggregates, per completed measured broadcast task, the
	// time until the last node received its copy (broadcast delay).
	Broadcast stats.Welford
	// Unicast aggregates end-to-end delays of measured unicast packets.
	Unicast stats.Welford
	// QueueWait aggregates, per priority class, the output-queue waiting
	// time of packets entering service during the measurement window.
	QueueWait [3]stats.Welford

	GeneratedBroadcasts  int64 // measured broadcast tasks generated
	GeneratedUnicasts    int64 // measured unicast tasks generated
	IncompleteBroadcasts int64 // measured tasks not finished by the horizon
	IncompleteUnicasts   int64 // measured unicasts not delivered by the horizon

	// DimUtilization is the average utilization of a dimension-i link over
	// the measurement window; MaxDimUtilization and AvgUtilization
	// summarize it. For a balanced scheme AvgUtilization ~= rho and all
	// dimensions match.
	DimUtilization    []float64
	AvgUtilization    float64
	MaxDimUtilization float64

	BacklogStart int64   // queued packets when the window opened
	BacklogEnd   int64   // queued packets when the window closed
	BacklogSlope float64 // (end-start)/Measure, packets per slot
	// MaxBacklog is the peak number of queued packets over the slots
	// actually run (Slots), so a run that ends early after its measured
	// work is done may report a lower peak than a full-horizon run.
	MaxBacklog int64
	// BacklogFirstQ and BacklogLastQ are the average backlog over the
	// first and last quarter of the measurement window; their difference
	// (BacklogTrend) is a noise-robust growth estimate used by Stable.
	BacklogFirstQ float64
	BacklogLastQ  float64
	BacklogTrend  float64

	// Truncated is true when the run was aborted by Config.MaxBacklog
	// (unstable operating point); delay statistics are then meaningless.
	// Status carries the same information with more detail.
	Truncated bool
	// ClampedLengths counts packets whose sampled service time exceeded
	// the timing wheel and was clamped, over the slots actually run.
	ClampedLengths int64

	// Slots is the number of slots actually simulated: Warmup+Measure+Drain
	// for a run that still held measured work at the horizon, fewer for a
	// run whose measured tasks all finished early or that a guard,
	// truncation or timeout stopped.
	Slots int64

	// Status records how the run ended: StatusOK (measured work done, or
	// the horizon reached), StatusTruncated (Config.MaxBacklog tripped),
	// StatusDiverged (the watchdog in Config.Guard fired), or
	// StatusTimeout (the wall-clock bound expired). Delay statistics of
	// non-OK runs cover only the slots actually simulated.
	Status Status

	// LostCopies counts measured broadcast deliveries lost because a copy
	// (with its whole subtree) would have crossed a permanently failed
	// link. Zero unless Config.Faults injects permanent failures.
	LostCopies int64
	// DegradedTasks counts measured broadcast tasks that completed with at
	// least one lost copy; such tasks contribute to Reachability but not
	// to Broadcast (their last node never receives a copy).
	DegradedTasks int64
	// Reachability aggregates, per measured broadcast task completed under
	// an active fault schedule, the fraction of the other nodes that
	// received a copy (1.0 when nothing was lost). Empty for fault-free
	// runs.
	Reachability stats.Welford
}

// packetKind discriminates broadcast copies from unicast packets.
type packetKind uint8

const (
	kindBroadcast packetKind = iota
	kindUnicast
)

// packet is the in-network representation of one copy. It is copied by
// value into a queue slot on enqueue and into the link's inflight slot on
// service, so it is kept at 40 bytes (TestPacketLayout guards the size).
type packet struct {
	birth int64
	enq   int64 // enqueue time at the current output queue
	// target is the destination node of a unicast packet and the dense
	// index into engine.tasks of a measured broadcast copy; no packet
	// needs both.
	target   int32
	tieMask  uint32
	length   int32
	hopsLeft int16
	kind     packetKind
	class    uint8
	ending   int8
	phase    int8
	dir      torus.Dir
	measured bool
}

// dest returns a unicast packet's destination.
func (p *packet) dest() torus.Node { return torus.Node(p.target) }

// bcastState tracks one in-flight measured broadcast task. States live in a
// dense slice indexed by packet.target; completed slots are recycled
// through a free list, so steady-state measurement allocates no per-task
// memory. The task key (surfaced via DeliverEvent.Task) stays a plain
// monotone counter and is never recycled.
type bcastState struct {
	birth     int64
	key       int64
	remaining int32
	lost      int32 // copies lost to permanently failed links
}

type engine struct {
	cfg     Config
	s       *torus.Shape
	sch     *core.Scheme
	rng     *rand.Rand
	res     *Result
	probe   obs.Probe // cached Config.Probe; nil-checked at every emit site
	now     int64
	wStart  int64
	wEnd    int64
	horizon int64

	// queues holds one FIFO per (link, priority class), flat at index
	// link*classes+class, and qlen[l] counts the packets queued on link l
	// over all its classes.
	queues    []queue.FIFO[packet]
	qlen      []int32
	classes   int             // priority classes per link
	busyUntil []int64         // slot at which each link's transmission completes
	busySlots []int64         // busy slots within the window, per link
	linkDst   []torus.Node    // shared per-shape table (torus.LinkTables)
	linkDim   []int32         // shared per-shape table (torus.LinkTables)
	star      []core.StarStep // the scheme's STAR table (core.Scheme.StarTable)
	dims      int             // e.s.Dims(), the width of a star table row block

	// inflight[l] is the packet currently transmitting on link l; the
	// timing wheel stores only link IDs, so a completion event is 4 bytes
	// instead of a full packet copy. A link carries at most one packet at
	// a time, making one slot per link sufficient.
	inflight []packet
	wheel    [][]torus.LinkID

	// ready collects the links that may start a transmission this slot:
	// those whose in-flight packet just completed and those that received
	// a packet while idle.
	ready linkBitmap

	// Dense broadcast-task table indexed by packet.target; freeTasks
	// holds recycled indices, liveTasks counts tasks currently in flight,
	// and nextTask is the never-recycled key counter.
	tasks     []bcastState
	freeTasks []int32
	liveTasks int64
	nextTask  int64

	backlog int64
	maxBack int64

	// Backlog sampling for the trend estimate: sums over the first and
	// last quarters of the measurement window.
	firstQSum, lastQSum     float64
	firstQCount, lastQCount int64

	// Fault state. faults is nil for fault-free runs, keeping the hot
	// path at one nil check per site; fwheel parallels wheel and carries
	// recovery wake-ups for links found transiently down.
	faults   *fault.Compiled
	fwheel   [][]torus.LinkID
	adaptCur torus.Node // current node for the downFn closure
	downFn   func(dim int, dir torus.Dir) bool

	// arena, when non-nil, supplies the bulk per-replication buffers
	// (busyUntil, busySlots, inflight, ready bitmap) from a contiguous
	// struct-of-arrays block shared by every replication of a batch, so the
	// batched runner's lockstep sweep streams through adjacent memory
	// instead of pointer-chasing a cold heap per rep. nil (the sequential
	// runners) falls back to plain make.
	arena *batchArena

	// Guard state, resolved from cfg.Guard by reset.
	guardOn      bool
	growthRuns   int
	growthSlack  int64
	growthStreak int
	lastSample   int64
	nextGrowthAt int64
	ctx          context.Context
	deadline     time.Time
	checkWall    bool // poll ctx/deadline every 1024 slots
}

// Runner executes simulations while reusing the engine's internal buffers
// (queues, timing wheel, task table) across calls. A sweep that runs many
// simulations of the same shape on one goroutine should reuse a Runner:
// after the first run the hot path is allocation-free. The zero value is
// ready to use. A Runner is not safe for concurrent use; give each worker
// goroutine its own.
type Runner struct {
	e engine
}

// Run executes one simulation and returns its statistics. It is equivalent
// to the package-level Run but recycles internal buffers from previous
// calls; results are identical for identical Configs.
func (r *Runner) Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &r.e
	if err := e.reset(cfg); err != nil {
		return nil, err
	}
	if err := e.run(); err != nil {
		return nil, err
	}
	e.finish()
	return e.res, nil
}

// runnerPool recycles engine buffers across package-level Run calls, so
// even callers that cannot hold a Runner (parallel sweep workers, one-shot
// probes) skip the per-run queue/wheel allocations after warm-up.
var runnerPool = sync.Pool{New: func() any { return new(Runner) }}

// Run executes one simulation and returns its statistics. Results depend
// only on Config (same seed, same trajectory); internal buffers are
// recycled through a pool.
func Run(cfg Config) (*Result, error) {
	r := runnerPool.Get().(*Runner)
	res, err := r.Run(cfg)
	r.e.release()
	runnerPool.Put(r)
	return res, err
}

// release drops references the engine no longer needs so a pooled Runner
// does not pin the caller's shape, scheme, callbacks, or results. Bulk
// value buffers (queues, wheel, tables) are kept for reuse.
func (e *engine) release() {
	e.cfg = Config{}
	e.s = nil
	e.sch = nil
	e.rng = nil
	e.res = nil
	e.probe = nil
	e.linkDst = nil
	e.linkDim = nil
	e.faults = nil
	e.downFn = nil
	e.ctx = nil
}

// Recover re-arms a Runner after a panic escaped one of its runs, keeping
// the warm bulk buffers (queues, timing wheel, busy tables) instead of
// discarding them. A panic can only interrupt the engine between statements,
// so every buffer keeps its structural invariants (slice lengths, ring
// bounds); the stale *contents* are exactly what reset() rebuilds at the
// start of the next run. Callers that recover a panic from Run should call
// Recover before reusing the Runner; sweep workers do, so one poisoned
// replication no longer costs the worker a cold reallocation of every
// buffer for its remaining work.
func (r *Runner) Recover() {
	e := &r.e
	for i := range e.queues {
		e.queues[i].Reset()
	}
	clear(e.qlen)
	if e.wheel != nil {
		for i := range e.wheel {
			e.wheel[i] = e.wheel[i][:0]
		}
	}
	if e.fwheel != nil {
		for i := range e.fwheel {
			e.fwheel[i] = e.fwheel[i][:0]
		}
	}
	clear(e.busyUntil)
	clear(e.busySlots)
	clear(e.ready.l0)
	clear(e.ready.l1)
	e.tasks = e.tasks[:0]
	e.freeTasks = e.freeTasks[:0]
	e.release()
}

// reset prepares the engine for cfg, reusing buffers from any previous run
// when the link-slot count and class count match. It fails only when the
// fault schedule does not compile against the shape.
func (e *engine) reset(cfg Config) error {
	slots := cfg.Shape.LinkSlots()
	classes := cfg.Scheme.Discipline.Classes()

	e.cfg = cfg
	e.s = cfg.Shape
	e.sch = cfg.Scheme
	e.rng = rand.New(rand.NewPCG(cfg.Seed, 0x57a12357))
	e.res = &Result{} // escapes to the caller; never reused
	e.probe = cfg.Probe
	e.now = 0
	e.wStart = cfg.Warmup
	e.wEnd = cfg.Warmup + cfg.Measure
	e.horizon = cfg.totalSlots()
	e.backlog = 0
	e.liveTasks = 0
	e.firstQSum, e.lastQSum = 0, 0
	e.firstQCount, e.lastQCount = 0, 0
	e.maxBack = cfg.MaxBacklog
	if e.maxBack == 0 {
		e.maxBack = 4_000_000
	}

	if len(e.queues) == slots*classes && e.classes == classes {
		for i := range e.queues {
			e.queues[i].Reset()
		}
		clear(e.qlen)
	} else {
		e.queues = make([]queue.FIFO[packet], slots*classes)
		e.qlen = make([]int32, slots)
		e.classes = classes
	}
	if len(e.busyUntil) == slots {
		clear(e.busyUntil)
		clear(e.busySlots)
	} else {
		e.busyUntil = e.arena.int64s(slots)
		e.busySlots = e.arena.int64s(slots)
	}
	e.ready.init(slots, e.arena)
	e.linkDst, e.linkDim = e.s.LinkTables()
	e.star, e.dims = e.sch.StarTable(e.star), e.s.Dims()
	if len(e.inflight) != slots {
		// No clearing on reuse: an inflight slot is read only when the
		// wheel holds the link's ID, and the wheel is truncated below.
		e.inflight = e.arena.packets(slots)
	}
	if e.wheel == nil {
		e.wheel = make([][]torus.LinkID, wheelSize)
	} else {
		for i := range e.wheel {
			e.wheel[i] = e.wheel[i][:0]
		}
	}
	e.tasks = e.tasks[:0]
	e.freeTasks = e.freeTasks[:0]
	e.nextTask = 0

	// Fault schedule: compiled only when non-empty, so fault-free runs
	// keep e.faults == nil and stay on the historical hot path.
	e.faults = nil
	e.downFn = nil
	if e.fwheel != nil {
		for i := range e.fwheel {
			e.fwheel[i] = e.fwheel[i][:0]
		}
	}
	if !cfg.Faults.Empty() {
		fc, err := cfg.Faults.Compile(cfg.Shape)
		if err != nil {
			return err
		}
		e.faults = fc
		e.downFn = e.adaptDown
		if e.fwheel == nil {
			e.fwheel = make([][]torus.LinkID, wheelSize)
		}
	}

	// Guards.
	g := cfg.Guard
	e.guardOn = g.active()
	e.growthRuns = g.GrowthRuns
	if e.growthRuns == 0 {
		e.growthRuns = 4
	}
	e.growthSlack = g.GrowthSlack
	if e.growthSlack == 0 {
		e.growthSlack = int64(e.s.Links() / 8)
		if e.growthSlack < 64 {
			e.growthSlack = 64
		}
	}
	e.growthStreak = 0
	e.lastSample = 0
	e.nextGrowthAt = g.GrowthWindow
	e.ctx = cfg.Context
	e.deadline = time.Time{}
	if g.Timeout > 0 {
		e.deadline = time.Now().Add(g.Timeout)
	}
	e.checkWall = e.ctx != nil || g.Timeout > 0
	return nil
}

// adaptDown reports whether the outgoing link of e.adaptCur along (dim, dir)
// is currently failed. It is bound once per run (e.downFn) so the adaptive
// unicast path does not allocate a closure per delivery.
func (e *engine) adaptDown(dim int, dir torus.Dir) bool {
	return e.faults.Down(e.s.Link(e.adaptCur, dim, dir), e.now)
}

// run is the slot loop. Each slot: deliver completed transmissions, wake
// links whose transient fault healed, inject new tasks, then start
// transmissions on the links marked ready. It returns a non-nil error only
// when Config.Context is cancelled; every other early exit is reported
// through Result.Status.
func (e *engine) run() error {
	for {
		done, err := e.step()
		if done || err != nil {
			return err
		}
	}
}

// step advances the simulation by exactly one slot and reports whether the
// run is over: the horizon was reached, the measured work is done (no
// measured broadcast task in flight and no measured unicast undelivered
// once the window has closed), or an early exit was recorded in
// Result.Status. It is the unit of progress the batched runner interleaves
// across replications; run() is just a loop over it, so sequential and
// batched trajectories are identical by construction. Reporting the end of
// the measured work changes no state: calling step again keeps simulating
// to the horizon along the same trajectory.
func (e *engine) step() (done bool, err error) {
	if e.now >= e.horizon {
		return true, nil
	}
	if e.checkWall && e.now&1023 == 0 {
		if e.ctx != nil {
			select {
			case <-e.ctx.Done():
				return true, e.ctx.Err()
			default:
			}
		}
		if !e.deadline.IsZero() && time.Now().After(e.deadline) {
			e.res.Status = StatusTimeout
			return true, nil
		}
	}
	if e.now == e.wStart {
		e.res.BacklogStart = e.backlog
	}
	e.deliverArrivals()
	if e.faults != nil {
		e.processRecoveries()
	}
	e.generate()
	e.serviceReady()
	if e.probe != nil {
		e.probe.SlotEnd(e.now, e.backlog)
	}
	e.res.Slots = e.now + 1
	if e.now == e.wEnd-1 {
		e.res.BacklogEnd = e.backlog
	}
	if e.now >= e.wStart && e.now < e.wEnd {
		quarter := (e.cfg.Measure + 3) / 4
		switch {
		case e.now < e.wStart+quarter:
			e.firstQSum += float64(e.backlog)
			e.firstQCount++
		case e.now >= e.wEnd-quarter:
			e.lastQSum += float64(e.backlog)
			e.lastQCount++
		}
	}
	if e.backlog > e.res.MaxBacklog {
		e.res.MaxBacklog = e.backlog
	}
	if e.backlog > e.maxBack {
		e.res.Truncated = true
		e.res.Status = StatusTruncated
		return true, nil
	}
	if e.guardOn && e.diverged() {
		e.res.Status = StatusDiverged
		return true, nil
	}
	e.now++
	return e.now >= e.horizon ||
		e.now >= e.wEnd && e.liveTasks == 0 && e.res.IncompleteUnicasts == 0, nil
}

// diverged runs the watchdog checks for the slot that just finished. It only
// reads engine state, so an enabled watchdog never perturbs the trajectory
// of a run it does not terminate.
func (e *engine) diverged() bool {
	g := &e.cfg.Guard
	if g.DivergeBacklog > 0 && e.backlog > g.DivergeBacklog {
		return true
	}
	if g.GrowthWindow > 0 && e.now == e.nextGrowthAt {
		if e.backlog > e.lastSample+e.growthSlack {
			e.growthStreak++
		} else {
			e.growthStreak = 0
		}
		e.lastSample = e.backlog
		e.nextGrowthAt += g.GrowthWindow
		if e.growthStreak >= e.growthRuns {
			return true
		}
	}
	return false
}

// processRecoveries wakes the links whose transient fault was promised to
// heal this slot. A link still down (its wake-up was clamped to the wheel
// span) is rescheduled; a healed link is marked ready so serviceReady
// examines its queue this very slot.
func (e *engine) processRecoveries() {
	entries := e.fwheel[e.now&wheelMask]
	if len(entries) == 0 {
		return
	}
	e.fwheel[e.now&wheelMask] = entries[:0]
	// scheduleRecovery never targets the current wheel index (recovery
	// slots lie in (now, now+wheelSize)), so the append below cannot write
	// into the slice being ranged over.
	for _, l := range entries {
		if down, until := e.faults.DownUntil(l, e.now); down {
			if until >= 0 {
				e.scheduleRecovery(l, until)
			}
			continue
		}
		e.markReady(l)
	}
}

// scheduleRecovery enqueues a wake-up for link l at the given recovery slot,
// clamping it to the timing-wheel span (the wake-up then re-checks and
// reschedules).
func (e *engine) scheduleRecovery(l torus.LinkID, until int64) {
	if until > e.now+wheelMask {
		until = e.now + wheelMask
	}
	at := until & wheelMask
	e.fwheel[at] = append(e.fwheel[at], l)
}

// linkBitmap is a two-level bitmap over the link-slot index space: one bit
// per link in l0, one bit per nonzero l0 word in l1. It gives O(1)
// deduplicated marking and an ascending-order sweep (in serviceReady)
// whose cost is proportional to the number of marked words, which is what
// makes the event-driven service pass both cheap and deterministic (links
// are always visited in ascending LinkID order, matching the historical
// full scan).
type linkBitmap struct {
	l0 []uint64
	l1 []uint64
}

// init sizes the bitmap for the given number of link slots, reusing the
// previous words when the size matches (they are always left cleared by
// serviceReady's sweep, but clear defensively so a truncated run cannot leak marks). A
// non-nil arena supplies the words from the batch's shared SoA block.
func (b *linkBitmap) init(slots int, a *batchArena) {
	w0 := (slots + 63) / 64
	w1 := (w0 + 63) / 64
	if len(b.l0) == w0 {
		clear(b.l0)
		clear(b.l1)
		return
	}
	b.l0 = a.uint64s(w0)
	b.l1 = a.uint64s(w1)
}

func (b *linkBitmap) set(l torus.LinkID) {
	w := uint(l) >> 6
	b.l0[w] |= 1 << (uint(l) & 63)
	b.l1[w>>6] |= 1 << (w & 63)
}

// markReady queues link l for examination by serviceReady this slot. Links
// are marked when their transmission completes and when they receive a
// packet while idle; together with the invariant that an idle link's queue
// is drained-or-busy after every serviceReady pass, this covers exactly the
// links the historical full scan would have served.
func (e *engine) markReady(l torus.LinkID) {
	e.ready.set(l)
}

// deliverArrivals processes packets whose transmission completes at the
// start of the current slot.
func (e *engine) deliverArrivals() {
	arrivals := e.wheel[e.now&wheelMask]
	if len(arrivals) == 0 {
		return
	}
	// Service can never append back into the current slot (lengths are in
	// [1, wheelSize)), so the backing array is safe to reuse immediately.
	e.wheel[e.now&wheelMask] = arrivals[:0]
	for _, l := range arrivals {
		e.markReady(l) // the link just went idle; it may have queue
		pkt := &e.inflight[l]
		node := e.linkDst[l]
		if pkt.kind == kindUnicast {
			e.deliverUnicast(node, pkt)
		} else {
			e.deliverBroadcast(node, pkt)
		}
	}
}

func (e *engine) deliverUnicast(node torus.Node, pkt *packet) {
	final := node == pkt.dest()
	if e.cfg.OnDeliver != nil {
		e.cfg.OnDeliver(DeliverEvent{
			Slot: e.now, Node: node, Birth: pkt.birth, Task: -1,
			Broadcast: false, Final: final,
		})
	}
	if e.probe != nil {
		e.probe.Deliver(e.now, node, false, final, e.now-pkt.birth)
	}
	if final {
		if pkt.measured {
			e.res.Unicast.Add(float64(e.now - pkt.birth))
			e.res.IncompleteUnicasts--
		}
		return
	}
	e.routeUnicast(node, pkt)
}

// routeUnicast enqueues pkt on its next hop out of node. Fault-free runs use
// the deterministic-oblivious shortest path; with faults active the packet
// routes minimally adaptively: any live profitable link is taken (preferring
// the oblivious choice), and when every profitable link is down the packet
// waits on the preferred one.
func (e *engine) routeUnicast(node torus.Node, pkt *packet) {
	var dim int
	var dir torus.Dir
	if e.faults == nil {
		dim, dir, _ = core.UnicastNextHop(e.s, node, pkt.dest(), pkt.tieMask)
	} else {
		e.adaptCur = node
		var done bool
		dim, dir, _, done = core.UnicastNextHopAdaptive(e.s, node, pkt.dest(), pkt.tieMask, e.downFn)
		if done {
			return
		}
	}
	l := e.s.Link(node, dim, dir)
	slot := e.push(l, dim, pkt.class)
	*slot = *pkt
	slot.enq = e.now
}

func (e *engine) deliverBroadcast(node torus.Node, pkt *packet) {
	if e.cfg.OnDeliver != nil {
		task := int64(-1)
		if pkt.measured {
			task = e.tasks[pkt.target].key
		}
		e.cfg.OnDeliver(DeliverEvent{
			Slot: e.now, Node: node, Birth: pkt.birth, Task: task,
			Broadcast: true, Final: true,
		})
	}
	if e.probe != nil {
		e.probe.Deliver(e.now, node, true, true, e.now-pkt.birth)
	}
	if pkt.measured {
		e.res.Reception.Add(float64(e.now - pkt.birth))
		st := &e.tasks[pkt.target]
		st.remaining--
		if st.remaining == 0 {
			e.finishTask(pkt.target)
		}
	}
	e.forward(node, pkt)
}

// finishTask closes the dense state slot of a measured broadcast task whose
// outstanding copies have all been delivered or lost. Fully delivered tasks
// record the broadcast delay as always; degraded tasks (lost > 0) are
// counted separately because their "last node" never receives a copy. Under
// an active fault schedule every completed task also records the fraction of
// nodes it reached.
func (e *engine) finishTask(idx int32) {
	st := &e.tasks[idx]
	if st.lost == 0 {
		e.res.Broadcast.Add(float64(e.now - st.birth))
	} else {
		e.res.DegradedTasks++
	}
	if e.faults != nil {
		total := float64(e.s.Size() - 1)
		e.res.Reachability.Add((total - float64(st.lost)) / total)
	}
	e.freeTasks = append(e.freeTasks, idx)
	e.liveTasks--
}

// dropSubtree accounts for a copy of broadcast pkt that would cross the
// permanently failed link l in the given phase with hopsLeft hops to go:
// the copy and every descendant it would have spawned are lost. The copy
// covers hopsLeft+1 nodes along its own ring, each of which would have
// seeded subtrees spanning all later phases of the task's dimension order.
func (e *engine) dropSubtree(l torus.LinkID, phase int, hopsLeft int32, pkt *packet) {
	lost := int64(hopsLeft) + 1
	steps := e.starSteps(pkt.ending)
	for q := phase + 1; q < len(steps); q++ {
		lost *= int64(e.s.Dim(int(steps[q].Dim)))
	}
	if e.probe != nil {
		e.probe.Fault(e.now, l, true, lost)
	}
	if !pkt.measured {
		return
	}
	e.res.LostCopies += lost
	st := &e.tasks[pkt.target]
	st.lost += int32(lost)
	st.remaining -= int32(lost)
	if st.remaining == 0 {
		e.finishTask(pkt.target)
	}
}

// starSteps returns the STAR table rows of broadcasts with the given
// ending dimension, indexed by phase.
func (e *engine) starSteps(ending int8) []core.StarStep {
	lo := int(ending) * e.dims
	return e.star[lo : lo+e.dims : lo+e.dims]
}

// forward sends on the copies a node transmits after obtaining broadcast
// copy pkt (the source passes phase -1): the continuation of pkt's own
// ring while hops remain, then the ring-broadcast initiations of every
// later phase, read from the scheme's STAR table (core.StarStep). The
// copies are those core.BroadcastForward lists, drawn from the RNG and
// enqueued in the same order.
func (e *engine) forward(node torus.Node, pkt *packet) {
	steps := e.starSteps(pkt.ending)
	phase := int(pkt.phase)
	if phase >= 0 && pkt.hopsLeft > 0 {
		e.pushCopy(node, int(steps[phase].Dim), pkt.dir, pkt.class, phase, int32(pkt.hopsLeft)-1, pkt)
	}
	for q := phase + 1; q < len(steps); q++ {
		st := &steps[q]
		d1, d2 := st.Dirs(e.rng)
		e.pushCopy(node, int(st.Dim), d1, st.Class, q, st.First, pkt)
		if st.Second >= 0 {
			e.pushCopy(node, int(st.Dim), d2, st.Class, q, st.Second, pkt)
		}
	}
}

// pushCopy enqueues one copy of broadcast pkt on node's (dim, dir) link,
// written straight into its queue slot.
func (e *engine) pushCopy(node torus.Node, dim int, dir torus.Dir, class uint8, phase int, hopsLeft int32, pkt *packet) {
	l := e.s.Link(node, dim, dir)
	if e.faults != nil && e.faults.Permanent(l) {
		// A broadcast copy follows a fixed tree; a permanently dead edge
		// severs its whole subtree. Transient faults merely delay: the
		// copy queues and waits for the link to heal.
		e.dropSubtree(l, phase, hopsLeft, pkt)
		return
	}
	slot := e.push(l, dim, class)
	*slot = *pkt
	slot.enq = e.now
	slot.hopsLeft = int16(hopsLeft)
	slot.class = class
	slot.phase = int8(phase)
	slot.dir = dir
}

// push appends a slot to link l's class queue and returns it for the
// caller to fill; the slot is valid until the next push.
func (e *engine) push(l torus.LinkID, dim int, class uint8) *packet {
	slot := e.queues[int(l)*e.classes+int(class)].PushSlot()
	e.qlen[l]++
	e.backlog++
	if e.probe != nil {
		e.probe.Enqueue(e.now, l, dim, int(class), int(e.qlen[l]))
	}
	if e.busyUntil[l] <= e.now {
		e.markReady(l) // idle link gained work; examine it this slot
	}
	return slot
}

// generate injects this slot's new tasks. Per-node independent Poisson
// streams are equivalent to one aggregate Poisson stream with uniformly
// random sources.
func (e *engine) generate() {
	n := float64(e.s.Size())
	measured := e.now >= e.wStart && e.now < e.wEnd
	if e.now == 0 {
		e.generateImpulse(measured)
	}
	for i := traffic.Poisson(e.rng, e.cfg.Rates.LambdaB*n); i > 0; i-- {
		e.spawnBroadcast(torus.Node(e.rng.IntN(e.s.Size())), measured)
	}
	for i := traffic.Poisson(e.rng, e.cfg.Rates.LambdaR*n); i > 0; i-- {
		src := torus.Node(e.rng.IntN(e.s.Size()))
		e.spawnUnicast(src, traffic.UniformDest(e.rng, e.s, src), measured)
	}
}

// generateImpulse injects the static communication tasks of Config at slot
// 0: ImpulseBroadcasts broadcast tasks per node and/or the total-exchange
// unicast pattern.
func (e *engine) generateImpulse(measured bool) {
	if e.cfg.SingleBroadcast {
		e.spawnBroadcast(e.cfg.SingleBroadcastSource, measured)
	}
	for k := 0; k < e.cfg.ImpulseBroadcasts; k++ {
		for u := torus.Node(0); int(u) < e.s.Size(); u++ {
			e.spawnBroadcast(u, measured)
		}
	}
	if e.cfg.ImpulseTotalExchange {
		for u := torus.Node(0); int(u) < e.s.Size(); u++ {
			for v := torus.Node(0); int(v) < e.s.Size(); v++ {
				if u != v {
					e.spawnUnicast(u, v, measured)
				}
			}
		}
	}
}

// newTask allocates a dense state slot for a measured broadcast task,
// recycling slots of completed tasks.
func (e *engine) newTask() int32 {
	st := bcastState{birth: e.now, key: e.nextTask, remaining: int32(e.s.Size() - 1)}
	e.nextTask++
	e.liveTasks++
	if n := len(e.freeTasks); n > 0 {
		k := e.freeTasks[n-1]
		e.freeTasks = e.freeTasks[:n-1]
		e.tasks[k] = st
		return k
	}
	e.tasks = append(e.tasks, st)
	return int32(len(e.tasks) - 1)
}

func (e *engine) spawnBroadcast(src torus.Node, measured bool) {
	if e.probe != nil {
		e.probe.Spawn(e.now, true, measured)
	}
	ending := e.sch.SampleEnding(e.rng)
	pkt := packet{
		birth:    e.now,
		length:   int32(e.sampleLength()),
		kind:     kindBroadcast,
		ending:   int8(ending),
		phase:    -1,
		measured: measured,
	}
	if measured {
		pkt.target = e.newTask()
		e.res.GeneratedBroadcasts++
	}
	e.forward(src, &pkt)
}

func (e *engine) spawnUnicast(src, dest torus.Node, measured bool) {
	if e.probe != nil {
		e.probe.Spawn(e.now, false, measured)
	}
	pkt := packet{
		birth:    e.now,
		target:   int32(dest),
		tieMask:  core.SampleTieMask(e.rng, e.s.Dims()),
		length:   int32(e.sampleLength()),
		kind:     kindUnicast,
		class:    uint8(e.sch.UnicastClass()),
		measured: measured,
	}
	if measured {
		e.res.GeneratedUnicasts++
		e.res.IncompleteUnicasts++ // decremented on delivery
	}
	e.routeUnicast(src, &pkt)
}

func (e *engine) sampleLength() int {
	l := e.cfg.Length.Sample(e.rng)
	if l >= wheelSize {
		l = wheelSize - 1
		e.res.ClampedLengths++
	}
	return l
}

// serviceReady starts a new transmission on every ready link with queued
// packets. The bitmap sweep, written out here so no call is made per link,
// visits links in ascending LinkID order, which reproduces the exact
// service order of the historical full scan and keeps same-seed runs
// bit-identical. Nothing in the loop marks a link ready.
func (e *engine) serviceReady() {
	t := e.now
	inWindow := t >= e.wStart && t < e.wEnd
	b := &e.ready
	for w1, m1 := range b.l1 {
		if m1 == 0 {
			continue
		}
		b.l1[w1] = 0
		for m1 != 0 {
			w0 := w1<<6 + bits.TrailingZeros64(m1)
			m1 &= m1 - 1
			m0 := b.l0[w0]
			b.l0[w0] = 0
			for ; m0 != 0; m0 &= m0 - 1 {
				l := torus.LinkID(w0<<6 + bits.TrailingZeros64(m0))
				if e.qlen[l] == 0 {
					continue // completion with an empty queue: link simply goes idle
				}
				if e.faults != nil {
					if down, until := e.faults.DownUntil(l, t); down {
						// The link is failed this slot: its queue waits. A
						// transient fault schedules a wake-up for the
						// promised recovery slot; a permanent one (until <
						// 0) never heals, so the queue is abandoned
						// (adaptive unicast avoids such links unless no
						// profitable alternative exists).
						if e.probe != nil {
							e.probe.Fault(t, l, until < 0, 0)
						}
						if until >= 0 {
							e.scheduleRecovery(l, until)
						}
						continue
					}
				}
				// Head-of-line priority: the lowest nonempty class wins.
				class := 0
				q := &e.queues[int(l)*e.classes]
				for q.Len() == 0 {
					class++
					q = &e.queues[int(l)*e.classes+class]
				}
				pkt, _ := q.PopRef()
				e.qlen[l]--
				e.backlog--
				if inWindow {
					e.res.QueueWait[class].Add(float64(t - pkt.enq))
				}
				if e.probe != nil {
					e.probe.Service(t, l, int(e.linkDim[l]), class, pkt.length, t-pkt.enq)
				}
				length := int64(pkt.length)
				e.busyUntil[l] = t + length
				e.busySlots[l] += overlap(t, t+length, e.wStart, e.wEnd)
				// The packet rides in the link's inflight slot until
				// completion; the wheel carries only the link ID. pkt
				// points into the queue's ring buffer and stays valid:
				// nothing can push to this queue before the copy below.
				e.inflight[l] = *pkt
				at := (t + length) & wheelMask
				e.wheel[at] = append(e.wheel[at], l)
			}
		}
	}
}

// overlap returns the length of [a,b) ∩ [lo,hi).
func overlap(a, b, lo, hi int64) int64 {
	if a < lo {
		a = lo
	}
	if b > hi {
		b = hi
	}
	if b <= a {
		return 0
	}
	return b - a
}

// finish converts raw counters into Result aggregates.
func (e *engine) finish() {
	e.res.IncompleteBroadcasts = e.liveTasks
	d := e.s.Dims()
	busy := make([]int64, d)
	links := make([]int64, d)
	totalBusy := int64(0)
	for l := 0; l < e.s.LinkSlots(); l++ {
		if !e.s.ValidLink(torus.LinkID(l)) {
			continue
		}
		dim := e.linkDim[l]
		busy[dim] += e.busySlots[l]
		links[dim]++
		totalBusy += e.busySlots[l]
	}
	e.res.DimUtilization = make([]float64, d)
	measure := float64(e.cfg.Measure)
	for i := 0; i < d; i++ {
		if links[i] > 0 {
			e.res.DimUtilization[i] = float64(busy[i]) / (measure * float64(links[i]))
		}
		if e.res.DimUtilization[i] > e.res.MaxDimUtilization {
			e.res.MaxDimUtilization = e.res.DimUtilization[i]
		}
	}
	e.res.AvgUtilization = float64(totalBusy) / (measure * float64(e.s.Links()))
	e.res.BacklogSlope = float64(e.res.BacklogEnd-e.res.BacklogStart) / measure
	if e.firstQCount > 0 {
		e.res.BacklogFirstQ = e.firstQSum / float64(e.firstQCount)
	}
	if e.lastQCount > 0 {
		e.res.BacklogLastQ = e.lastQSum / float64(e.lastQCount)
	}
	e.res.BacklogTrend = e.res.BacklogLastQ - e.res.BacklogFirstQ
}

// Stable heuristically reports whether the run operated below saturation:
// not truncated, and the quarter-averaged backlog trend grew by less than
// one packet per link plus half the initial backlog level over the window.
// Averaging whole quarters (rather than comparing two instants) filters the
// large stationary fluctuations of high-but-stable loads, while genuine
// saturation — which adds Theta(deficit * links) packets per slot for the
// whole window — still trips the threshold immediately.
func (r *Result) Stable(s *torus.Shape) bool {
	if r.Truncated || r.Status != StatusOK {
		return false
	}
	return r.BacklogTrend < float64(s.Links())+r.BacklogFirstQ/2
}
