// Package core implements the paper's primary contribution: the STAR
// (Single-To-All Rotation) broadcast scheme, its priority discipline
// (priority STAR), and the shortest-path unicast routing that shares the
// network with it (Sections 3 and 4 of the paper).
//
// A STAR broadcast with ending dimension l covers dimensions in the rotated
// order l+1, ..., d-1, 0, ..., l. Covering a dimension means a nested ring
// broadcast: every node that already holds the packet sends it around its
// ring in both directions, one direction covering ceil((n-1)/2) nodes and
// the other floor((n-1)/2). The nonidling all-port variant simulated here
// forwards every copy as soon as its link is free, so a node that receives a
// copy while covering dimension p immediately initiates the ring broadcasts
// of all later dimensions in the order.
//
// Priority STAR assigns low priority to copies that traverse links of the
// ending dimension and high priority to everything else; the heterogeneous
// disciplines of Section 4 add unicast packets at high (2-level) or medium
// (3-level) priority.
package core

import (
	"fmt"
	"math/rand/v2"

	"prioritystar/internal/balance"
	"prioritystar/internal/torus"
	"prioritystar/internal/traffic"
)

// Discipline selects the queueing priority structure at the routers.
type Discipline int

const (
	// FCFS serves all packets in one first-come first-served class; with
	// balanced rotation this models the FCFS generalization of the direct
	// scheme of Stamoulis and Tsitsiklis that the paper's figures compare
	// against.
	FCFS Discipline = iota
	// TwoLevel is the priority STAR discipline: broadcast copies on
	// ending-dimension links are low priority, every other packet
	// (including unicast) is high priority. Section 4's first variant.
	TwoLevel
	// ThreeLevel refines TwoLevel for heterogeneous traffic: non-ending
	// broadcast copies high, unicast medium, ending-dimension copies low.
	// Section 4's second variant.
	ThreeLevel
)

// String names the discipline.
func (d Discipline) String() string {
	switch d {
	case FCFS:
		return "fcfs"
	case TwoLevel:
		return "2-level"
	case ThreeLevel:
		return "3-level"
	default:
		return fmt.Sprintf("discipline(%d)", int(d))
	}
}

// Classes returns the number of priority classes the discipline uses.
func (d Discipline) Classes() int {
	switch d {
	case FCFS:
		return 1
	case TwoLevel:
		return 2
	case ThreeLevel:
		return 3
	default:
		panic(fmt.Sprintf("core: unknown discipline %d", int(d)))
	}
}

// Rotation selects how broadcasts choose their ending dimension.
type Rotation int

const (
	// BalancedRotation draws the ending dimension from the probability
	// vector that balances the offered load (Eq. 2 or Eq. 4).
	BalancedRotation Rotation = iota
	// UniformRotation draws uniformly (1/d); optimal only for symmetric
	// tori, and the paper's model of schemes that ignore unicast load.
	UniformRotation
	// FixedEnding always uses dimension d-1, i.e. classical
	// dimension-ordered broadcast with no rotation; its maximum throughput
	// collapses as Section 1 describes.
	FixedEnding
)

// String names the rotation policy.
func (r Rotation) String() string {
	switch r {
	case BalancedRotation:
		return "balanced"
	case UniformRotation:
		return "uniform"
	case FixedEnding:
		return "fixed"
	default:
		return fmt.Sprintf("rotation(%d)", int(r))
	}
}

// Scheme bundles the routing decisions of one experiment configuration: the
// ending-dimension distribution and the priority discipline.
type Scheme struct {
	Shape      *torus.Shape
	Discipline Discipline
	Rotation   Rotation
	// Vector is the resolved ending-dimension distribution (cumulative
	// sampling uses it directly). For UniformRotation it is 1/d everywhere;
	// for FixedEnding it is a point mass on dimension d-1.
	Vector balance.Vector

	cumulative []float64
}

// NewScheme resolves a scheme for the given traffic mix. The balance vector
// is computed from the rates via Eq. (4) (which reduces to Eq. (2) for
// broadcast-only traffic) using the supplied distance model.
func NewScheme(s *torus.Shape, disc Discipline, rot Rotation, rates traffic.Rates, m balance.DistanceModel) (*Scheme, error) {
	disc.Classes() // validate (panics on unknown values)
	sch := &Scheme{Shape: s, Discipline: disc, Rotation: rot}
	d := s.Dims()
	switch rot {
	case BalancedRotation:
		v, err := balance.Heterogeneous(s, rates.LambdaB, rates.LambdaR, m)
		if err != nil {
			return nil, err
		}
		sch.Vector = v
	case UniformRotation:
		sch.Vector = balance.Uniform(d)
	case FixedEnding:
		x := make([]float64, d)
		x[d-1] = 1
		sch.Vector = balance.Vector{X: x, Feasible: true}
	default:
		return nil, fmt.Errorf("core: unknown rotation %d", int(rot))
	}
	sch.cumulative = make([]float64, d)
	sum := 0.0
	for i, x := range sch.Vector.X {
		sum += x
		sch.cumulative[i] = sum
	}
	sch.cumulative[d-1] = 1 // absorb floating-point slack
	return sch, nil
}

// PrioritySTAR is the paper's proposed scheme: balanced rotation with the
// two-level priority discipline.
func PrioritySTAR(s *torus.Shape, rates traffic.Rates, m balance.DistanceModel) (*Scheme, error) {
	return NewScheme(s, TwoLevel, BalancedRotation, rates, m)
}

// PrioritySTAR3 is priority STAR with the three-level heterogeneous
// discipline of Section 4.
func PrioritySTAR3(s *torus.Shape, rates traffic.Rates, m balance.DistanceModel) (*Scheme, error) {
	return NewScheme(s, ThreeLevel, BalancedRotation, rates, m)
}

// STARFCFS is balanced rotation with FCFS service: the paper's baseline
// (the FCFS generalization of the direct scheme in [12]).
func STARFCFS(s *torus.Shape, rates traffic.Rates, m balance.DistanceModel) (*Scheme, error) {
	return NewScheme(s, FCFS, BalancedRotation, rates, m)
}

// DimOrderFCFS is classical dimension-ordered broadcast with FCFS service
// and no rotation.
func DimOrderFCFS(s *torus.Shape) (*Scheme, error) {
	return NewScheme(s, FCFS, FixedEnding, traffic.Rates{}, balance.ExactDistance)
}

// String describes the scheme.
func (sch *Scheme) String() string {
	return fmt.Sprintf("%s rotation, %s", sch.Rotation, sch.Discipline)
}

// SampleEnding draws an ending dimension from the scheme's vector.
func (sch *Scheme) SampleEnding(rng *rand.Rand) int {
	u := rng.Float64()
	for i, c := range sch.cumulative {
		if u < c {
			return i
		}
	}
	return len(sch.cumulative) - 1
}

// BroadcastClass returns the priority class (0 = highest) of a broadcast
// copy transmitted on a link of dimension dim for a task with the given
// ending dimension.
func (sch *Scheme) BroadcastClass(dim, ending int) int {
	switch sch.Discipline {
	case TwoLevel:
		if dim == ending {
			return 1
		}
		return 0
	case ThreeLevel:
		if dim == ending {
			return 2
		}
		return 0
	default:
		return 0
	}
}

// UnicastClass returns the priority class of unicast packets.
func (sch *Scheme) UnicastClass() int {
	if sch.Discipline == ThreeLevel {
		return 1
	}
	return 0
}

// VirtualChannel returns the SDC virtual-channel label of a broadcast hop:
// dimensions visited before the wraparound of the rotated order (dim >
// ending) ride VC 1 and the rest ride VC 2, the deadlock-freedom rule of
// Section 3.1. Under store-and-forward with unbounded queues the label does
// not affect dynamics; it is exposed for fidelity and tested for
// consistency with the paper's rule.
func VirtualChannel(dim, ending int) uint8 {
	if dim > ending {
		return 1
	}
	return 2
}

// RingInit describes one direction of a ring broadcast initiation: the
// first hop's direction and how many nodes the copy must still serve after
// the first delivery.
type RingInit struct {
	Dir      torus.Dir
	HopsLeft int // further hops after the first delivery (total = HopsLeft+1)
}

// RingInitiations returns the copies a node emits to cover its ring of
// length n (excluding itself): one or two directed copies serving n-1 nodes
// in total, ceil((n-1)/2) one way and floor((n-1)/2) the other. Which
// direction receives the extra node is randomized (rng may be nil for the
// deterministic plus-heavy split) so that opposite links stay balanced for
// even n. For n = 2 a single Plus copy is emitted, matching the hypercube's
// single link per dimension.
func RingInitiations(n int, rng *rand.Rand) []RingInit {
	first, second, draw := ringSplit(n)
	if first < 0 {
		return nil
	}
	d1, d2 := splitDirs(draw, rng)
	if second < 0 {
		return []RingInit{{Dir: d1, HopsLeft: first}}
	}
	return []RingInit{{Dir: d1, HopsLeft: first}, {Dir: d2, HopsLeft: second}}
}

// ringSplit is the one definition of the ring-broadcast split: the
// HopsLeft of the first copy (ceil((n-1)/2) nodes) and of the second copy
// (floor((n-1)/2) nodes), -1 for a copy that is not sent, and whether the
// two directions are drawn at random (the halves differ, which happens on
// even rings longer than 2).
func ringSplit(n int) (first, second int, draw bool) {
	total := n - 1
	if total <= 0 {
		return -1, -1, false
	}
	a := (total + 1) / 2 // nodes served by the first direction
	b := total / 2
	return a - 1, b - 1, n > 2 && a != b
}

// splitDirs returns the directions of the first and second copy of a ring
// split: Plus then Minus, swapped by one draw from rng when the split is
// drawn (a nil rng keeps the deterministic plus-heavy split).
func splitDirs(draw bool, rng *rand.Rand) (first, second torus.Dir) {
	if draw && rng != nil && rng.IntN(2) == 1 {
		return torus.Minus, torus.Plus
	}
	return torus.Plus, torus.Minus
}

// StarStep is one row of a scheme's STAR forwarding table: how a node
// holding a broadcast copy initiates the ring broadcast of one phase of
// the rotated dimension order. The simulator fills the table once per run
// (StarTable), so forwarding a copy reads a row instead of redoing the
// modulo, the ring split and the class rule per copy.
type StarStep struct {
	First  int32 // HopsLeft of the first copy
	Second int32 // HopsLeft of the second copy; -1 on 2-rings, which send one
	Dim    int8  // link dimension of the phase: (ending+1+phase) mod d
	Class  uint8 // priority class of copies on Dim under the scheme's discipline
	Draw   bool  // the directions are drawn from the RNG (see splitDirs)
}

// Dirs returns the directions of the phase's first and second copy,
// drawing from rng when the row says so (see splitDirs).
func (st *StarStep) Dirs(rng *rand.Rand) (first, second torus.Dir) {
	return splitDirs(st.Draw, rng)
}

// StarStep returns the forwarding table row of the given phase of
// broadcasts with the given ending dimension.
func (sch *Scheme) StarStep(ending, phase int) StarStep {
	d := sch.Shape.Dims()
	dim := orderDim(d, ending, phase)
	first, second, draw := ringSplit(sch.Shape.Dim(dim))
	return StarStep{
		First: int32(first), Second: int32(second),
		Dim: int8(dim), Class: uint8(sch.BroadcastClass(dim, ending)), Draw: draw,
	}
}

// StarTable fills buf (reallocated when too small) with the scheme's whole
// forwarding table and returns it: Dims()^2 rows, row ending*Dims()+phase
// being StarStep(ending, phase).
func (sch *Scheme) StarTable(buf []StarStep) []StarStep {
	d := sch.Shape.Dims()
	buf = buf[:0]
	for ending := 0; ending < d; ending++ {
		for p := 0; p < d; p++ {
			buf = append(buf, sch.StarStep(ending, p))
		}
	}
	return buf
}

// Hop is one broadcast copy to transmit: the ring-broadcast phase it
// belongs to (index into the rotated dimension order), its link dimension
// and direction, and the hops remaining after its next delivery.
type Hop struct {
	Phase    int
	Dim      int
	Dir      torus.Dir
	HopsLeft int
}

// BroadcastForward computes the copies a node transmits when it obtains a
// broadcast packet with the given ending dimension, reading the rows of
// the scheme's STAR table (StarStep):
//
//   - the source calls it with phase = -1 (it initiates every phase);
//   - a node that received the copy during phase p with h hops remaining
//     calls it with (p, h): the ring continues if h > 0, and the node
//     initiates the ring broadcasts of phases p+1, ..., d-1.
//
// dir is the direction the copy was travelling in (ignored for the source).
// The returned hops are appended to buf.
func BroadcastForward(sch *Scheme, ending, phase int, dir torus.Dir, hopsLeft int, rng *rand.Rand, buf []Hop) []Hop {
	if phase >= 0 && hopsLeft > 0 {
		st := sch.StarStep(ending, phase)
		buf = append(buf, Hop{Phase: phase, Dim: int(st.Dim), Dir: dir, HopsLeft: hopsLeft - 1})
	}
	for q := phase + 1; q < sch.Shape.Dims(); q++ {
		st := sch.StarStep(ending, q)
		d1, d2 := st.Dirs(rng)
		buf = append(buf, Hop{Phase: q, Dim: int(st.Dim), Dir: d1, HopsLeft: int(st.First)})
		if st.Second >= 0 {
			buf = append(buf, Hop{Phase: q, Dim: int(st.Dim), Dir: d2, HopsLeft: int(st.Second)})
		}
	}
	return buf
}

// orderDim returns the dimension at position p of the rotated order for the
// given ending dimension: (ending+1+p) mod d.
func orderDim(d, ending, p int) int { return (ending + 1 + p) % d }

// OrderDim exposes orderDim for tests and visualization tools.
func OrderDim(d, ending, p int) int { return orderDim(d, ending, p) }

// shortestDir returns the shortest direction for a nonzero ring offset off
// on a ring of length n, and whether both directions are shortest (off is
// exactly n/2 on a ring longer than 2), in which case tieBit picks Minus.
func shortestDir(off, n int, tieBit bool) (dir torus.Dir, tie bool) {
	switch {
	case n == 2 || 2*off < n:
		return torus.Plus, false
	case 2*off > n:
		return torus.Minus, false
	case tieBit:
		return torus.Minus, true
	default:
		return torus.Plus, true
	}
}

// UnicastNextHop returns the next link a unicast packet takes from cur
// toward dest: the first dimension (in index order) whose coordinates
// differ, traversed in the shorter ring direction. When the offset is
// exactly n/2 both directions are shortest and the packet's tie mask (bit
// per dimension, drawn at generation time) decides, keeping opposite links
// statistically balanced. done is true when cur == dest. Coordinates come
// from the shape's CoordTable, so the rule does no division.
func UnicastNextHop(s *torus.Shape, cur, dest torus.Node, tieMask uint32) (dim int, dir torus.Dir, done bool) {
	coords := s.CoordTable()
	d := s.Dims()
	a := coords[int(cur)*d : int(cur)*d+d]
	b := coords[int(dest)*d : int(dest)*d+d]
	for i := range a {
		off := int(b[i] - a[i])
		if off == 0 {
			continue
		}
		n := s.Dim(i)
		if off < 0 {
			off += n
		}
		dir, _ := shortestDir(off, n, tieMask&(1<<uint(i)) != 0)
		return i, dir, false
	}
	return 0, torus.Plus, true
}

// UnicastNextHopAdaptive is the minimal-adaptive variant of UnicastNextHop
// used when links can fail: it returns the first profitable hop (a dimension
// with a nonzero offset, traversed in a shortest direction) whose link is not
// rejected by down. When the offset is exactly n/2 both directions are
// shortest, so the non-preferred direction is tried before moving to the
// next profitable dimension. When every profitable hop is down, the
// preferred hop is returned with live == false and the caller waits on it
// (packets never take non-minimal detours). done is true when cur == dest.
func UnicastNextHopAdaptive(s *torus.Shape, cur, dest torus.Node, tieMask uint32,
	down func(dim int, dir torus.Dir) bool) (dim int, dir torus.Dir, live, done bool) {
	havePref := false
	var prefDim int
	var prefDir torus.Dir
	coords := s.CoordTable()
	d := s.Dims()
	a := coords[int(cur)*d : int(cur)*d+d]
	b := coords[int(dest)*d : int(dest)*d+d]
	for i := range a {
		off := int(b[i] - a[i])
		if off == 0 {
			continue
		}
		n := s.Dim(i)
		if off < 0 {
			off += n
		}
		dr, tie := shortestDir(off, n, tieMask&(1<<uint(i)) != 0)
		if !havePref {
			havePref, prefDim, prefDir = true, i, dr
		}
		if !down(i, dr) {
			return i, dr, true, false
		}
		if tie && !down(i, -dr) {
			return i, -dr, true, false
		}
	}
	if !havePref {
		return 0, torus.Plus, false, true
	}
	return prefDim, prefDir, false, false
}

// SampleTieMask draws one random tie-breaking bit per dimension.
func SampleTieMask(rng *rand.Rand, dims int) uint32 {
	if dims > 32 {
		panic(fmt.Sprintf("core: %d dimensions exceed the 32-bit tie mask", dims))
	}
	return rng.Uint32() & (1<<uint(dims) - 1)
}

// TreeNode is one node's position in an enumerated STAR broadcast tree.
type TreeNode struct {
	Parent torus.Node // parent in the tree (source's parent is itself)
	Depth  int        // hop distance from the source along the tree
	Phase  int        // phase of the ring broadcast that delivered the copy
	Dim    int        // dimension of the delivering link (-1 for the source)
	Class  int        // priority class of the delivering transmission
}

// BroadcastTree enumerates the full spanning tree of a STAR broadcast from
// source with the given ending dimension, using the deterministic
// plus-heavy ring split when rng is nil. It is used by tests (coverage and
// transmission-count invariants) and by the Fig. 1 visualization.
func BroadcastTree(sch *Scheme, source torus.Node, ending int, rng *rand.Rand) []TreeNode {
	s := sch.Shape
	tree := make([]TreeNode, s.Size())
	for i := range tree {
		tree[i].Dim = -1
		tree[i].Parent = torus.Node(-1)
	}
	tree[source] = TreeNode{Parent: source, Depth: 0, Phase: -1, Dim: -1, Class: -1}

	type copyState struct {
		at       torus.Node
		phase    int
		dir      torus.Dir
		hopsLeft int
	}
	var frontier []copyState
	expand := func(at torus.Node, phase, hopsLeft int, dir torus.Dir) {
		for _, h := range BroadcastForward(sch, ending, phase, dir, hopsLeft, rng, nil) {
			frontier = append(frontier, copyState{at: at, phase: h.Phase, dir: h.Dir, hopsLeft: h.HopsLeft})
		}
	}
	expand(source, -1, 0, torus.Plus)
	for len(frontier) > 0 {
		c := frontier[0]
		frontier = frontier[1:]
		dim := orderDim(s.Dims(), ending, c.phase)
		next := s.Neighbor(c.at, dim, c.dir)
		if tree[next].Parent != torus.Node(-1) {
			panic(fmt.Sprintf("core: node %d received a second copy (tree not a spanning tree)", next))
		}
		tree[next] = TreeNode{
			Parent: c.at,
			Depth:  tree[c.at].Depth + 1,
			Phase:  c.phase,
			Dim:    dim,
			Class:  sch.BroadcastClass(dim, ending),
		}
		expand(next, c.phase, c.hopsLeft, c.dir)
	}
	return tree
}
