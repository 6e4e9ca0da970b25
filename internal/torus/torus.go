// Package torus models the interconnection topologies the paper evaluates:
// general n1 x n2 x ... x nd tori (meshes with wraparound), n-ary d-cubes
// (all dimensions equal), and binary hypercubes (the 2-ary d-cube special
// case).
//
// Nodes are identified by dense integer IDs in [0, N) using a mixed-radix
// encoding of their coordinates: dimension 0 is the fastest-varying digit.
// Every node has one bidirectional ring per dimension. A ring of length
// n >= 3 contributes two outgoing directed links per node (directions + and
// -); a ring of length 2 contributes a single outgoing directed link,
// because both directions reach the same neighbor and a 2-ary d-cube must
// coincide with the d-dimensional hypercube (d links per node, not 2d).
package torus

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Node identifies a torus node by its dense mixed-radix index.
type Node int32

// Dir is a ring direction: +1 (increasing coordinate) or -1 (decreasing).
type Dir int8

// Ring directions. Dimensions of length 2 only use Plus.
const (
	Plus  Dir = +1
	Minus Dir = -1
)

// DirIndex converts a direction into a dense index (Plus=0, Minus=1) for
// addressing per-direction arrays.
func DirIndex(d Dir) int {
	if d == Plus {
		return 0
	}
	return 1
}

// DirFromIndex is the inverse of DirIndex.
func DirFromIndex(i int) Dir {
	if i == 0 {
		return Plus
	}
	return Minus
}

// Shape describes an n1 x n2 x ... x nd torus. It is immutable after
// construction and safe for concurrent use.
type Shape struct {
	dims    []int // nodes along each dimension, each >= 2
	strides []int // strides[i] = n_0 * n_1 * ... * n_{i-1}
	size    int   // total number of nodes N
	degree  int   // outgoing directed links per node
	links   int   // total directed links in the network (L)

	// Lazily built per-LinkID lookup tables (see LinkTables). Built at
	// most once per shape; sync.Once keeps the shape safe for concurrent
	// use. Analysis-only code that never touches links pays nothing.
	linkOnce   sync.Once
	linkDstTab []Node
	linkDimTab []int32

	// Lazily built coordinate table (see CoordTable). An atomic pointer
	// instead of a second sync.Once keeps Shape in the allocation size
	// class it had before the table; planning a sweep builds many shapes.
	coordTab atomic.Pointer[[]int32]
}

// New constructs a torus shape from the per-dimension lengths. Every
// dimension must have at least two nodes (a 1-ring has no links).
func New(dims ...int) (*Shape, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("torus: need at least one dimension")
	}
	s := &Shape{
		dims:    make([]int, len(dims)),
		strides: make([]int, len(dims)),
		size:    1,
	}
	for i, n := range dims {
		if n < 2 {
			return nil, fmt.Errorf("torus: dimension %d has length %d; need >= 2", i, n)
		}
		const maxNodes = 1 << 30
		if s.size > maxNodes/n {
			return nil, fmt.Errorf("torus: shape %v exceeds %d nodes", dims, maxNodes)
		}
		s.dims[i] = n
		s.strides[i] = s.size
		s.size *= n
		if n == 2 {
			s.degree++
		} else {
			s.degree += 2
		}
	}
	s.links = s.size * s.degree
	return s, nil
}

// MustNew is New but panics on error; intended for tests, examples, and
// literals with constant shapes.
func MustNew(dims ...int) *Shape {
	s, err := New(dims...)
	if err != nil {
		panic(err)
	}
	return s
}

// NAryDCube returns the n-ary d-cube, i.e. the d-dimensional torus with n
// nodes along every dimension.
func NAryDCube(n, d int) (*Shape, error) {
	dims := make([]int, d)
	for i := range dims {
		dims[i] = n
	}
	return New(dims...)
}

// Hypercube returns the d-dimensional binary hypercube, modelled as the
// 2-ary d-cube (one directed link per node per dimension).
func Hypercube(d int) (*Shape, error) {
	return NAryDCube(2, d)
}

// Dims returns the number of dimensions d.
func (s *Shape) Dims() int { return len(s.dims) }

// Dim returns the number of nodes along dimension i.
func (s *Shape) Dim(i int) int { return s.dims[i] }

// DimLengths returns a copy of the per-dimension lengths.
func (s *Shape) DimLengths() []int {
	out := make([]int, len(s.dims))
	copy(out, s.dims)
	return out
}

// Size returns the total number of nodes N.
func (s *Shape) Size() int { return s.size }

// Degree returns the number of outgoing directed links per node
// (2 per dimension of length >= 3, 1 per dimension of length 2). The paper
// calls this d_ave; for a torus every node has the same degree.
func (s *Shape) Degree() int { return s.degree }

// Links returns the total number of directed links L = N * Degree.
func (s *Shape) Links() int { return s.links }

// Symmetric reports whether all dimensions have equal length (the shape is
// an n-ary d-cube).
func (s *Shape) Symmetric() bool {
	for _, n := range s.dims[1:] {
		if n != s.dims[0] {
			return false
		}
	}
	return true
}

// String renders the shape as "n1x n2 x ... x nd torus".
func (s *Shape) String() string {
	parts := make([]string, len(s.dims))
	for i, n := range s.dims {
		parts[i] = fmt.Sprint(n)
	}
	return strings.Join(parts, "x") + " torus"
}

// Coord returns the coordinate of node u along dimension i.
func (s *Shape) Coord(u Node, i int) int {
	return int(u) / s.strides[i] % s.dims[i]
}

// CoordTable returns a dense table of node coordinates: entry u*Dims()+i
// is Coord(u, i). Like LinkTables it is built on first use and shared by
// every caller, so hot loops (the unicast next-hop rule runs
// once per packet hop) read coordinates instead of paying Coord's
// division chain. Callers must treat the returned slice as read-only.
func (s *Shape) CoordTable() []int32 {
	if tab := s.coordTab.Load(); tab != nil {
		return *tab
	}
	// Concurrent first callers may each build the table; they build the
	// same one and the first to publish wins.
	d := len(s.dims)
	tab := make([]int32, s.size*d)
	for u := 0; u < s.size; u++ {
		rem := u
		for i, n := range s.dims {
			tab[u*d+i] = int32(rem % n)
			rem /= n
		}
	}
	s.coordTab.CompareAndSwap(nil, &tab)
	return *s.coordTab.Load()
}

// Coords decodes all coordinates of u into buf (reused if large enough).
func (s *Shape) Coords(u Node, buf []int) []int {
	if cap(buf) < len(s.dims) {
		buf = make([]int, len(s.dims))
	}
	buf = buf[:len(s.dims)]
	rem := int(u)
	for i, n := range s.dims {
		buf[i] = rem % n
		rem /= n
	}
	return buf
}

// Node encodes coordinates into a node ID. Coordinates must be in range.
func (s *Shape) Node(coords []int) Node {
	id := 0
	for i := len(coords) - 1; i >= 0; i-- {
		id = id*s.dims[i] + coords[i]
	}
	return Node(id)
}

// Valid reports whether u is a node of this shape.
func (s *Shape) Valid(u Node) bool { return u >= 0 && int(u) < s.size }

// Neighbor returns the node one hop from u along dimension i in direction
// dir.
func (s *Shape) Neighbor(u Node, i int, dir Dir) Node {
	n, stride := s.dims[i], s.strides[i]
	c := int(u) / stride % n
	var nc int
	if dir == Plus {
		nc = c + 1
		if nc == n {
			nc = 0
		}
	} else {
		nc = c - 1
		if nc < 0 {
			nc = n - 1
		}
	}
	return u + Node((nc-c)*stride)
}

// DirsInDim returns how many outgoing directions dimension i offers per
// node: 1 for 2-rings, 2 otherwise.
func (s *Shape) DirsInDim(i int) int {
	if s.dims[i] == 2 {
		return 1
	}
	return 2
}

// RingOffset returns the coordinate offset (b - a) mod n along dimension i,
// in [0, n).
func (s *Shape) RingOffset(a, b Node, i int) int {
	n := s.dims[i]
	d := (s.Coord(b, i) - s.Coord(a, i)) % n
	if d < 0 {
		d += n
	}
	return d
}

// RingDist returns the shortest ring distance min(delta, n-delta) for an
// offset delta in [0, n) along a ring of length n.
func RingDist(delta, n int) int {
	if delta > n-delta {
		return n - delta
	}
	return delta
}

// Distance returns the shortest-path (Lee) distance between a and b.
func (s *Shape) Distance(a, b Node) int {
	total := 0
	for i := range s.dims {
		total += RingDist(s.RingOffset(a, b, i), s.dims[i])
	}
	return total
}

// Diameter returns the network diameter, sum of floor(n_i/2).
func (s *Shape) Diameter() int {
	total := 0
	for _, n := range s.dims {
		total += n / 2
	}
	return total
}

// ringDistSum returns the sum of ring distances from a fixed node to every
// node of an n-ring (including itself, which contributes 0): n^2/4 for even
// n and (n^2-1)/4 for odd n.
func ringDistSum(n int) int {
	return n * n / 4 // integer division floors the odd case to (n^2-1)/4
}

// AvgDimDistance returns the exact expected ring distance along dimension i
// from a node to a destination chosen uniformly among the other N-1 nodes.
// This is the per-task expected number of dimension-i transmissions for
// shortest-path unicast routing, the quantity the paper approximates as
// floor(n_i/4) in Section 4.
func (s *Shape) AvgDimDistance(i int) float64 {
	// Destinations uniform over the N-1 non-source nodes: each coordinate
	// offset k in dimension i appears N/n_i times among all N destination
	// tuples, and excluding the source removes one zero-distance tuple.
	return float64(s.size) * float64(ringDistSum(s.dims[i])) /
		(float64(s.dims[i]) * float64(s.size-1))
}

// PaperDimDistance returns the paper's Section 4 approximation floor(n_i/4)
// of the average dimension-i ring distance.
func (s *Shape) PaperDimDistance(i int) int { return s.dims[i] / 4 }

// AvgDistance returns the exact average shortest-path distance D_ave over
// destinations uniform among the other N-1 nodes.
func (s *Shape) AvgDistance() float64 {
	total := 0.0
	for i := range s.dims {
		total += s.AvgDimDistance(i)
	}
	return total
}

// LinkID identifies a directed link by a dense index in [0, LinkSlots()).
// Slots for direction Minus in dimensions of length 2 exist in the index
// space but are never valid links; use ValidLink to filter.
type LinkID int32

// LinkSlots returns the size of the link index space, Size * Dims * 2.
func (s *Shape) LinkSlots() int { return s.size * len(s.dims) * 2 }

// Link returns the ID of the outgoing link of node u along dimension i in
// direction dir.
func (s *Shape) Link(u Node, i int, dir Dir) LinkID {
	return LinkID((int(u)*len(s.dims)+i)*2 + DirIndex(dir))
}

// LinkSrc returns the node that owns (transmits on) link l.
func (s *Shape) LinkSrc(l LinkID) Node {
	return Node(int(l) / 2 / len(s.dims))
}

// LinkDim returns the dimension link l belongs to.
func (s *Shape) LinkDim(l LinkID) int {
	return int(l) / 2 % len(s.dims)
}

// LinkDir returns the ring direction of link l.
func (s *Shape) LinkDir(l LinkID) Dir {
	return DirFromIndex(int(l) & 1)
}

// LinkDst returns the node at the receiving end of link l.
func (s *Shape) LinkDst(l LinkID) Node {
	return s.Neighbor(s.LinkSrc(l), s.LinkDim(l), s.LinkDir(l))
}

// LinkTables returns dense per-LinkID lookup tables for LinkDst and
// LinkDim, indexed by LinkID over [0, LinkSlots()). They are built once per
// shape on first use and shared by every caller, so hot loops (the
// simulator processes one LinkDst lookup per packet hop) avoid the
// div/mod chains of the accessor methods. Callers must treat the returned
// slices as read-only. Entries for invalid link slots (the Minus direction
// of 2-rings) hold the dimension but a zero destination; filter with
// ValidLink where it matters.
func (s *Shape) LinkTables() (dst []Node, dim []int32) {
	s.linkOnce.Do(func() {
		slots := s.LinkSlots()
		dstTab := make([]Node, slots)
		dimTab := make([]int32, slots)
		for l := 0; l < slots; l++ {
			id := LinkID(l)
			dimTab[l] = int32(s.LinkDim(id))
			if s.ValidLink(id) {
				dstTab[l] = s.LinkDst(id)
			}
		}
		s.linkDstTab, s.linkDimTab = dstTab, dimTab
	})
	return s.linkDstTab, s.linkDimTab
}

// ValidLink reports whether slot l is a real link (excludes the unused
// Minus direction of 2-rings).
func (s *Shape) ValidLink(l LinkID) bool {
	if l < 0 || int(l) >= s.LinkSlots() {
		return false
	}
	return s.LinkDir(l) == Plus || s.dims[s.LinkDim(l)] > 2
}
