package torus

import (
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("New() with no dimensions should fail")
	}
	if _, err := New(5, 1, 5); err == nil {
		t.Error("New with a 1-length dimension should fail")
	}
	if _, err := New(0); err == nil {
		t.Error("New(0) should fail")
	}
	if _, err := New(-3); err == nil {
		t.Error("New(-3) should fail")
	}
	if _, err := New(1<<16, 1<<16); err == nil {
		t.Error("oversized shape should fail")
	}
	if _, err := New(4, 4, 8); err != nil {
		t.Errorf("New(4,4,8) failed: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(1) should panic")
		}
	}()
	MustNew(1)
}

func TestBasicProperties(t *testing.T) {
	cases := []struct {
		dims      []int
		size      int
		degree    int
		diameter  int
		symmetric bool
	}{
		{[]int{8, 8}, 64, 4, 8, true},
		{[]int{16, 16}, 256, 4, 16, true},
		{[]int{8, 8, 8}, 512, 6, 12, true},
		{[]int{4, 4, 8}, 128, 6, 8, false},
		{[]int{5, 5}, 25, 4, 4, true},
		{[]int{2, 2, 2}, 8, 3, 3, true}, // 3-cube: hypercube degree d
		{[]int{2, 8}, 16, 3, 5, false},  // mixed 2-ring
		{[]int{3}, 3, 2, 1, true},       // single ring
		{[]int{2, 3, 4, 5}, 120, 7, 6, false},
	}
	for _, c := range cases {
		s := MustNew(c.dims...)
		if s.Size() != c.size {
			t.Errorf("%v: Size = %d, want %d", c.dims, s.Size(), c.size)
		}
		if s.Degree() != c.degree {
			t.Errorf("%v: Degree = %d, want %d", c.dims, s.Degree(), c.degree)
		}
		if s.Links() != c.size*c.degree {
			t.Errorf("%v: Links = %d, want %d", c.dims, s.Links(), c.size*c.degree)
		}
		if s.Diameter() != c.diameter {
			t.Errorf("%v: Diameter = %d, want %d", c.dims, s.Diameter(), c.diameter)
		}
		if s.Symmetric() != c.symmetric {
			t.Errorf("%v: Symmetric = %v, want %v", c.dims, s.Symmetric(), c.symmetric)
		}
		if s.Dims() != len(c.dims) {
			t.Errorf("%v: Dims = %d, want %d", c.dims, s.Dims(), len(c.dims))
		}
		for i, n := range c.dims {
			if s.Dim(i) != n {
				t.Errorf("%v: Dim(%d) = %d, want %d", c.dims, i, s.Dim(i), n)
			}
		}
	}
}

func TestHypercubeMatchesBinaryCube(t *testing.T) {
	for d := 1; d <= 10; d++ {
		h, err := Hypercube(d)
		if err != nil {
			t.Fatalf("Hypercube(%d): %v", d, err)
		}
		if h.Size() != 1<<d {
			t.Errorf("Hypercube(%d): size %d, want %d", d, h.Size(), 1<<d)
		}
		if h.Degree() != d {
			t.Errorf("Hypercube(%d): degree %d, want %d", d, h.Degree(), d)
		}
		if h.Diameter() != d {
			t.Errorf("Hypercube(%d): diameter %d, want %d", d, h.Diameter(), d)
		}
		// Neighbor along dimension i must be node XOR (1<<i).
		for u := Node(0); int(u) < h.Size(); u++ {
			for i := 0; i < d; i++ {
				want := Node(int(u) ^ (1 << i))
				if got := h.Neighbor(u, i, Plus); got != want {
					t.Fatalf("Hypercube(%d): Neighbor(%d, dim %d) = %d, want %d", d, u, i, got, want)
				}
			}
		}
	}
}

func TestNAryDCube(t *testing.T) {
	s, err := NAryDCube(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 125 || !s.Symmetric() || s.Dims() != 3 {
		t.Errorf("NAryDCube(5,3) = %v", s)
	}
}

func TestCoordRoundTrip(t *testing.T) {
	s := MustNew(3, 4, 5, 2)
	buf := make([]int, 4)
	for u := Node(0); int(u) < s.Size(); u++ {
		c := s.Coords(u, buf)
		if got := s.Node(c); got != u {
			t.Fatalf("round trip failed: %d -> %v -> %d", u, c, got)
		}
		for i := range c {
			if s.Coord(u, i) != c[i] {
				t.Fatalf("Coord(%d, %d) = %d, want %d", u, i, s.Coord(u, i), c[i])
			}
		}
	}
}

func TestCoordsAllocatesWhenNeeded(t *testing.T) {
	s := MustNew(4, 4)
	c := s.Coords(7, nil)
	if len(c) != 2 || c[0] != 3 || c[1] != 1 {
		t.Errorf("Coords(7) = %v, want [3 1]", c)
	}
}

func TestNeighborInverse(t *testing.T) {
	s := MustNew(5, 4, 3)
	for u := Node(0); int(u) < s.Size(); u++ {
		for i := 0; i < s.Dims(); i++ {
			p := s.Neighbor(u, i, Plus)
			if got := s.Neighbor(p, i, Minus); got != u {
				t.Fatalf("Minus(Plus(%d)) dim %d = %d", u, i, got)
			}
			if s.RingOffset(u, p, i) != 1 {
				t.Fatalf("offset to Plus neighbor should be 1")
			}
			// Neighbor differs in exactly one coordinate.
			diff := 0
			for j := 0; j < s.Dims(); j++ {
				if s.Coord(u, j) != s.Coord(p, j) {
					diff++
				}
			}
			if diff != 1 {
				t.Fatalf("neighbor of %d differs in %d coords", u, diff)
			}
		}
	}
}

func TestNeighborWraparound(t *testing.T) {
	s := MustNew(5, 3)
	// Node at coord (4, 2): Plus wraps to 0 in both dims.
	u := s.Node([]int{4, 2})
	if got := s.Neighbor(u, 0, Plus); s.Coord(got, 0) != 0 {
		t.Errorf("wraparound + in dim 0 failed: coord %d", s.Coord(got, 0))
	}
	if got := s.Neighbor(u, 1, Plus); s.Coord(got, 1) != 0 {
		t.Errorf("wraparound + in dim 1 failed")
	}
	v := s.Node([]int{0, 0})
	if got := s.Neighbor(v, 0, Minus); s.Coord(got, 0) != 4 {
		t.Errorf("wraparound - in dim 0 failed")
	}
}

func TestRingDist(t *testing.T) {
	cases := []struct{ delta, n, want int }{
		{0, 8, 0}, {1, 8, 1}, {4, 8, 4}, {5, 8, 3}, {7, 8, 1},
		{2, 5, 2}, {3, 5, 2}, {1, 2, 1},
	}
	for _, c := range cases {
		if got := RingDist(c.delta, c.n); got != c.want {
			t.Errorf("RingDist(%d, %d) = %d, want %d", c.delta, c.n, got, c.want)
		}
	}
}

func TestDistanceSymmetricAndTriangle(t *testing.T) {
	s := MustNew(4, 5)
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 500; trial++ {
		a := Node(rng.IntN(s.Size()))
		b := Node(rng.IntN(s.Size()))
		c := Node(rng.IntN(s.Size()))
		if s.Distance(a, b) != s.Distance(b, a) {
			t.Fatalf("distance not symmetric for %d,%d", a, b)
		}
		if s.Distance(a, a) != 0 {
			t.Fatalf("self distance nonzero")
		}
		if s.Distance(a, c) > s.Distance(a, b)+s.Distance(b, c) {
			t.Fatalf("triangle inequality violated for %d,%d,%d", a, b, c)
		}
		if s.Distance(a, b) > s.Diameter() {
			t.Fatalf("distance exceeds diameter")
		}
	}
}

func TestDistanceMatchesBFS(t *testing.T) {
	// Exhaustive check against breadth-first search on a small asymmetric
	// torus, including a 2-ring dimension.
	s := MustNew(2, 5, 3)
	src := Node(7)
	dist := make([]int, s.Size())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []Node{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for i := 0; i < s.Dims(); i++ {
			for di := 0; di < s.DirsInDim(i); di++ {
				v := s.Neighbor(u, i, DirFromIndex(di))
				if dist[v] == -1 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
	}
	for v := Node(0); int(v) < s.Size(); v++ {
		if dist[v] != s.Distance(src, v) {
			t.Errorf("node %d: BFS %d, Distance %d", v, dist[v], s.Distance(src, v))
		}
	}
}

func TestAvgDimDistanceExact(t *testing.T) {
	// Brute-force expected per-dimension distance over uniform non-source
	// destinations.
	shapes := [][]int{{8, 8}, {4, 4, 8}, {5, 3}, {2, 6}}
	for _, dims := range shapes {
		s := MustNew(dims...)
		src := Node(0)
		for i := 0; i < s.Dims(); i++ {
			sum := 0
			for v := Node(0); int(v) < s.Size(); v++ {
				if v == src {
					continue
				}
				sum += RingDist(s.RingOffset(src, v, i), s.Dim(i))
			}
			want := float64(sum) / float64(s.Size()-1)
			got := s.AvgDimDistance(i)
			if diff := got - want; diff > 1e-12 || diff < -1e-12 {
				t.Errorf("%v dim %d: AvgDimDistance = %g, want %g", dims, i, got, want)
			}
		}
	}
}

func TestAvgDistance(t *testing.T) {
	s := MustNew(8, 8)
	src := Node(0)
	sum := 0
	for v := Node(1); int(v) < s.Size(); v++ {
		sum += s.Distance(src, v)
	}
	want := float64(sum) / float64(s.Size()-1)
	if got := s.AvgDistance(); got < want-1e-12 || got > want+1e-12 {
		t.Errorf("AvgDistance = %g, want %g", got, want)
	}
}

func TestPaperDimDistance(t *testing.T) {
	s := MustNew(8, 5, 4, 2)
	want := []int{2, 1, 1, 0}
	for i, w := range want {
		if got := s.PaperDimDistance(i); got != w {
			t.Errorf("PaperDimDistance(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestLinkIDRoundTrip(t *testing.T) {
	s := MustNew(2, 5, 3)
	seen := make(map[LinkID]bool)
	valid := 0
	for u := Node(0); int(u) < s.Size(); u++ {
		for i := 0; i < s.Dims(); i++ {
			for di := 0; di < s.DirsInDim(i); di++ {
				dir := DirFromIndex(di)
				l := s.Link(u, i, dir)
				if seen[l] {
					t.Fatalf("duplicate link ID %d", l)
				}
				seen[l] = true
				valid++
				if !s.ValidLink(l) {
					t.Fatalf("link %d should be valid", l)
				}
				if s.LinkSrc(l) != u || s.LinkDim(l) != i || s.LinkDir(l) != dir {
					t.Fatalf("link %d decodes to (%d,%d,%d), want (%d,%d,%d)",
						l, s.LinkSrc(l), s.LinkDim(l), s.LinkDir(l), u, i, dir)
				}
				if s.LinkDst(l) != s.Neighbor(u, i, dir) {
					t.Fatalf("LinkDst mismatch for %d", l)
				}
			}
		}
	}
	if valid != s.Links() {
		t.Errorf("enumerated %d valid links, want %d", valid, s.Links())
	}
	// Invalid slots: Minus direction in the 2-ring dimension 0.
	l := s.Link(0, 0, Minus)
	if s.ValidLink(l) {
		t.Errorf("Minus link of a 2-ring should be invalid")
	}
	if s.ValidLink(-1) || s.ValidLink(LinkID(s.LinkSlots())) {
		t.Errorf("out-of-range link IDs should be invalid")
	}
}

func TestLinkSlotsCoversAllLinks(t *testing.T) {
	s := MustNew(4, 4, 8)
	if s.LinkSlots() != s.Size()*s.Dims()*2 {
		t.Errorf("LinkSlots = %d", s.LinkSlots())
	}
	count := 0
	for l := LinkID(0); int(l) < s.LinkSlots(); l++ {
		if s.ValidLink(l) {
			count++
		}
	}
	if count != s.Links() {
		t.Errorf("valid slots %d != Links %d", count, s.Links())
	}
}

func TestString(t *testing.T) {
	if got := MustNew(4, 4, 8).String(); got != "4x4x8 torus" {
		t.Errorf("String = %q", got)
	}
}

func TestDirHelpers(t *testing.T) {
	if DirIndex(Plus) != 0 || DirIndex(Minus) != 1 {
		t.Error("DirIndex wrong")
	}
	if DirFromIndex(0) != Plus || DirFromIndex(1) != Minus {
		t.Error("DirFromIndex wrong")
	}
}

// quickShape generates a random small shape from fuzz input.
func quickShape(rng *rand.Rand) *Shape {
	d := 1 + rng.IntN(4)
	dims := make([]int, d)
	for i := range dims {
		dims[i] = 2 + rng.IntN(6)
	}
	return MustNew(dims...)
}

func TestQuickCodecAndNeighbors(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xda7a))
		s := quickShape(rng)
		u := Node(rng.IntN(s.Size()))
		c := s.Coords(u, nil)
		if s.Node(c) != u {
			return false
		}
		for i := 0; i < s.Dims(); i++ {
			// Walking n_i steps in one direction returns to start.
			v := u
			for k := 0; k < s.Dim(i); k++ {
				v = s.Neighbor(v, i, Plus)
			}
			if v != u {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickDistanceConsistency(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xd157))
		s := quickShape(rng)
		a := Node(rng.IntN(s.Size()))
		b := Node(rng.IntN(s.Size()))
		// Distance equals the sum of per-dimension ring distances and is
		// reachable by that many neighbor steps.
		want := 0
		v := a
		for i := 0; i < s.Dims(); i++ {
			off := s.RingOffset(a, b, i)
			rd := RingDist(off, s.Dim(i))
			want += rd
			dir := Plus
			if off > s.Dim(i)-off {
				dir = Minus
			}
			for k := 0; k < rd; k++ {
				v = s.Neighbor(v, i, dir)
			}
		}
		return s.Distance(a, b) == want && v == b
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDimLengthsCopies(t *testing.T) {
	s := MustNew(4, 8)
	d := s.DimLengths()
	if len(d) != 2 || d[0] != 4 || d[1] != 8 {
		t.Fatalf("DimLengths = %v", d)
	}
	d[0] = 99 // must not alias internal state
	if s.Dim(0) != 4 {
		t.Error("DimLengths leaked internal slice")
	}
}

func TestValid(t *testing.T) {
	s := MustNew(3, 3)
	if !s.Valid(0) || !s.Valid(8) {
		t.Error("in-range nodes should be valid")
	}
	if s.Valid(-1) || s.Valid(9) {
		t.Error("out-of-range nodes should be invalid")
	}
}

func TestLinkTablesMatchAccessors(t *testing.T) {
	for _, s := range []*Shape{MustNew(4, 5), MustNew(2, 3, 4), MustNew(2, 2, 2)} {
		dst, dim := s.LinkTables()
		if len(dst) != s.LinkSlots() || len(dim) != s.LinkSlots() {
			t.Fatalf("%v: table sizes %d/%d, want %d", s, len(dst), len(dim), s.LinkSlots())
		}
		for l := 0; l < s.LinkSlots(); l++ {
			id := LinkID(l)
			if int(dim[l]) != s.LinkDim(id) {
				t.Fatalf("%v link %d: dim table %d, accessor %d", s, l, dim[l], s.LinkDim(id))
			}
			if s.ValidLink(id) && dst[l] != s.LinkDst(id) {
				t.Fatalf("%v link %d: dst table %d, accessor %d", s, l, dst[l], s.LinkDst(id))
			}
		}
		// The tables are built once and shared.
		dst2, dim2 := s.LinkTables()
		if &dst2[0] != &dst[0] || &dim2[0] != &dim[0] {
			t.Fatalf("%v: LinkTables rebuilt instead of cached", s)
		}
	}
}

func TestLinkTablesConcurrent(t *testing.T) {
	s := MustNew(6, 6)
	var wg sync.WaitGroup
	tables := make([][]Node, 8)
	for i := range tables {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tables[i], _ = s.LinkTables()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(tables); i++ {
		if &tables[i][0] != &tables[0][0] {
			t.Fatal("concurrent LinkTables calls produced different tables")
		}
	}
}

func TestCoordTableMatchesCoord(t *testing.T) {
	for _, s := range []*Shape{MustNew(4, 5), MustNew(2, 3, 4), MustNew(2, 2, 2), MustNew(7)} {
		tab := s.CoordTable()
		d := s.Dims()
		if len(tab) != s.Size()*d {
			t.Fatalf("%v: table size %d, want %d", s, len(tab), s.Size()*d)
		}
		for u := Node(0); int(u) < s.Size(); u++ {
			for i := 0; i < d; i++ {
				if got := int(tab[int(u)*d+i]); got != s.Coord(u, i) {
					t.Fatalf("%v node %d dim %d: table %d, Coord %d", s, u, i, got, s.Coord(u, i))
				}
			}
		}
		// The table is built once and shared.
		if tab2 := s.CoordTable(); &tab2[0] != &tab[0] {
			t.Fatalf("%v: CoordTable rebuilt instead of cached", s)
		}
	}
}

func TestCoordTableConcurrent(t *testing.T) {
	s := MustNew(6, 7)
	var wg sync.WaitGroup
	tables := make([][]int32, 8)
	for i := range tables {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tables[i] = s.CoordTable()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(tables); i++ {
		if &tables[i][0] != &tables[0][0] {
			t.Fatal("concurrent CoordTable calls returned different tables")
		}
	}
}
