package core_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"prioritystar/internal/balance"
	"prioritystar/internal/core"
	"prioritystar/internal/sweep"
	"prioritystar/internal/torus"
	"prioritystar/internal/traffic"
)

// The tests in this file pin the table-driven routing rules against the
// arithmetic they replaced: the STAR forwarding table (core.StarStep)
// against the rotated-order modulo and ring split, and the coordinate-table
// unicast next hop against the division-based RingOffset rule. The
// reference implementations below are deliberately the original formulas,
// written out independently of the package.

// countingSource counts the draws a rand.Rand makes from its source.
type countingSource struct {
	src   rand.Source
	draws int
}

func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

// refForward is BroadcastForward as it was computed per copy before the
// STAR table existed: (ending+1+q) mod d for the dimension and the ring
// split redone, with its RNG draw, for every initiated phase.
func refForward(s *torus.Shape, ending, phase int, dir torus.Dir, hopsLeft int, rng *rand.Rand) []core.Hop {
	d := s.Dims()
	var out []core.Hop
	if phase >= 0 && hopsLeft > 0 {
		out = append(out, core.Hop{Phase: phase, Dim: (ending + 1 + phase) % d, Dir: dir, HopsLeft: hopsLeft - 1})
	}
	for q := phase + 1; q < d; q++ {
		dim := (ending + 1 + q) % d
		n := s.Dim(dim)
		total := n - 1
		if total <= 0 {
			continue
		}
		a, b := (total+1)/2, total/2
		d1, d2 := torus.Plus, torus.Minus
		if n > 2 && a != b && rng != nil && rng.IntN(2) == 1 {
			d1, d2 = d2, d1
		}
		out = append(out, core.Hop{Phase: q, Dim: dim, Dir: d1, HopsLeft: a - 1})
		if b > 0 {
			out = append(out, core.Hop{Phase: q, Dim: dim, Dir: d2, HopsLeft: b - 1})
		}
	}
	return out
}

// refClass is the priority rule of each discipline: ending-dimension
// copies low, everything else high.
func refClass(disc core.Discipline, dim, ending int) int {
	switch {
	case disc == core.FCFS || dim != ending:
		return 0
	case disc == core.TwoLevel:
		return 1
	default:
		return 2
	}
}

// tableShapes is every shape of the figure registry plus small shapes
// mixing 2-rings, odd rings and even rings.
func tableShapes(t *testing.T) []*torus.Shape {
	t.Helper()
	seen := map[string]bool{}
	var out []*torus.Shape
	add := func(dims []int) {
		s := torus.MustNew(dims...)
		if !seen[s.String()] {
			seen[s.String()] = true
			out = append(out, s)
		}
	}
	for _, id := range sweep.FigureIDs() {
		exp, err := sweep.Figure(id, sweep.Quick)
		if err != nil {
			t.Fatal(err)
		}
		add(exp.Dims)
	}
	for _, dims := range [][]int{{2}, {3}, {4}, {2, 3}, {3, 2, 4}, {5, 6, 2}, {7, 2, 2, 4}} {
		add(dims)
	}
	return out
}

// TestStarTableMatchesFormulas compares BroadcastForward, which reads the
// STAR table, with the per-copy formulas for every shape, discipline,
// ending dimension, phase (including the source's -1), direction and
// hopsLeft. Both sides draw from identically seeded RNGs, and they must
// return the same hops after the same number of draws; the table rows
// must also carry each discipline's class.
func TestStarTableMatchesFormulas(t *testing.T) {
	for _, s := range tableShapes(t) {
		d := s.Dims()
		maxRing := 0
		for i := 0; i < d; i++ {
			maxRing = max(maxRing, s.Dim(i))
		}
		for _, disc := range []core.Discipline{core.FCFS, core.TwoLevel, core.ThreeLevel} {
			sch, err := core.NewScheme(s, disc, core.UniformRotation, traffic.Rates{}, balance.ExactDistance)
			if err != nil {
				t.Fatal(err)
			}
			table := sch.StarTable(nil)
			if len(table) != d*d {
				t.Fatalf("%v: table has %d rows, want %d", s, len(table), d*d)
			}
			refSrc := &countingSource{src: rand.NewPCG(7, 9)}
			tabSrc := &countingSource{src: rand.NewPCG(7, 9)}
			refRNG, tabRNG := rand.New(refSrc), rand.New(tabSrc)
			for ending := 0; ending < d; ending++ {
				for p, st := range table[ending*d : ending*d+d] {
					if st != sch.StarStep(ending, p) {
						t.Fatalf("%v %v: table row (%d, %d) = %+v, StarStep %+v", s, disc, ending, p, st, sch.StarStep(ending, p))
					}
					if want := refClass(disc, int(st.Dim), ending); int(st.Class) != want {
						t.Fatalf("%v %v ending %d dim %d: class %d, want %d", s, disc, ending, st.Dim, st.Class, want)
					}
				}
				for phase := -1; phase < d; phase++ {
					for _, dir := range []torus.Dir{torus.Plus, torus.Minus} {
						for hopsLeft := 0; hopsLeft <= maxRing/2; hopsLeft++ {
							where := fmt.Sprintf("%v %v ending %d phase %d dir %d hopsLeft %d", s, disc, ending, phase, dir, hopsLeft)
							// Two rounds per case, so drawn splits come out both ways.
							for round := 0; round < 2; round++ {
								want := refForward(s, ending, phase, dir, hopsLeft, refRNG)
								got := core.BroadcastForward(sch, ending, phase, dir, hopsLeft, tabRNG, nil)
								if fmt.Sprint(got) != fmt.Sprint(want) {
									t.Fatalf("%s: hops %v, want %v", where, got, want)
								}
								if tabSrc.draws != refSrc.draws {
									t.Fatalf("%s: %d RNG draws, reference %d", where, tabSrc.draws, refSrc.draws)
								}
							}
							// The nil-RNG split is the deterministic plus-heavy one.
							want := refForward(s, ending, phase, dir, hopsLeft, nil)
							got := core.BroadcastForward(sch, ending, phase, dir, hopsLeft, nil, nil)
							if fmt.Sprint(got) != fmt.Sprint(want) {
								t.Fatalf("%s, nil rng: hops %v, want %v", where, got, want)
							}
						}
					}
				}
			}
			if refSrc.draws == 0 && hasDrawnRing(s) {
				t.Fatalf("%v: no RNG draws, so the draw path went untested", s)
			}
		}
	}
}

// hasDrawnRing reports whether s has an even ring longer than 2, the only
// rings whose split direction is drawn.
func hasDrawnRing(s *torus.Shape) bool {
	for i := 0; i < s.Dims(); i++ {
		if n := s.Dim(i); n > 2 && n%2 == 0 {
			return true
		}
	}
	return false
}

// refNextHop is UnicastNextHop as it was computed before the coordinate
// table: RingOffset's division chain per dimension.
func refNextHop(s *torus.Shape, cur, dest torus.Node, tieMask uint32) (int, torus.Dir, bool) {
	for i := 0; i < s.Dims(); i++ {
		off := s.RingOffset(cur, dest, i)
		if off == 0 {
			continue
		}
		n := s.Dim(i)
		switch {
		case n == 2 || 2*off < n:
			return i, torus.Plus, false
		case 2*off > n:
			return i, torus.Minus, false
		case tieMask&(1<<uint(i)) != 0:
			return i, torus.Minus, false
		default:
			return i, torus.Plus, false
		}
	}
	return 0, torus.Plus, true
}

// TestUnicastNextHopMatchesRingOffset checks the coordinate-table next hop
// against the division-based rule exhaustively over (cur, dest, tieMask)
// on small shapes with 2-rings, odd rings and even rings.
func TestUnicastNextHopMatchesRingOffset(t *testing.T) {
	for _, dims := range [][]int{{2}, {5}, {6}, {2, 3}, {4, 5}, {3, 2, 4}, {6, 2, 5}, {2, 2, 2, 2}} {
		s := torus.MustNew(dims...)
		masks := uint32(1) << uint(s.Dims())
		for cur := torus.Node(0); int(cur) < s.Size(); cur++ {
			for dest := torus.Node(0); int(dest) < s.Size(); dest++ {
				for mask := uint32(0); mask < masks; mask++ {
					wd, wdir, wdone := refNextHop(s, cur, dest, mask)
					gd, gdir, gdone := core.UnicastNextHop(s, cur, dest, mask)
					if gd != wd || gdir != wdir || gdone != wdone {
						t.Fatalf("%v cur %d dest %d mask %b: got (%d,%d,%v), want (%d,%d,%v)",
							s, cur, dest, mask, gd, gdir, gdone, wd, wdir, wdone)
					}
				}
			}
		}
	}
}
