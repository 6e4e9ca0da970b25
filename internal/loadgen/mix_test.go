package loadgen

import (
	"math/rand"
	"strings"
	"testing"
)

// TestParseMix covers named mixes, explicit weights, and rejects.
func TestParseMix(t *testing.T) {
	for _, name := range MixNames() {
		m, err := ParseMix(name)
		if err != nil {
			t.Errorf("built-in %q: %v", name, err)
		}
		if m.total() == 0 {
			t.Errorf("built-in %q has zero weight", name)
		}
	}
	m, err := ParseMix("hit=3,watch=1")
	if err != nil {
		t.Fatal(err)
	}
	if !m.Has(OpSubmitHit) || !m.Has(OpWatch) || m.Has(OpOverloadBurst) {
		t.Errorf("explicit mix wrong: %+v", m)
	}
	for _, bad := range []string{"nope", "hit=x", "zork=3", "hit=0,miss=0", "hit"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
	if def, err := ParseMix(""); err != nil || def.Name != "mixed" {
		t.Errorf("empty mix = %+v, %v; want the mixed default", def, err)
	}
}

// TestMixPickDeterministic pins fleet determinism at the draw level: the
// same seed yields the same operation sequence.
func TestMixPickDeterministic(t *testing.T) {
	m, _ := ParseMix("mixed")
	draw := func() []Op {
		rng := rand.New(rand.NewSource(99))
		out := make([]Op, 200)
		for i := range out {
			out[i] = m.pick(rng)
		}
		return out
	}
	a, b := draw(), draw()
	counts := map[Op]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %v vs %v", i, a[i], b[i])
		}
		counts[a[i]]++
	}
	for op := Op(0); op < numOps; op++ {
		if m.Has(op) && counts[op] == 0 {
			t.Errorf("op %v never drawn in 200 picks despite weight %d", op, m.Weights[op])
		}
	}
	if strings.Contains(m.String(), "=") {
		t.Errorf("named mix renders as %q, want its name", m.String())
	}
}
