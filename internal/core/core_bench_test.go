package core

import (
	"math/rand/v2"
	"testing"

	"prioritystar/internal/balance"
	"prioritystar/internal/torus"
	"prioritystar/internal/traffic"
)

func BenchmarkBroadcastForwardSource(b *testing.B) {
	sch, err := DimOrderFCFS(torus.MustNew(8, 8, 8))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	buf := make([]Hop, 0, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = BroadcastForward(sch, i%3, -1, torus.Plus, 0, rng, buf[:0])
	}
}

func BenchmarkUnicastNextHop(b *testing.B) {
	s := torus.MustNew(8, 8, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		UnicastNextHop(s, torus.Node(i%s.Size()), torus.Node((i*31)%s.Size()), uint32(i))
	}
}

func BenchmarkSampleEnding(b *testing.B) {
	s := torus.MustNew(4, 4, 8)
	sch, err := PrioritySTAR(s, traffic.Rates{LambdaB: 0.01, LambdaR: 0.1}, balance.ExactDistance)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sch.SampleEnding(rng)
	}
}

func BenchmarkNewSchemeBalanced(b *testing.B) {
	s := torus.MustNew(4, 4, 4, 4, 8)
	rates := traffic.Rates{LambdaB: 0.001, LambdaR: 0.05}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := PrioritySTAR(s, rates, balance.ExactDistance); err != nil {
			b.Fatal(err)
		}
	}
}
