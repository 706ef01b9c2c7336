package core

import (
	"testing"

	"repro/internal/gen"
)

// Micro-benchmarks of the decomposition engines on a fixed power-law
// composite (the PT-like shape), complementing the per-figure benches at
// the repo root.

func BenchmarkCoreEngines(b *testing.B) {
	b.ReportAllocs()
	body := gen.ChungLu(20000, 200000, 2.1, 1)
	g := gen.Composite(body, 120, 4, 25, 2)
	b.Run("BZ-serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			BZ(g)
		}
	})
	b.Run("Local", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Local(g, 0, nil)
		}
	})
	b.Run("PKC", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			PKC(g, 0)
		}
	})
	b.Run("PKMC", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			PKMC(g, 0, nil)
		}
	})
}

func BenchmarkHIndexKernel(b *testing.B) {
	b.ReportAllocs()
	g := gen.ChungLu(20000, 200000, 2.1, 3)
	h := make([]int32, g.N())
	for v := range h {
		h[v] = g.Degree(int32(v))
	}
	buf := make([]int32, int(g.MaxDegree())+2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink int32
		for v := 0; v < g.N(); v++ {
			sink += hIndexOf(h, g.Neighbors(int32(v)), buf)
		}
		_ = sink
	}
}

func BenchmarkDynamicInsert(b *testing.B) {
	b.ReportAllocs()
	base := gen.ChungLu(5000, 40000, 2.3, 4)
	d := NewDynamic(base)
	edges := gen.ErdosRenyi(5000, int64(b.N)+1000, 5).Edges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		d.InsertEdge(e.U, e.V)
	}
}
