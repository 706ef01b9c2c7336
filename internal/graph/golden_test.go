package graph_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// csrGolden pins the CSR bytes of every catalog model: an FNV-64a hash of
// each adjacency's offsets (int64) and then its neighbor array (int32), both
// little-endian, out-side before in-side for a digraph. perfbench and the
// experiment harness draw their inputs through SampleEdges, so the sample
// rows also pin the order of its rng draws.
var csrGolden = map[string]uint64{
	"AM/0.1/base":        0x24704e94f4774947,
	"AM/0.1/reverse":     0x1681e1b160c88e03,
	"AM/0.1/sample":      0xc34ea49aa8349079,
	"AM/0.1/underlying":  0xe74d1063f53ae6b4,
	"AM/0.25/base":       0xe1f837a9b473d643,
	"AM/0.25/reverse":    0x8f85788065f53ba3,
	"AM/0.25/sample":     0xf9f4ba1366dc864e,
	"AM/0.25/underlying": 0xf72b6f3a1682e473,
	"AR/0.1/base":        0xea9f96afa469c1d8,
	"AR/0.1/reverse":     0xc13f3813522a5efc,
	"AR/0.1/sample":      0x855d87c1cc4d24db,
	"AR/0.1/underlying":  0x62a350a64f0df39a,
	"AR/0.25/base":       0xab506e61dbf94b7d,
	"AR/0.25/reverse":    0x5ebd1d560cee8f9d,
	"AR/0.25/sample":     0x46791da617fcad43,
	"AR/0.25/underlying": 0x6e3f488cd2e87420,
	"BA/0.1/base":        0x9bd31e0940490ebe,
	"BA/0.1/reverse":     0x554594140621c4ee,
	"BA/0.1/sample":      0x8117ccd2b61139c2,
	"BA/0.1/underlying":  0x3907c46d311da7b3,
	"BA/0.25/base":       0xe0493b26989fd20f,
	"BA/0.25/reverse":    0x5ebad813662bb873,
	"BA/0.25/sample":     0x7eed9fcdbc0f71a9,
	"BA/0.25/underlying": 0x3fcf5d0663d1a63b,
	"DL/0.1/base":        0xb765af9e0215be02,
	"DL/0.1/reverse":     0x3f7e69f7cc00949a,
	"DL/0.1/sample":      0x450c5b2f9787a21e,
	"DL/0.1/underlying":  0xe2908cdf2d1636f4,
	"DL/0.25/base":       0xc7d296879f5217ee,
	"DL/0.25/reverse":    0x961871a86fbb978a,
	"DL/0.25/sample":     0xc19252687bce2a66,
	"DL/0.25/underlying": 0x59af67a20ee3d3f0,
	"EU/0.1/base":        0x37fc3770bb34494e,
	"EU/0.1/sample":      0xab750410e413d534,
	"EU/0.25/base":       0x5f6aa715325fc92c,
	"EU/0.25/sample":     0xab8ceb3ed9ec0572,
	"EW/0.1/base":        0x1bb60191089da064,
	"EW/0.1/sample":      0x45925456d3ca26ca,
	"EW/0.25/base":       0x66f776fbc945137c,
	"EW/0.25/sample":     0x6465689ce27af72d,
	"IT/0.1/base":        0xab98794a7b8c37f2,
	"IT/0.1/sample":      0xc1fc98a1992d56b8,
	"IT/0.25/base":       0xfaad94bc51fee11d,
	"IT/0.25/sample":     0x5fef298e9f780ce7,
	"PT/0.1/base":        0xc5f04ce259a626aa,
	"PT/0.1/sample":      0x757379c3c17934c0,
	"PT/0.25/base":       0xf960fabecf7f0f9b,
	"PT/0.25/sample":     0x2f37f27167b44fd8,
	"SK/0.1/base":        0x40c8a274f39a1a98,
	"SK/0.1/sample":      0x5976fcf18327ee43,
	"SK/0.25/base":       0xbacd8635471ba808,
	"SK/0.25/sample":     0x91eb197fc69cd337,
	"TW/0.1/base":        0xa7e6ea7c4a7a6f7d,
	"TW/0.1/reverse":     0x5dad953a3a864d89,
	"TW/0.1/sample":      0xdb2045ecbe68f5e2,
	"TW/0.1/underlying":  0x2bf36db0f21e0517,
	"TW/0.25/base":       0x8fd08053cca31b5b,
	"TW/0.25/reverse":    0x98bc4bed22ff30c3,
	"TW/0.25/sample":     0xbff0941f891e719c,
	"TW/0.25/underlying": 0xeba46d42dbba0d5c,
	"UN/0.1/base":        0xb426e19ce6c604e8,
	"UN/0.1/sample":      0xbef9f1456f2c78cc,
	"UN/0.25/base":       0xf5d32740d3eb3fc9,
	"UN/0.25/sample":     0x7d56b6d2b66bcd4b,
	"WE/0.1/base":        0x38923a27e41aa049,
	"WE/0.1/reverse":     0xd6551449486102c1,
	"WE/0.1/sample":      0x7daa1f22f78be7b5,
	"WE/0.1/underlying":  0xfeabb8229335dd27,
	"WE/0.25/base":       0xe3031c405d76bd0b,
	"WE/0.25/reverse":    0xae0757408310503,
	"WE/0.25/sample":     0x6852ca233cdb4195,
	"WE/0.25/underlying": 0x10128156840d2faa,
}

// hashAdjacency feeds one adjacency's CSR arrays, rebuilt from the exported
// accessors, into h.
func hashAdjacency(h hash.Hash64, n int, list func(int32) []int32) {
	var b [8]byte
	var off int64
	binary.LittleEndian.PutUint64(b[:], uint64(off))
	h.Write(b[:])
	for v := int32(0); int(v) < n; v++ {
		off += int64(len(list(v)))
		binary.LittleEndian.PutUint64(b[:], uint64(off))
		h.Write(b[:])
	}
	for v := int32(0); int(v) < n; v++ {
		for _, u := range list(v) {
			binary.LittleEndian.PutUint32(b[:4], uint32(u))
			h.Write(b[:4])
		}
	}
}

func undirectedHash(g *graph.Undirected) uint64 {
	h := fnv.New64a()
	hashAdjacency(h, g.N(), g.Neighbors)
	return h.Sum64()
}

func directedHash(d *graph.Directed) uint64 {
	h := fnv.New64a()
	hashAdjacency(h, d.N(), d.OutNeighbors)
	hashAdjacency(h, d.N(), d.InNeighbors)
	return h.Sum64()
}

func TestCSRGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every catalog model")
	}
	got := map[string]uint64{}
	for _, scale := range []float64{0.1, 0.25} {
		for _, ds := range gen.UndirectedCatalog() {
			g := ds.BuildUndirected(scale)
			key := fmt.Sprintf("%s/%g/", ds.Abbr, scale)
			got[key+"base"] = undirectedHash(g)
			got[key+"sample"] = undirectedHash(g.SampleEdges(0.95, 1))
		}
		for _, ds := range gen.DirectedCatalog() {
			d := ds.BuildDirected(scale)
			key := fmt.Sprintf("%s/%g/", ds.Abbr, scale)
			got[key+"base"] = directedHash(d)
			got[key+"sample"] = directedHash(d.SampleEdges(0.95, 1))
			got[key+"reverse"] = directedHash(d.Reverse())
			got[key+"underlying"] = undirectedHash(d.Underlying())
		}
	}
	for key, h := range got {
		if want, ok := csrGolden[key]; !ok || h != want {
			t.Errorf("%s: CSR hash %#x, want %#x", key, h, want)
		}
	}
	if len(got) != len(csrGolden) {
		t.Errorf("%d hashes computed, %d pinned", len(got), len(csrGolden))
	}
}
