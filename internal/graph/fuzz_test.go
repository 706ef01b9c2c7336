package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadEdgeList drives the text parser with arbitrary bytes: it must
// never panic, both graph kinds built from what it accepts must match the
// naive reference builder (text arrives unsorted, so this reaches the
// builder's sort and dedup), and both must survive a write/read round trip
// with their adjacency intact.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("% comment\n10 20 1.5 999\n\n20 30\n")
	f.Add("x y\n")
	f.Add("-1 5\n")
	f.Add("9999999999999999999999 1\n")
	f.Add("1\n")
	f.Add("3 1\n1 3\n2 2\n3 1\n0 3\n3 0\n")
	f.Fuzz(func(t *testing.T, input string) {
		edges, n, ids, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		if len(ids) != n {
			t.Fatalf("id table has %d entries for %d vertices", len(ids), n)
		}
		for _, e := range edges {
			if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
				t.Fatalf("edge %v outside compacted range [0,%d)", e, n)
			}
		}
		if err := checkAgainstReference(n, edges); err != nil {
			t.Fatal(err)
		}
		// Reading the output back renumbers ids and loses isolated
		// vertices, so the round trips compare edge and arc counts.
		g := NewUndirected(n, edges)
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadUndirected(&buf)
		if err != nil {
			t.Fatalf("rejecting own output: %v", err)
		}
		if g2.M() != g.M() {
			t.Fatalf("round trip changed edge count: %d -> %d", g.M(), g2.M())
		}
		d := NewDirected(n, edges)
		buf.Reset()
		if err := d.WriteEdgeList(&buf); err != nil {
			t.Fatal(err)
		}
		d2, err := ReadDirected(&buf)
		if err != nil {
			t.Fatalf("rejecting own directed output: %v", err)
		}
		if d2.M() != d.M() {
			t.Fatalf("round trip changed arc count: %d -> %d", d.M(), d2.M())
		}
	})
}

// FuzzReadBinary drives the binary loader with arbitrary bytes — v1 files
// (no footer), v2 files (CRC32 footer), and garbage: it must reject bad
// input with an error, never a panic or an over-allocation crash, and
// anything accepted must satisfy the CSR invariants and survive a v2
// re-write/re-read round trip.
func FuzzReadBinary(f *testing.F) {
	g := NewUndirected(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	var seed bytes.Buffer
	g.WriteBinary(&seed) // v2 seed, CRC footer included
	f.Add(seed.Bytes())
	f.Add(v1Binary(false, 4, [][2]uint32{{0, 1}, {1, 2}, {2, 3}}))
	f.Add([]byte("DSDG"))
	f.Add([]byte("DSD2"))
	f.Add([]byte("DSDG\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add([]byte("DSD2\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add(func() []byte { // v2 with a flipped record bit: CRC must catch it
		b := append([]byte(nil), seed.Bytes()...)
		b[len(b)-6] ^= 1
		return b
	}())
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinaryUndirected(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input: basic invariants must hold.
		var degSum int64
		for v := 0; v < g.N(); v++ {
			degSum += int64(g.Degree(int32(v)))
		}
		if degSum != 2*g.M() {
			t.Fatalf("degree sum %d != 2m %d", degSum, 2*g.M())
		}
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadBinaryUndirected(&buf)
		if err != nil {
			t.Fatalf("rejecting own v2 output: %v", err)
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			t.Fatalf("round trip changed sizes: (%d,%d) -> (%d,%d)", g.N(), g.M(), g2.N(), g2.M())
		}
	})
}

// FuzzReadBinaryDirected is FuzzReadBinary for the directed reader.
func FuzzReadBinaryDirected(f *testing.F) {
	d := NewDirected(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	var seed bytes.Buffer
	d.WriteBinary(&seed)
	f.Add(seed.Bytes())
	f.Add(v1Binary(true, 4, [][2]uint32{{0, 1}, {1, 2}}))
	f.Add([]byte("DSD2\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadBinaryDirected(bytes.NewReader(data))
		if err != nil {
			return
		}
		var outSum, inSum int64
		for v := 0; v < d.N(); v++ {
			outSum += int64(d.OutDegree(int32(v)))
			inSum += int64(d.InDegree(int32(v)))
		}
		if outSum != d.M() || inSum != d.M() {
			t.Fatalf("degree sums (%d,%d) != m %d", outSum, inSum, d.M())
		}
		var buf bytes.Buffer
		if err := d.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		d2, err := ReadBinaryDirected(&buf)
		if err != nil {
			t.Fatalf("rejecting own v2 output: %v", err)
		}
		if d2.N() != d.N() || d2.M() != d.M() {
			t.Fatalf("round trip changed sizes: (%d,%d) -> (%d,%d)", d.N(), d.M(), d2.N(), d2.M())
		}
	})
}
