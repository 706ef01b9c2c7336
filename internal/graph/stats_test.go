package graph

import (
	"strings"
	"testing"
)

func TestSummarizeUndirected(t *testing.T) {
	g := NewUndirected(4, []Edge{{0, 1}, {1, 2}, {2, 0}, {0, 3}})
	s := g.Summarize("toy")
	if s.N != 4 || s.M != 4 || s.MaxDeg != 3 || s.Directed {
		t.Fatalf("stats = %+v", s)
	}
	if s.AvgDeg != 2.0 {
		t.Fatalf("avg degree = %v, want 2.0", s.AvgDeg)
	}
	if !strings.Contains(s.String(), "toy") {
		t.Fatal("String() must carry the name")
	}
}

func TestSummarizeDirected(t *testing.T) {
	d := NewDirected(3, []Edge{{0, 1}, {0, 2}, {1, 2}})
	s := d.Summarize("dtoy")
	if !s.Directed || s.MaxOutDeg != 2 || s.MaxInDeg != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if !strings.Contains(s.String(), "directed") {
		t.Fatal("String() must mark directedness")
	}
}

func TestRelabelByDegree(t *testing.T) {
	g := NewUndirected(5, []Edge{{U: 4, V: 0}, {U: 4, V: 1}, {U: 4, V: 2}, {U: 0, V: 1}})
	r, orig := g.RelabelByDegree()
	if r.M() != g.M() || r.N() != g.N() {
		t.Fatal("relabel changed size")
	}
	// New vertex 0 must be the old max-degree vertex (4, degree 3).
	if orig[0] != 4 || r.Degree(0) != 3 {
		t.Fatalf("hub not first: orig[0]=%d deg=%d", orig[0], r.Degree(0))
	}
	// Degrees non-increasing in the new labeling.
	for v := 1; v < r.N(); v++ {
		if r.Degree(int32(v)) > r.Degree(int32(v-1)) {
			t.Fatal("degrees not sorted")
		}
	}
	// Edge structure preserved under the mapping.
	for u := int32(0); int(u) < r.N(); u++ {
		for _, v := range r.Neighbors(u) {
			if !g.HasEdge(orig[u], orig[v]) {
				t.Fatalf("edge %d-%d not in original", orig[u], orig[v])
			}
		}
	}
}
