package solver

import (
	"context"
	"strings"
	"testing"

	"repro/internal/graph"
)

// The test binary for this package deliberately imports neither
// internal/uds nor internal/dds, so the table starts empty and the tests
// own every entry they see. The real registrations are validated by the
// same Register path at init time of any binary that links the solvers,
// and their contents are pinned by the root package's algorithm tests.

func udsSolve(ctx context.Context, g *graph.Undirected, p Params) (Result, error) {
	return Result{Algorithm: "stub"}, nil
}

func ddsSolve(ctx context.Context, d *graph.Directed, p Params) (DirectedResult, error) {
	return DirectedResult{Algorithm: "stub"}, nil
}

func descUDS(name string) Descriptor {
	return Descriptor{
		Name: name, Kind: KindUDS, Display: strings.ToUpper(name),
		Grade: Grade2Approx, Guarantee: "test", Paper: "test",
		SolveUDS: udsSolve,
	}
}

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic (want %q)", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want containing %q", r, want)
		}
	}()
	f()
}

// freshTable swaps in an empty registry for one test.
func freshTable(t *testing.T) {
	t.Helper()
	old := registry
	registry = newTable()
	t.Cleanup(func() { registry = old })
}

func TestRegisterLookupListLadder(t *testing.T) {
	freshTable(t)
	a := descUDS("reg-a")
	a.Default = true
	Register(a)
	b := descUDS("reg-b")
	b.DegradeRank = 2
	Register(b)
	c := descUDS("reg-c")
	c.DegradeRank = 1
	Register(c)
	x := Descriptor{
		Name: "reg-x", Kind: KindDDS, Display: "REG-X",
		Grade: GradeExact, Guarantee: "test", Paper: "test",
		Degradable: true, SolveDDS: ddsSolve,
	}
	Register(x)

	if d, ok := Lookup(KindUDS, "reg-b"); !ok || d.Name != "reg-b" {
		t.Fatalf("Lookup reg-b = %v, %v", d, ok)
	}
	if _, ok := Lookup(KindDDS, "reg-b"); ok {
		t.Fatal("UDS name leaked into the DDS namespace")
	}
	if d, ok := Lookup(KindUDS, ""); !ok || d.Name != "reg-a" {
		t.Fatalf("empty name should resolve the default, got %v, %v", d, ok)
	}
	if d, ok := Default(KindUDS); !ok || d.Name != "reg-a" {
		t.Fatalf("Default = %v, %v", d, ok)
	}
	if _, ok := Default(KindDDS); ok {
		t.Fatal("DDS has no default registered in this test binary")
	}

	names := Names(KindUDS)
	if len(names) != 3 || names[0] != "reg-a" || names[1] != "reg-b" || names[2] != "reg-c" {
		t.Fatalf("Names should preserve registration order, got %v", names)
	}

	ladder := Ladder(KindUDS)
	if len(ladder) != 2 || ladder[0].Name != "reg-c" || ladder[1].Name != "reg-b" {
		t.Fatalf("Ladder should sort by ascending rank, got %v", ladder)
	}
	if got := Ladder(KindDDS); len(got) != 0 {
		t.Fatalf("DDS ladder should be empty, got %v", got)
	}

	// List returns a copy: mutating it must not corrupt the table.
	List(KindUDS)[0].Name = "clobbered"
	if _, ok := Lookup(KindUDS, "reg-a"); !ok {
		t.Fatal("List leaked a mutable reference to the table")
	}
}

func TestRegisterRejectsConflicts(t *testing.T) {
	freshTable(t)
	base := descUDS("conflict-a")
	base.Default = true
	base.DegradeRank = 7
	Register(base)

	mustPanic(t, "duplicate", func() { Register(descUDS("conflict-a")) })

	dup := descUDS("conflict-b")
	dup.Default = true
	mustPanic(t, "default already claimed", func() { Register(dup) })

	rank := descUDS("conflict-c")
	rank.DegradeRank = 7
	mustPanic(t, "degrade rank 7 already claimed", func() { Register(rank) })
}

func TestRegisterValidatesDescriptors(t *testing.T) {
	freshTable(t)
	cases := []struct {
		want string
		mut  func(*Descriptor)
	}{
		{"without a name", func(d *Descriptor) { d.Name = "" }},
		{"unknown kind", func(d *Descriptor) { d.Kind = "tri" }},
		{"no display name", func(d *Descriptor) { d.Display = "" }},
		{"guarantee and paper", func(d *Descriptor) { d.Guarantee = "" }},
		{"guarantee and paper", func(d *Descriptor) { d.Paper = "" }},
		{"unknown grade", func(d *Descriptor) { d.Grade = "best-effort" }},
		{"exactly SolveUDS", func(d *Descriptor) { d.SolveUDS = nil }},
		{"exactly SolveUDS", func(d *Descriptor) { d.SolveDDS = ddsSolve }},
		{"both degradable and a degradation rung", func(d *Descriptor) { d.Degradable = true; d.DegradeRank = 3 }},
		{"exact-grade", func(d *Descriptor) { d.Grade = GradeExact; d.DegradeRank = 3 }},
		{"negative degrade rank", func(d *Descriptor) { d.DegradeRank = -1 }},
	}
	for _, tc := range cases {
		d := descUDS("invalid")
		tc.mut(&d)
		mustPanic(t, tc.want, func() { Register(d) })
	}

	bad := Descriptor{
		Name: "invalid-dds", Kind: KindDDS, Display: "X",
		Grade: GradeExact, Guarantee: "t", Paper: "t", SolveUDS: udsSolve,
	}
	mustPanic(t, "exactly SolveDDS", func() { Register(bad) })

	kStarDDS := Descriptor{
		Name: "invalid-kstar", Kind: KindDDS, Display: "X",
		Grade: Grade2Approx, Guarantee: "t", Paper: "t", SolveDDS: ddsSolve, KStarCore: true,
	}
	mustPanic(t, "only UDS solvers can return the k*-core", func() { Register(kStarDDS) })
}
