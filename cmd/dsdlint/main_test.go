package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/lockorder"
)

// TestRepoIsClean is the suite's own acceptance test: every analyzer over
// every package of the real module, zero findings. A regression anywhere
// in the repository that violates a runtime invariant fails this test
// (and `make lint`) before it fails a workload.
func TestRepoIsClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(nil, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("dsdlint on the repository exited %d:\n%s%s", code, stdout.String(), stderr.String())
	}
}

// TestListAnalyzers checks the suite is wired: all eight analyzers are
// registered with the driver, and each -list row carries the analyzer's
// one-line doc so the listing stays self-describing.
func TestListAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d: %s", code, stderr.String())
	}
	for _, name := range []string{
		"sharedwrite", "ctxpoll", "tracenil", "atomicmix",
		"lockorder", "gorolife", "hotalloc", "registry",
	} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output is missing analyzer %q:\n%s", name, stdout.String())
		}
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 8 {
		t.Errorf("-list printed %d rows, want 8:\n%s", len(lines), stdout.String())
	}
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Errorf("-list row %q has no doc text alongside the name", line)
		}
	}
}

// TestUnknownAnalyzer checks -run rejects names not in the registry.
func TestUnknownAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-run nosuch exited %d, want 2", code)
	}
}

// TestSeededViolations drives the whole pipeline end to end: a scratch
// module (wired to this repository via a replace directive) containing
// one violation per call-site analyzer must make the driver exit 1 with
// a diagnostic for each.
func TestSeededViolations(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeFile(t, dir, "go.mod", `module scratch

go 1.22

require repro v0.0.0

replace repro => `+root+`
`)
	// Internal packages are invisible across the module boundary, so the
	// scratch module seeds the violations expressible through the public
	// API and plain stdlib: a dropped Options.Ctx and an ignored context
	// parameter (ctxpoll), a mixed atomic/plain counter (atomicmix), an
	// expvar registration through a raw string literal (registry), and
	// a //dsd:hotpath kernel that both allocates (hotalloc) and is missing
	// from a HotPaths() registry (registry). The internal-facing analyzers
	// get their seeded violations from the golden-file tests and
	// TestSeededLockInversion below.
	writeFile(t, dir, "bad.go", `package scratch

import (
	"context"
	"expvar"
	"sync/atomic"

	dsd "repro"
)

var hits int64

var scratchHits = expvar.NewInt("scratch_hits")

func Record() {
	atomic.AddInt64(&hits, 1)
}

func Snapshot() int64 {
	return hits
}

func Solve(g *dsd.Graph, opts dsd.Options) (dsd.Result, error) {
	return dsd.SolveUDS(g, "", dsd.Options{Workers: opts.Workers})
}

func Ignore(ctx context.Context, v int) int {
	return v
}

//dsd:hotpath
func kernel(xs []int32) []int32 {
	out := make([]int32, len(xs))
	copy(out, xs)
	return out
}

var _ = kernel
`)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dir, "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("dsdlint on seeded violations exited %d, want 1\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, wantFrag := range []string{
		"atomicmix: non-atomic access to variable hits",
		"ctxpoll: exported Solve takes dsd.Options",
		"ctxpoll: exported Ignore takes a context.Context",
		`registry: expvar.NewInt name must be a registered Metric* constant from a metric registry package, not the string literal "scratch_hits"`,
		"hotalloc: hot path kernel: makes a []int32",
		"registry: package has //dsd:hotpath kernels but no HotPaths() registry",
	} {
		if !strings.Contains(out, wantFrag) {
			t.Errorf("diagnostics missing %q:\n%s", wantFrag, out)
		}
	}
}

// TestSeededLockInversion proves the lockorder analyzer end to end
// through the driver: a scratch module with its own two-level hierarchy
// (configured in-process, since a scratch module cannot reference this
// module's internal types) must be rejected for a cache -> registry
// inversion while the compliant registry -> cache path passes silently.
func TestSeededLockInversion(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "go.mod", `module scratch

go 1.22
`)
	writeFile(t, dir, "locks.go", `package scratch

import "sync"

type Reg struct {
	mu sync.Mutex
	n  int
}

type Cache struct {
	mu sync.Mutex
	m  map[string]int
}

// Invalidate takes the registry lock while holding the cache lock: the
// inversion the documented hierarchy forbids.
func Invalidate(r *Reg, c *Cache) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r.mu.Lock()
	r.n++
	r.mu.Unlock()
}

// Publish is the compliant direction: registry strictly before cache.
func Publish(r *Reg, c *Cache) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c.mu.Lock()
	c.m = nil
	c.mu.Unlock()
}
`)
	oldHierarchy, oldTargets := lockorder.Hierarchy, lockorder.TargetPkgs
	lockorder.Hierarchy = []lockorder.Level{
		{Class: lockorder.LockClass{Pkg: "scratch", Type: "Reg", Field: "mu"}, Name: "registry"},
		{Class: lockorder.LockClass{Pkg: "scratch", Type: "Cache", Field: "mu"}, Name: "cache"},
	}
	lockorder.TargetPkgs = []string{"scratch"}
	t.Cleanup(func() { lockorder.Hierarchy, lockorder.TargetPkgs = oldHierarchy, oldTargets })

	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dir, "-run", "lockorder", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("dsdlint on the seeded inversion exited %d, want 1\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	want := "Invalidate acquires registry while holding cache: documented lock order is registry -> cache"
	if !strings.Contains(out, want) {
		t.Errorf("diagnostics missing %q:\n%s", want, out)
	}
	if strings.Contains(out, "Publish") {
		t.Errorf("compliant registry -> cache path was flagged:\n%s", out)
	}
}

// TestJSONReport checks the -json machine-readable output end to end on
// a scratch module with one known violation: the report must parse, name
// every analyzer, and carry the finding with a module-relative path.
func TestJSONReport(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "go.mod", `module scratch

go 1.22
`)
	writeFile(t, dir, "bad.go", `package scratch

import "context"

func Drop(ctx context.Context, v int) int {
	return v
}
`)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dir, "-json", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("dsdlint -json on a seeded violation exited %d, want 1\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	var report struct {
		Analyzers []string `json:"analyzers"`
		Packages  int      `json:"packages"`
		Findings  []struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &report); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, stdout.String())
	}
	if len(report.Analyzers) != 8 {
		t.Errorf("report names %d analyzers, want 8: %v", len(report.Analyzers), report.Analyzers)
	}
	if report.Packages < 1 {
		t.Errorf("report covers %d packages, want at least 1", report.Packages)
	}
	if len(report.Findings) != 1 {
		t.Fatalf("report has %d findings, want 1:\n%s", len(report.Findings), stdout.String())
	}
	f := report.Findings[0]
	if f.File != "bad.go" {
		t.Errorf("finding file = %q, want module-relative %q", f.File, "bad.go")
	}
	if f.Line <= 0 || f.Col <= 0 {
		t.Errorf("finding position %d:%d is not positive", f.Line, f.Col)
	}
	if f.Analyzer != "ctxpoll" || !strings.Contains(f.Message, "exported Drop takes a context.Context") {
		t.Errorf("unexpected finding %q: %s", f.Analyzer, f.Message)
	}
}

func writeFile(t *testing.T, dir, name, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
