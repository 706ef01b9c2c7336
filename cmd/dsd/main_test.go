package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunUndirected(t *testing.T) {
	// A triangle with a pendant: densest is the triangle (density 1).
	path := writeFile(t, "g.txt", "0 1\n1 2\n2 0\n0 3\n")
	var out bytes.Buffer
	if err := run([]string{"-in", path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "algorithm: PKMC") {
		t.Fatalf("default algorithm missing:\n%s", s)
	}
	if !strings.Contains(s, "density=1.000000") {
		t.Fatalf("density missing:\n%s", s)
	}
}

func TestRunDirected(t *testing.T) {
	path := writeFile(t, "d.txt", "4 2\n4 3\n5 2\n5 3\n0 1\n")
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-directed", "-verbose"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "algorithm: PWC") || !strings.Contains(s, "density=2.000000") {
		t.Fatalf("unexpected output:\n%s", s)
	}
	if !strings.Contains(s, "S = ") || !strings.Contains(s, "T = ") {
		t.Fatalf("-verbose sets missing:\n%s", s)
	}
}

func TestRunExplicitAlgo(t *testing.T) {
	path := writeFile(t, "g.txt", "0 1\n1 2\n2 0\n")
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-algo", "charikar"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "algorithm: Charikar") {
		t.Fatalf("explicit algorithm not honored:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("missing -in accepted")
	}
	if err := run([]string{"-in", "/does/not/exist"}, &out); err == nil {
		t.Fatal("missing file accepted")
	}
	path := writeFile(t, "g.txt", "0 1\n")
	if err := run([]string{"-in", path, "-algo", "bogus"}, &out); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
	bad := writeFile(t, "bad.txt", "not numbers\n")
	if err := run([]string{"-in", bad}, &out); err == nil {
		t.Fatal("malformed file accepted")
	}
}

func TestRunGzippedInput(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/g.txt.gz"
	g := dsd.NewGraph(4, []dsd.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 0, V: 3}})
	if err := dsd.SaveGraph(g, path); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-in", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "density=1.000000") {
		t.Fatalf("gzipped input mishandled:\n%s", out.String())
	}
}

func TestRunAnalysisModes(t *testing.T) {
	und := writeFile(t, "g.txt", "0 1\n1 2\n2 0\n0 3\n")
	dir := writeFile(t, "d.txt", "4 2\n4 3\n5 2\n5 3\n")

	var out bytes.Buffer
	if err := run([]string{"-in", und, "-mode", "cores"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "k*=2") {
		t.Fatalf("cores mode:\n%s", out.String())
	}

	out.Reset()
	if err := run([]string{"-in", dir, "-directed", "-mode", "skyline"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "w* = 4") {
		t.Fatalf("skyline mode:\n%s", out.String())
	}

	out.Reset()
	if err := run([]string{"-in", und, "-mode", "tiers"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "tier 1") {
		t.Fatalf("tiers mode:\n%s", out.String())
	}

	// Mode/directedness mismatches are rejected.
	if err := run([]string{"-in", und, "-mode", "skyline"}, &out); err == nil {
		t.Fatal("skyline without -directed accepted")
	}
	if err := run([]string{"-in", dir, "-directed", "-mode", "cores"}, &out); err == nil {
		t.Fatal("cores with -directed accepted")
	}
	if err := run([]string{"-in", und, "-mode", "bogus"}, &out); err == nil {
		t.Fatal("bogus mode accepted")
	}
}

func TestRunAlgorithmsListing(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-algorithms"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"UDS algorithms (default pkmc)", "DDS algorithms (default pwc)",
		"fista", "FISTA", "fracpeel", "FracPeel",
		"duality gap", "fractional peeling",
		"ladder rung 1", "degradable",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("listing missing %q:\n%s", want, s)
		}
	}
}

func TestRunAlgorithmsJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-algorithms", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var catalog map[string][]dsd.AlgorithmInfo
	if err := json.Unmarshal(out.Bytes(), &catalog); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if len(catalog["uds"]) != len(dsd.UDSAlgorithms()) || len(catalog["dds"]) != len(dsd.DDSAlgorithms()) {
		t.Fatalf("catalog sizes %d/%d disagree with the registry", len(catalog["uds"]), len(catalog["dds"]))
	}
	var fista *dsd.AlgorithmInfo
	for i := range catalog["uds"] {
		if catalog["uds"][i].Name == dsd.AlgoFISTA {
			fista = &catalog["uds"][i]
		}
	}
	if fista == nil || fista.Grade != "1+eps" {
		t.Fatalf("fista entry missing or wrong: %+v", fista)
	}
	// -json without -algorithms is a usage error.
	if err := run([]string{"-json"}, &out); err == nil {
		t.Fatal("-json alone should be rejected")
	}
}
