package server

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/faultinject"
	"repro/internal/live"
)

// path4 is a small file-sourced edge list (vertices 0..3, so in-range
// edge inserts exist) for snapshot tests.
const path4Edges = "0 1\n1 2\n2 3\n"

func writeEdgeFile(t *testing.T, edges string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "edges.txt")
	if err := os.WriteFile(path, []byte(edges), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func mustGraph(t *testing.T, edges string) *dsd.Graph {
	t.Helper()
	g, err := dsd.ReadGraph(strings.NewReader(edges))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSnapshotRoundTrip is the headline warm-restart test: a server with
// every flavor of resident graph — inline static, file-sourced static,
// inline live, mutated file-sourced live — snapshots to a state
// directory, and a fresh server restores all of them with content, liveness,
// and mutation history intact.
func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := writeEdgeFile(t, path4Edges)

	a := New(Config{})
	if _, err := a.Registry().LoadReader("inline", strings.NewReader(cliqueEdges), false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Registry().LoadFile("filegraph", path, false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := a.PutLive("liveinline", mustGraph(t, cliqueEdges), "inline", false); err != nil {
		t.Fatal(err)
	}
	lf, err := a.PutLive("livefile", mustGraph(t, path4Edges), path, false)
	if err != nil {
		t.Fatal(err)
	}
	// Two mutations the source file does not hold: the live graph's dump
	// must carry them across the restart.
	if _, err := lf.Live.Enqueue(context.Background(), []live.Mutation{
		{Op: live.OpInsert, U: 0, V: 2},
		{Op: live.OpInsert, U: 1, V: 3},
	}); err != nil {
		t.Fatal(err)
	}

	n, err := a.WriteSnapshot(dir)
	if err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if n != 4 {
		t.Fatalf("WriteSnapshot recorded %d graphs, want 4", n)
	}
	if got := a.Metrics().SnapshotSaves.Value(); got != 1 {
		t.Fatalf("snapshot_saves = %d, want 1", got)
	}

	b := New(Config{})
	restored, err := b.RestoreSnapshot(dir)
	if err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if restored != 4 {
		t.Fatalf("restored %d graphs, want 4", restored)
	}
	if got := b.Metrics().SnapshotRestores.Value(); got != 4 {
		t.Fatalf("snapshot_restores = %d, want 4", got)
	}

	for name, wantM := range map[string]int64{
		"inline":     7, // the clique list
		"filegraph":  3, // the path
		"liveinline": 7,
		"livefile":   5, // path + the two inserts, restored from the dump
	} {
		e, err := b.Registry().Get(name)
		if err != nil {
			t.Fatalf("restored %q missing: %v", name, err)
		}
		if e.Stats.M != wantM {
			t.Fatalf("restored %q has m=%d, want %d", name, e.Stats.M, wantM)
		}
	}

	// Liveness survives: the restored live graph accepts a new mutation.
	e, _ := b.Registry().Get("livefile")
	if e.Live == nil {
		t.Fatal("restored livefile is not live")
	}
	savedVersion := e.Version
	res, err := e.Live.Enqueue(context.Background(), []live.Mutation{{Op: live.OpInsert, U: 0, V: 3}})
	if err != nil {
		t.Fatalf("post-restore mutation: %v", err)
	}
	if res.Version <= savedVersion {
		t.Fatalf("post-restore mutation version %d did not advance past %d", res.Version, savedVersion)
	}

	// Version floors: every restored entry publishes strictly above the
	// version the previous process served, so cached (name@version) keys
	// from before the restart can never alias different data.
	for _, ae := range a.Registry().List() {
		be, err := b.Registry().Get(ae.Name)
		if err != nil {
			t.Fatal(err)
		}
		if be.Version <= ae.Version {
			t.Fatalf("restored %q version %d does not clear the saved floor %d", ae.Name, be.Version, ae.Version)
		}
	}
}

// TestSnapshotMutatedLiveRestoresFromDump pins that a live graph is saved
// as a dump, never as a pointer to its source: a mutated file-sourced live
// graph restores, mutation included, after its source file is deleted.
func TestSnapshotMutatedLiveRestoresFromDump(t *testing.T) {
	dir := t.TempDir()
	path := writeEdgeFile(t, path4Edges)

	a := New(Config{})
	e, err := a.PutLive("live", mustGraph(t, path4Edges), path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Live.Enqueue(context.Background(), []live.Mutation{{Op: live.OpInsert, U: 0, V: 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.WriteSnapshot(dir); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}

	// The source file disappearing must not matter: the dump is the truth.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	b := New(Config{})
	if _, err := b.RestoreSnapshot(dir); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	be, err := b.Registry().Get("live")
	if err != nil {
		t.Fatal(err)
	}
	if be.Stats.M != 4 {
		t.Fatalf("restored mutated live graph has m=%d, want 4", be.Stats.M)
	}
	if be.Live == nil {
		t.Fatal("restored graph is not live")
	}
}

// TestSnapshotWriteFaultKeepsOldManifest pins write atomicity: an injected
// failure between the tmp write and the rename aborts the save and leaves
// the previous manifest — and the state it restores — untouched.
func TestSnapshotWriteFaultKeepsOldManifest(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()

	a := New(Config{})
	if _, err := a.Registry().LoadReader("first", strings.NewReader(path4Edges), false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := a.WriteSnapshot(dir); err != nil {
		t.Fatalf("baseline WriteSnapshot: %v", err)
	}

	if _, err := a.Registry().LoadReader("second", strings.NewReader(cliqueEdges), false, false); err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.SiteSnapshotWrite, faultinject.Fault{
		Mode:  faultinject.ModeError,
		Every: 1,
	})
	if _, err := a.WriteSnapshot(dir); err == nil {
		t.Fatal("WriteSnapshot under injected fault reported success")
	}
	faultinject.Reset()

	// No half-written manifest: the tmp file is cleaned up and a restore
	// sees exactly the pre-fault state.
	if _, err := os.Stat(filepath.Join(dir, ManifestName+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("tmp manifest left behind (stat err %v)", err)
	}
	b := New(Config{})
	restored, err := b.RestoreSnapshot(dir)
	if err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if restored != 1 {
		t.Fatalf("restored %d graphs, want 1 (the pre-fault manifest)", restored)
	}
	if _, err := b.Registry().Get("first"); err != nil {
		t.Fatalf("pre-fault graph missing: %v", err)
	}
	if _, err := b.Registry().Get("second"); err == nil {
		t.Fatal("post-fault graph restored; the aborted save must not have landed")
	}
}

// TestSnapshotRestoreFailures covers the cold-start degradations: a missing
// state directory is a clean zero, an injected read fault and a corrupt
// manifest are errors (the caller logs and cold-starts), and one graph's
// lost source file skips that graph without dooming the rest.
func TestSnapshotRestoreFailures(t *testing.T) {
	t.Cleanup(faultinject.Reset)

	s := New(Config{})
	if n, err := s.RestoreSnapshot(filepath.Join(t.TempDir(), "never-written")); n != 0 || err != nil {
		t.Fatalf("missing manifest restore = (%d, %v), want (0, nil)", n, err)
	}

	// Injected read fault.
	dir := t.TempDir()
	a := New(Config{})
	if _, err := a.Registry().LoadReader("g", strings.NewReader(path4Edges), false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := a.WriteSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.SiteSnapshotLoad, faultinject.Fault{Mode: faultinject.ModeError, Every: 1})
	if _, err := New(Config{}).RestoreSnapshot(dir); err == nil {
		t.Fatal("restore under injected load fault reported success")
	}
	faultinject.Reset()

	// Corrupt manifest.
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{}).RestoreSnapshot(dir); err == nil || !strings.Contains(err.Error(), "corrupt manifest") {
		t.Fatalf("corrupt manifest restore err = %v, want a corrupt-manifest error", err)
	}

	// One lost source skips that graph, restores the rest, reports the error.
	dir2 := t.TempDir()
	path := writeEdgeFile(t, path4Edges)
	c := New(Config{})
	if _, err := c.Registry().LoadFile("doomed", path, false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Registry().LoadReader("survivor", strings.NewReader(cliqueEdges), false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteSnapshot(dir2); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	d := New(Config{})
	restored, err := d.RestoreSnapshot(dir2)
	if err == nil {
		t.Fatal("restore with a lost source reported no error")
	}
	if restored != 1 {
		t.Fatalf("restored %d graphs, want 1 (the survivor)", restored)
	}
	if _, gerr := d.Registry().Get("survivor"); gerr != nil {
		t.Fatalf("survivor missing: %v", gerr)
	}
}

// TestSnapshotFormatV1ColdStarts pins the format gate: a format-1
// manifest may describe a live graph as its source plus a delta log this
// build cannot replay, so it is refused whole — a cold start — rather than
// restored without its mutations.
func TestSnapshotFormatV1ColdStarts(t *testing.T) {
	dir := t.TempDir()
	path := writeEdgeFile(t, path4Edges)
	v1 := `{"format_version": 1, "graphs": [{"name": "feed", "live": true, "version": 3,
		"source": "` + path + `", "deltas": [{"op": "insert", "u": 0, "v": 2}]}]}`
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	n, err := s.RestoreSnapshot(dir)
	if err == nil || !strings.Contains(err.Error(), "unsupported") || n != 0 {
		t.Fatalf("format-1 restore = (%d, %v), want (0, an unsupported-format error)", n, err)
	}
	if _, err := s.Registry().Get("feed"); err == nil {
		t.Fatal("format-1 manifest restored a graph")
	}
}

// TestSnapshotResidentWins pins the preload precedence: a name already
// resident (an explicit -load, say) is never displaced by the snapshot.
func TestSnapshotResidentWins(t *testing.T) {
	dir := t.TempDir()
	a := New(Config{})
	if _, err := a.Registry().LoadReader("g", strings.NewReader(cliqueEdges), false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := a.WriteSnapshot(dir); err != nil {
		t.Fatal(err)
	}

	b := New(Config{})
	if _, err := b.Registry().LoadReader("g", strings.NewReader(path4Edges), false, false); err != nil {
		t.Fatal(err)
	}
	restored, err := b.RestoreSnapshot(dir)
	if err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if restored != 0 {
		t.Fatalf("restored %d graphs, want 0 (the name was taken)", restored)
	}
	e, _ := b.Registry().Get("g")
	if e.Stats.M != 3 {
		t.Fatalf("resident graph has m=%d, want the preloaded path's 3", e.Stats.M)
	}
}

// TestSnapshotSweepRemovesStaleDumps confirms displaced state files are
// garbage-collected on the next save instead of accumulating forever.
func TestSnapshotSweepRemovesStaleDumps(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{})
	e, err := s.PutLive("live", mustGraph(t, path4Edges), "inline", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	// A mutation bumps the version; the next save writes a new dump and
	// must sweep the old version's.
	if _, err := e.Live.Enqueue(context.Background(), []live.Mutation{{Op: live.OpInsert, U: 0, V: 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	dumps, err := filepath.Glob(filepath.Join(dir, "graph-*.dsdg.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 1 {
		t.Fatalf("state dir holds %d dumps after two saves, want 1 (stale versions swept): %v", len(dumps), dumps)
	}
}
