package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
	"repro/internal/faultinject"
)

// Warm restart: the registry's resident-graph set is serialized to a small
// manifest in a state directory (on graceful shutdown and on a periodic
// tick from cmd/dsdserver), and a restarting process replays it behind
// /readyz so the first post-restart request finds its graphs resident
// instead of 404ing until an operator reloads them.
//
// The manifest records identity and provenance, not payloads: a static
// graph loaded from a file is restored by re-reading that file. State that
// has no durable home — inline/generated graphs, and every live graph,
// whose mutations exist only in memory — is materialized into the state
// directory as a binary edge dump, so mutations accepted since load
// survive the restart.
const (
	// ManifestName is the snapshot manifest's filename inside the state
	// directory.
	ManifestName = "manifest.json"
	// manifestFormatVersion gates restores: a manifest written in any
	// other format degrades to a cold start, never a misparse. Format 1
	// could carry a live graph as its source plus a replayable delta log,
	// which this build no longer reads.
	manifestFormatVersion = 2
)

// manifestGraph is one resident graph's entry in the snapshot manifest.
type manifestGraph struct {
	Name     string `json:"name"`
	Directed bool   `json:"directed,omitempty"`
	Live     bool   `json:"live,omitempty"`
	// Version is the served version at save time; restore raises the
	// name's version floor past it so restored entries can never alias a
	// version the previous process handed out.
	Version int64  `json:"version"`
	Source  string `json:"source,omitempty"`
	// StateFile, when set, names a materialized edge dump inside the state
	// directory that supersedes Source for restoring.
	StateFile string `json:"state_file,omitempty"`
}

// manifest is the snapshot file's schema.
type manifest struct {
	FormatVersion int             `json:"format_version"`
	SavedAt       time.Time       `json:"saved_at"`
	Graphs        []manifestGraph `json:"graphs"`
}

// fileSource reports whether source names a re-readable file (as opposed
// to the "inline"/"generated" placeholders of body- and API-loaded
// graphs).
func fileSource(source string) bool {
	return source != "" && source != "inline" && source != "generated"
}

// WriteSnapshot serializes the resident-graph manifest (plus any needed
// edge dumps) into dir, atomically: the manifest lands via tmp+rename, so
// a crash — or an injected SiteSnapshotWrite fault — mid-write leaves the
// previous manifest intact. It returns the number of graphs recorded.
// Concurrent mutations make a periodic snapshot best-effort (each graph's
// entry is internally consistent; the set is a crawl, not a global
// freeze); the post-drain snapshot at shutdown is exact.
func (s *Server) WriteSnapshot(dir string) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	man := manifest{FormatVersion: manifestFormatVersion, SavedAt: time.Now()}
	for _, e := range s.reg.List() {
		mg := manifestGraph{Name: e.Name, Directed: e.Directed, Version: e.Version, Source: e.Source}
		materialize := func(save func(string) error) error {
			// State files are keyed by (name hash, version), never by the
			// raw name: graph names are arbitrary strings and must not
			// become path components, and a (name, version) pair always
			// denotes one immutable state, so an overwrite is idempotent.
			sf := stateFileName(e.Name, mg.Version)
			if err := save(filepath.Join(dir, sf)); err != nil {
				return fmt.Errorf("materializing %q: %w", e.Name, err)
			}
			mg.StateFile = sf
			return nil
		}
		var err error
		switch {
		case e.Live != nil:
			mg.Live = true
			g, version := e.Live.Snapshot()
			mg.Version = version
			err = materialize(func(p string) error { return dsd.SaveGraph(g, p) })
		case fileSource(e.Source):
			// Restorable by re-reading its own path; nothing to write.
		case e.G != nil:
			err = materialize(func(p string) error { return dsd.SaveGraph(e.G, p) })
		default:
			err = materialize(func(p string) error { return dsd.SaveDigraph(e.D, p) })
		}
		if err != nil {
			return 0, err
		}
		man.Graphs = append(man.Graphs, mg)
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return 0, err
	}
	tmp := filepath.Join(dir, ManifestName+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return 0, err
	}
	if err := faultinject.Hit(faultinject.SiteSnapshotWrite); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, filepath.Join(dir, ManifestName)); err != nil {
		return 0, err
	}
	s.metrics.SnapshotSaves.Add(1)
	sweepStateFiles(dir, man)
	return len(man.Graphs), nil
}

// stateFileName derives the collision-free dump filename for one graph
// state. Versions are monotonic per name, so (name, version) is immutable.
func stateFileName(name string, version int64) string {
	h := fnv.New64a()
	h.Write([]byte(name))
	return fmt.Sprintf("graph-%016x-v%d.dsdg.gz", h.Sum64(), version)
}

// sweepStateFiles removes dumps the just-written manifest no longer
// references (displaced versions of periodic saves). Best-effort: a sweep
// failure costs disk, not correctness, so errors are ignored. Files still
// referenced as a restored graph's Source are kept too.
func sweepStateFiles(dir string, man manifest) {
	keep := map[string]struct{}{}
	for _, mg := range man.Graphs {
		if mg.StateFile != "" {
			keep[mg.StateFile] = struct{}{}
		}
		if filepath.Dir(mg.Source) == dir {
			keep[filepath.Base(mg.Source)] = struct{}{}
		}
	}
	names, err := filepath.Glob(filepath.Join(dir, "graph-*.dsdg.gz"))
	if err != nil {
		return
	}
	for _, p := range names {
		base := filepath.Base(p)
		if _, ok := keep[base]; !ok && strings.HasPrefix(base, "graph-") {
			os.Remove(p)
		}
	}
}

// RestoreSnapshot reloads the graphs recorded in dir's manifest. A missing
// manifest is a clean cold start (0, nil); a corrupt or incompatible one
// is an error the caller downgrades to a cold start. Names already
// resident are skipped — an explicit preload wins over the snapshot — and
// per-graph restore failures (a source file deleted since the save) skip
// that graph and report the first such error alongside the count, so one
// lost file does not take down every other graph's warm start.
func (s *Server) RestoreSnapshot(dir string) (int, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if err := faultinject.Hit(faultinject.SiteSnapshotLoad); err != nil {
		return 0, err
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return 0, fmt.Errorf("corrupt manifest: %w", err)
	}
	if man.FormatVersion != manifestFormatVersion {
		return 0, fmt.Errorf("manifest format %d unsupported (this build reads %d)",
			man.FormatVersion, manifestFormatVersion)
	}
	restored := 0
	var firstErr error
	for _, mg := range man.Graphs {
		if _, err := s.reg.Get(mg.Name); err == nil {
			continue
		}
		// Restored entries must publish strictly above every version the
		// previous process served: a client that cached (name, version)
		// before the restart can never have it alias different data after.
		s.reg.BumpVersionFloor(mg.Name, mg.Version)
		if err := s.restoreGraph(dir, mg); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("restoring %q: %w", mg.Name, err)
			}
			continue
		}
		restored++
	}
	if restored > 0 {
		s.metrics.SnapshotRestores.Add(int64(restored))
	}
	return restored, firstErr
}

// restoreGraph brings one manifest entry back resident.
func (s *Server) restoreGraph(dir string, mg manifestGraph) error {
	path := mg.Source
	if mg.StateFile != "" {
		path = filepath.Join(dir, mg.StateFile)
	}
	if !fileSource(path) {
		return fmt.Errorf("no restorable source (source %q, no state file)", mg.Source)
	}
	if !mg.Live {
		_, err := s.reg.LoadFile(mg.Name, path, mg.Directed, false)
		return err
	}
	g, err := dsd.LoadGraph(path)
	if err != nil {
		return err
	}
	// Provenance must match content: a graph restored from a state dump
	// records the dump as its source.
	_, err = s.reg.PutLive(mg.Name, g, path, false, s.liveConfig())
	return err
}
