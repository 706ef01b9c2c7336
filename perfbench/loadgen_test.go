package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro"
)

func TestRNGStreamsAreSeeded(t *testing.T) {
	draw := func(seed int64, stream uint64) []uint64 {
		r := newRNG(seed, stream)
		out := make([]uint64, 8)
		for i := range out {
			out[i] = r.next()
		}
		return out
	}
	if fmt.Sprint(draw(7, streamJobs)) != fmt.Sprint(draw(7, streamJobs)) {
		t.Fatal("one seed and stream gave two sequences")
	}
	if fmt.Sprint(draw(7, streamJobs)) == fmt.Sprint(draw(8, streamJobs)) {
		t.Fatal("seeds 7 and 8 gave the same sequence")
	}
	if fmt.Sprint(draw(7, streamJobs)) == fmt.Sprint(draw(7, streamArrivals)) {
		t.Fatal("two streams of one seed gave the same sequence")
	}
}

func TestDeckDealsExactMix(t *testing.T) {
	d := newDeck(mixDeck)
	r := newRNG(1, streamJobs)
	size := 0
	for _, n := range mixDeck {
		size += n
	}
	for block := range 5 {
		counts := make([]int, len(mixDeck))
		for range size {
			counts[d.deal(r)]++
		}
		if fmt.Sprint(counts) != fmt.Sprint(mixDeck) {
			t.Fatalf("block %d dealt %v, want %v", block, counts, mixDeck)
		}
	}
}

func TestZipfFavoursLowRanks(t *testing.T) {
	z := newZipf(mixUDSKeys, mixZipfS)
	r := newRNG(3, streamJobs)
	hot := 0
	for range 10000 {
		if z.rank(r.float()) < 256 {
			hot++
		}
	}
	// With s = 1.5 over 2048 ranks the top 256 carry 96.9% of the mass.
	if hot < 9600 || hot > 9780 {
		t.Fatalf("%d of 10000 draws in the top 256 ranks", hot)
	}
}

func TestStratifiedCoversEveryStratum(t *testing.T) {
	s := newStratified(mixStrata)
	r := newRNG(4, streamJobs)
	for block := range 3 {
		seen := make([]bool, mixStrata)
		for range mixStrata {
			u := s.next(r)
			seen[int(u*mixStrata)] = true
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("block %d has no draw in stratum %d", block, i)
			}
		}
	}
}

// jobsText renders a job sequence for comparison.
func jobsText(next func() job, n int) string {
	var b bytes.Buffer
	for range n {
		for _, r := range next().reqs {
			fmt.Fprintf(&b, "%s %s %s %s\n", r.class, r.method, r.path, r.body)
		}
	}
	return b.String()
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	g, _, err := dsd.BuildDataset("PT", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	bases := []churnBase{newChurnBase("pt0", g), newChurnBase("pt1", g)}
	gens := map[string]func(seed int64) func() job{
		"serve-mix":  func(seed int64) func() job { return newMixGen(seed, map[string]answer{}).next },
		"live-churn": func(seed int64) func() job { return newChurnGen(seed, bases).next },
	}
	for name, gen := range gens {
		a, b := jobsText(gen(5), 500), jobsText(gen(5), 500)
		if a != b {
			t.Errorf("%s: seed 5 produced two job sequences", name)
		}
		if a == jobsText(gen(6), 500) {
			t.Errorf("%s: seeds 5 and 6 produced the same jobs", name)
		}
		s1 := poissonSchedule(newRNG(5, streamArrivals), 100, 2*time.Second, gen(5))
		s2 := poissonSchedule(newRNG(5, streamArrivals), 100, 2*time.Second, gen(5))
		if len(s1) != len(s2) || len(s1) < 150 || len(s1) > 250 {
			t.Fatalf("%s: schedules of %d and %d arrivals for 2 s at 100/s", name, len(s1), len(s2))
		}
		for i := range s1 {
			if s1[i].at != s2[i].at || string(s1[i].job.reqs[0].body) != string(s2[i].job.reqs[0].body) {
				t.Fatalf("%s: arrival %d differs between two schedules of one seed", name, i)
			}
		}
	}
}

func TestMixSpreadsJobsOverSamples(t *testing.T) {
	gen := newMixGen(2, map[string]answer{})
	perClass := map[string]map[string]int{}
	for range 8000 {
		r := gen.next().reqs[0]
		if perClass[r.class] == nil {
			perClass[r.class] = map[string]int{}
		}
		perClass[r.class][r.graph]++
	}
	for class, models := range map[string][]string{"uds": {"pt", "ew"}, "pair": {"ew"}, "pwc": {"am"}, "exact": {"pt"}} {
		counts := perClass[class]
		if len(counts) != len(models)*servingSamples {
			t.Fatalf("%s jobs went to %d graphs, want %d: %v", class, len(counts), len(models)*servingSamples, counts)
		}
		if class != "pair" && class != "exact" {
			continue
		}
		lo, hi := 1<<30, 0
		for _, n := range counts {
			lo, hi = min(lo, n), max(hi, n)
		}
		if hi-lo > 1 {
			t.Errorf("%s jobs do not rotate evenly over the samples: %v", class, counts)
		}
	}
}

func TestChurnDeletesOnlyOldInserts(t *testing.T) {
	g, _, err := dsd.BuildDataset("PT", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	gen := newChurnGen(9, []churnBase{newChurnBase("pt0", g), newChurnBase("pt1", g)})
	inserted := map[string]int{} // graph and edge -> job index
	deletes := 0
	for i := range 2000 {
		j := gen.next()
		r := j.reqs[0]
		if r.class != "mutate" {
			continue
		}
		var body struct {
			Mutations []struct {
				Op   string
				U, V int32
			}
		}
		if err := json.Unmarshal(r.body, &body); err != nil {
			t.Fatal(err)
		}
		for _, m := range body.Mutations {
			key := fmt.Sprint(r.graph, m.U, m.V)
			switch m.Op {
			case "insert":
				if m.U == m.V {
					t.Fatalf("job %d inserts a self-loop", i)
				}
				if _, ok := inserted[key]; !ok {
					inserted[key] = i
				}
			case "delete":
				deletes++
				at, ok := inserted[key]
				if !ok || i-at < deleteLag {
					t.Fatalf("job %d deletes %s, inserted at job %d (ok=%v)", i, key, at, ok)
				}
			}
		}
	}
	if deletes == 0 {
		t.Fatal("no deletes in 2000 jobs")
	}
}

func TestVersionCheck(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	rec := func(sent, done int, version int64, changed bool) *reqRecord {
		return &reqRecord{class: "mutate", sent: at(sent), done: at(done), status: 200, version: version, changed: changed}
	}
	good := []*reqRecord{rec(0, 2, 2, true), rec(1, 3, 3, true), rec(4, 5, 3, false), rec(6, 7, 4, true)}
	if msg := checkVersions(good); msg != "" {
		t.Fatalf("consistent versions rejected: %s", msg)
	}
	backwards := append(good, rec(8, 9, 3, false))
	if checkVersions(backwards) == "" {
		t.Fatal("a read older than a completed mutation was accepted")
	}
	reused := append(good, rec(8, 9, 4, true))
	if checkVersions(reused) == "" {
		t.Fatal("two changing mutations with one version were accepted")
	}
}

func TestGateRejectsStarvedGenerator(t *testing.T) {
	due := time.Unix(100, 0)
	var recs []*reqRecord
	for i := range 100 {
		lag := time.Millisecond
		if i >= 95 {
			lag = 200 * time.Millisecond
		}
		recs = append(recs, &reqRecord{due: due, sent: due.Add(lag)})
	}
	spec := serveSpec{maxLagMs: 50}
	o := newOutcome()
	gate(o, spec, recs, 0, 100)
	if o.invalid == "" {
		t.Fatal("a run whose lag p99 is 200 ms passed the gate")
	}
	o = newOutcome()
	gate(o, spec, recs[:90], 10, 100)
	if o.invalid == "" {
		t.Fatal("a run that sent 90% of its schedule passed the gate")
	}
	o = newOutcome()
	gate(o, spec, recs[:95], 1, 96)
	if o.invalid != "" {
		t.Fatalf("a healthy run failed the gate: %s", o.invalid)
	}
}
