package bench

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/gen"
	"repro/internal/graph"
)

// RenderBars draws rows as a horizontal log-scale bar chart grouped by
// dataset — the terminal rendition of the paper's Fig. 5 / Fig. 8 bar
// figures. Bars that exhausted their budget are drawn full-width and
// marked, matching the paper's bars that touch the 10⁵-second ceiling.
func RenderBars(w io.Writer, title string, rows []Row) {
	fmt.Fprintf(w, "== %s ==\n", title)
	if len(rows) == 0 {
		fmt.Fprintln(w, "(no rows)")
		return
	}
	const width = 46
	// Log scale across all finite measurements.
	min, max := math.Inf(1), math.Inf(-1)
	for _, r := range rows {
		if r.Seconds <= 0 {
			continue
		}
		if r.Seconds < min {
			min = r.Seconds
		}
		if r.Seconds > max {
			max = r.Seconds
		}
	}
	if math.IsInf(min, 1) {
		min, max = 1e-6, 1
	}
	if max <= min {
		max = min * 10
	}
	logMin, logMax := math.Log10(min), math.Log10(max)
	scale := func(sec float64) int {
		if sec <= 0 {
			return 1
		}
		f := (math.Log10(sec) - logMin) / (logMax - logMin)
		n := 1 + int(f*float64(width-1))
		if n < 1 {
			n = 1
		}
		if n > width {
			n = width
		}
		return n
	}

	// Group rows by dataset, preserving first-appearance order.
	var order []string
	groups := map[string][]Row{}
	for _, r := range rows {
		order = appendNew(order, r.Dataset)
		groups[r.Dataset] = append(groups[r.Dataset], r)
	}
	for _, ds := range order {
		fmt.Fprintf(w, "%s\n", ds)
		for _, r := range groups[ds] {
			label := r.Algorithm
			if r.Param != "" {
				label += " " + r.Param
			}
			if r.TimedOut {
				fmt.Fprintf(w, "  %-12s |%s> budget exhausted (>%.4gs)\n",
					label, strings.Repeat("#", width), r.Seconds)
				continue
			}
			fmt.Fprintf(w, "  %-12s |%s %.4gs\n", label, strings.Repeat("#", scale(r.Seconds)), r.Seconds)
		}
	}
	fmt.Fprintf(w, "(log scale: %.2gs .. %.2gs over %d columns)\n\n", min, max, width)
}

// RenderSeries draws rows as per-algorithm series over a swept parameter
// (threads or edge fraction) — the terminal rendition of the paper's line
// figures (Fig. 6/7/9/10). One block per dataset, one line per algorithm,
// the sweep values as columns.
func RenderSeries(w io.Writer, title string, rows []Row) {
	fmt.Fprintf(w, "== %s ==\n", title)
	if len(rows) == 0 {
		fmt.Fprintln(w, "(no rows)")
		return
	}
	type cell struct{ ds, algo, param string }
	var dsOrder, paramOrder, algoOrder []string
	secs := map[cell]float64{}
	ran := map[cell]bool{} // (dataset, algorithm) pairs, param empty
	for _, r := range rows {
		dsOrder = appendNew(dsOrder, r.Dataset)
		paramOrder = appendNew(paramOrder, r.Param)
		algoOrder = appendNew(algoOrder, r.Algorithm)
		secs[cell{r.Dataset, r.Algorithm, r.Param}] = r.Seconds
		ran[cell{ds: r.Dataset, algo: r.Algorithm}] = true
	}
	sort.Strings(algoOrder)
	for _, ds := range dsOrder {
		fmt.Fprintf(w, "%s\n", ds)
		fmt.Fprintf(w, "  %-10s", "")
		for _, p := range paramOrder {
			fmt.Fprintf(w, " %10s", p)
		}
		fmt.Fprintln(w)
		for _, algo := range algoOrder {
			if !ran[cell{ds: ds, algo: algo}] {
				continue
			}
			fmt.Fprintf(w, "  %-10s", algo)
			for _, p := range paramOrder {
				if sec, ok := secs[cell{ds, algo, p}]; ok {
					fmt.Fprintf(w, " %9.4fs", sec)
				} else {
					fmt.Fprintf(w, " %10s", "-")
				}
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)
}

// appendNew appends s to list unless list already holds it.
func appendNew(list []string, s string) []string {
	if slices.Contains(list, s) {
		return list
	}
	return append(list, s)
}

// RenderCatalog draws the datasets experiment's rows as Tables 4 and 5 —
// the paper's sizes next to each scale model's — followed by one stats
// line per model.
func RenderCatalog(w io.Writer, rows []Row) {
	var und, dir []graph.Stats
	for _, r := range rows {
		e := r.Extra
		s := graph.Stats{Name: r.Dataset, N: int(e["n"]), M: e["m"], MaxDeg: int32(e["max_deg"]),
			MaxOutDeg: int32(e["max_out_deg"]), MaxInDeg: int32(e["max_in_deg"])}
		if _, s.Directed = e["max_out_deg"]; s.Directed {
			s.AvgDeg = float64(s.M) / float64(s.N)
			dir = append(dir, s)
		} else {
			s.AvgDeg = 2 * float64(s.M) / float64(s.N)
			und = append(und, s)
		}
	}
	io.WriteString(w, "== Table 4: undirected datasets (paper vs scale model) ==\n")
	io.WriteString(w, gen.FormatCatalog(gen.UndirectedCatalog(), und))
	io.WriteString(w, "\n== Table 5: directed datasets (paper vs scale model) ==\n")
	io.WriteString(w, gen.FormatCatalog(gen.DirectedCatalog(), dir))
	io.WriteString(w, "\n")
	for _, s := range append(und, dir...) {
		io.WriteString(w, s.String()+"\n")
	}
}
