package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json compare reads: the
// end-to-end metrics with their direction and regression bound.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts of compare.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// minPairs is the number of paired runs a claimed improvement needs.
const minPairs = 10

// verdict compares the parent's runs a with the change's runs b of one
// metric. A gain needs at least minPairs pairs, the change winning nine
// tenths of them (ties count for neither side), and a median gap larger
// than the parent's own interquartile range. Where the parent's spread
// exceeds the bound, the metric is unresolved unless every change run beats
// every parent run. Otherwise a median worse by more than the bound is a
// regression, and anything else is unchanged.
func verdict(a, b []float64, lowerBetter bool, bound float64) string {
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	ma, mb := median(a), median(b)
	if len(a) >= minPairs && len(a) == len(b) {
		wins := 0
		for i := range a {
			if better(b[i], a[i]) {
				wins++
			}
		}
		q1, _, q3, _ := quartiles(a)
		gap := ma - mb
		if !lowerBetter {
			gap = -gap
		}
		if 10*wins >= 9*len(a) && gap > q3-q1 {
			return improved
		}
	}
	if relSpread(a) > bound {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				allBetter = allBetter && better(x, y)
			}
		}
		if !allBetter {
			return unresolved
		}
	}
	worse := (mb - ma) / ma
	if !lowerBetter {
		worse = -worse
	}
	if worse > bound {
		return regressed
	}
	return unchanged
}

// runCompare implements "bench compare A B": one row per (workload,
// end-to-end metric) of the untraced runs in both files, A being the
// parent, under the bounds in the checkout's BENCHMARK.json. It exits 1
// when any row regressed.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare A.json[#set] B.json[#set]")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	var spec benchmarkSpec
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	sides := make([]map[string]map[string][]float64, 2) // workload -> metric -> values
	for i, path := range args {
		sets, err := readResults(path)
		if err != nil {
			fmt.Fprintln(stderr, "bench compare:", err)
			return 1
		}
		sides[i] = map[string]map[string][]float64{}
		for _, runs := range sets {
			for _, r := range runs {
				if r.Trace {
					continue
				}
				if sides[i][r.Workload] == nil {
					sides[i][r.Workload] = map[string][]float64{}
				}
				for name, v := range r.Metrics {
					sides[i][r.Workload][name] = append(sides[i][r.Workload][name], v.Value)
				}
			}
		}
	}

	var workloads []string
	for wl := range sides[0] {
		if sides[1][wl] != nil {
			workloads = append(workloads, wl)
		}
	}
	sort.Slice(workloads, func(i, j int) bool { return workloadOrder(workloads[i]) < workloadOrder(workloads[j]) })
	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent\tchange\tdelta\tbound\tverdict")
	status := 0
	for _, wl := range workloads {
		for _, em := range spec.EndToEnd {
			a, b := sides[0][wl][em.Name], sides[1][wl][em.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := verdict(a, b, em.Better == "lower", em.Bound)
			if v == regressed {
				status = 1
			}
			ma, mb := median(a), median(b)
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%+.1f%%\t%.0f%%\t%s\n",
				wl, em.Name, ma, em.Unit, mb, em.Unit, 100*(mb-ma)/ma, 100*em.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return 1
	}
	return status
}

// workloadOrder sorts workloads in run order, unknown names last.
func workloadOrder(name string) int {
	for i, n := range workloadNames {
		if n == name {
			return i
		}
	}
	return len(workloadNames)
}
