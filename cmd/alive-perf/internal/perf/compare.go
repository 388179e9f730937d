package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// minRuns is the fewest runs per side Compare accepts.
const minRuns = 5

// bound is an end-to-end metric's regression rule in BENCHMARK.json: the
// share of the baseline median by which it may get worse.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds(path string) ([]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return def.EndToEnd, nil
}

// loadRuns reads every file in dir as the saved output of one run and
// collects the values of its `workload metric value unit` lines.
func loadRuns(dir string) (map[string]map[string][]float64, error) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	runs := map[string]map[string][]float64{}
	for _, f := range files {
		if !f.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			fs := strings.Fields(line)
			if len(fs) != 4 || Lookup(fs[0]) == nil {
				continue
			}
			v, err := strconv.ParseFloat(fs[2], 64)
			if err != nil {
				continue
			}
			if runs[fs[0]] == nil {
				runs[fs[0]] = map[string][]float64{}
			}
			runs[fs[0]][fs[1]] = append(runs[fs[0]][fs[1]], v)
		}
	}
	return runs, nil
}

// Compare judges a candidate's runs against a baseline's, each a
// directory of saved alive-perf output with at least minRuns runs. For
// every workload and end-to-end metric of the benchmark definition at
// benchPath it prints each side's median and quartiles and a verdict,
// and it reports whether any metric regressed.
func Compare(w io.Writer, benchPath, baseDir, candDir string) (regressed bool, err error) {
	bounds, err := loadBounds(benchPath)
	if err != nil {
		return false, err
	}
	base, err := loadRuns(baseDir)
	if err != nil {
		return false, err
	}
	cand, err := loadRuns(candDir)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-15s %31s %31s %8s  %s\n", "workload", "metric",
		"base median [q1 q3]", "cand median [q1 q3]", "change", "verdict")
	for _, wl := range Workloads {
		for _, b := range bounds {
			xs, ys := base[wl.Name][b.Name], cand[wl.Name][b.Name]
			if len(xs) == 0 && len(ys) == 0 {
				continue
			}
			if len(xs) < minRuns || len(ys) < minRuns {
				return false, fmt.Errorf("%s %s: %d baseline and %d candidate runs, want at least %d each",
					wl.Name, b.Name, len(xs), len(ys), minRuns)
			}
			verdict := judge(xs, ys, b.Better == "lower", b.Bound)
			regressed = regressed || verdict == "regressed"
			fmt.Fprintf(w, "%-14s %-15s %31s %31s %+7.1f%%  %s\n", wl.Name, b.Name,
				summary(xs), summary(ys), 100*(median(ys)/median(xs)-1), verdict)
		}
	}
	return regressed, nil
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g]", median(xs), q1, q3)
}

// judge applies the choosing-metrics rule to a metric's baseline runs xs
// and candidate runs ys. Where the baseline's own spread (the distance
// between its quartiles, as a share of its median) is wider than the
// bound, the metric is unresolved unless every candidate run is better
// than every baseline run. Otherwise it regressed when the candidate's
// median is worse than the baseline's by more than the bound.
func judge(xs, ys []float64, lowerBetter bool, bound float64) string {
	mx, my := median(xs), median(ys)
	worse := (my - mx) / mx
	allBetter := slices.Max(ys) < slices.Min(xs)
	if !lowerBetter {
		worse = -worse
		allBetter = slices.Min(ys) > slices.Max(xs)
	}
	q1, q3 := quartiles(xs)
	switch {
	case (q3-q1)/mx > bound:
		if allBetter {
			return "ok"
		}
		return "unresolved"
	case worse > bound:
		return "regressed"
	}
	return "ok"
}
