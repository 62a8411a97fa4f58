package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json this program reads: the
// regression bound and direction of each end-to-end metric.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// readResults groups the end-to-end values of a -out file by workload
// and metric.
func readResults(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, v := range r.EndToEnd {
			out[r.Workload][name] = append(out[r.Workload][name], v)
		}
	}
	return out, sc.Err()
}

// spread is the distance between the first and third quartile as a
// share of the median, quartiles as Python's statistics.quantiles(v,
// n=4) gives them (the driver's rule).
func spread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / median(s)
}

// compareFiles prints, per workload and end-to-end metric, both sets'
// medians, the change, the bound, and a verdict: ok, worse (the second
// median is worse than the first by more than the bound), or
// unresolved (a set's own spread is wider than the bound, so the runs
// cannot tell). It reports whether every row is ok.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian a\tmedian b\tchange\tspread a\tspread b\tbound\tverdict")
	allOK := true
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\t-\t%.2f\tmissing\n", wl.Name, m.Name, m.Bound)
				allOK = false
				continue
			}
			ma, mb := median(va), median(vb)
			change := (mb - ma) / ma
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			// setup_s is judged on medians alone, as the driver does.
			case m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
			}
			if verdict != "ok" {
				allOK = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl.Name, m.Name, ma, mb, 100*change, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	return allOK, tw.Flush()
}
