package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// suiteFile is what -suite writes and -compare reads: every workload's two
// passes from one process, each metric as median / min / max / n.
type suiteFile struct {
	Schema     string                `json:"schema"`
	Go         string                `json:"go"`
	GOMAXPROCS int                   `json:"gomaxprocs"`
	Seed       int64                 `json:"seed"`
	Seconds    float64               `json:"seconds"`
	Quick      bool                  `json:"quick"`
	Workloads  map[string]suiteEntry `json:"workloads"`
}

type suiteEntry struct {
	EndToEnd *result `json:"end_to_end"`
	PerLayer *result `json:"per_layer"`
}

const suiteSchema = "mpibench/suite/v1"

// runSuite runs every workload, untraced pass then traced pass, one after
// the other in this process, prints every metric, and writes the file.
func runSuite(wd *time.Timer, e env, seed int64, seconds float64, out string) int {
	file := suiteFile{Schema: suiteSchema, Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds, Quick: e.quick, Workloads: map[string]suiteEntry{}}
	failed := 0
	for _, w := range workloads {
		var entry suiteEntry
		for _, traced := range []bool{false, true} {
			wd.Reset(hardDeadline)
			res, err := runWorkload(e, w.Name, seed, seconds, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mpibench:", err)
				return 2
			}
			res.print(os.Stdout)
			failed += res.Failed
			if traced {
				entry.PerLayer = res
			} else {
				entry.EndToEnd = res
			}
		}
		file.Workloads[w.Name] = entry
	}
	if out != "" {
		raw, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpibench:", err)
			return 2
		}
		fmt.Printf("wrote %s\n", out)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "mpibench: %d checks failed\n", failed)
		return 1
	}
	return 0
}

// readSuite loads a -suite file for comparison.
func readSuite(path string) (*suiteFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f suiteFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != suiteSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, suiteSchema)
	}
	if f.Quick {
		return nil, fmt.Errorf("%s is a -quick run; quick numbers are not compared", path)
	}
	return &f, nil
}

// compareFiles prints one row per workload × metric judging run b against
// run a under each metric's own bound, and returns 1 when any metric got
// worse or any check of either run failed.
func compareFiles(pathA, pathB string) int {
	a, err := readSuite(pathA)
	var b *suiteFile
	if err == nil {
		b, err = readSuite(pathB)
	}
	if err == nil && a.Seed != b.Seed {
		err = fmt.Errorf("seeds differ (%d vs %d): simulated metrics are only exact for one seed", a.Seed, b.Seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpibench:", err)
		return 2
	}
	counts := map[verdict]int{}
	fmt.Printf("%-18s %-40s %-9s %16s %16s %9s  %s\n", "workload", "metric", "unit", "a", "b", "change", "verdict")
	bad := 0
	for _, w := range workloads {
		ea, eb := a.Workloads[w.Name], b.Workloads[w.Name]
		for _, pass := range []struct {
			defs     []metricDef
			endToEnd bool
			ra, rb   *result
		}{{endToEnd, true, ea.EndToEnd, eb.EndToEnd}, {perLayer, false, ea.PerLayer, eb.PerLayer}} {
			if pass.ra == nil || pass.rb == nil {
				fmt.Printf("%-18s missing from one of the files\n", w.Name)
				bad++
				continue
			}
			bad += pass.ra.Failed + pass.rb.Failed
			for _, m := range pass.defs {
				sa, oka := pass.ra.Metrics[m.Name]
				sb, okb := pass.rb.Metrics[m.Name]
				if !oka || !okb {
					fmt.Printf("%-18s %-40s missing from one of the files\n", w.Name, m.Name)
					bad++
					continue
				}
				v := judge(m, pass.endToEnd, sa, sb)
				counts[v]++
				change := "-"
				if sa.Median != 0 {
					change = fmt.Sprintf("%+.2f%%", 100*(sb.Median-sa.Median)/sa.Median)
				}
				fmt.Printf("%-18s %-40s %-9s %16.9g %16.9g %9s  %s\n", w.Name, m.Name, m.Unit, sa.Median, sb.Median, change, v)
			}
		}
	}
	fmt.Printf("%d ok, %d better, %d worse, %d unresolved, %d host rows shown without a bound\n",
		counts[same], counts[better], counts[worse], counts[unresolved], counts[info])
	if counts[worse] > 0 || bad > 0 {
		return 1
	}
	return 0
}
