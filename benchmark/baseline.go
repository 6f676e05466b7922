package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// engineRow is the part of a BENCH_engine.json row the benchmark reads. The
// file is read at run time, never copied here: a later change that moves
// the schedule re-baselines that file, and this check follows it.
type engineRow struct {
	Bench       string  `json:"bench"`
	Class       string  `json:"class"`
	NP          int     `json:"np"`
	Queue       string  `json:"queue"`
	Shards      int     `json:"shards"`
	Events      uint64  `json:"events"`
	Fingerprint string  `json:"fingerprint"`
	SimSeconds  float64 `json:"simulated_sec"`
}

// checkBaseline holds a workload marked engineRow (the two cg_np256) to the
// committed BENCH_engine.json np=256 serial row: same events, same schedule
// fingerprint, same simulated seconds for the CG kernel itself (the closing
// probe comes after these are read). Without the file or the row
// there is nothing to hold them to, which is said on stderr and not counted.
func checkBaseline(e env, w *workload, r repResult, ck *checks) {
	if !w.engineRow {
		return
	}
	path := filepath.Join(e.root, "BENCH_engine.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "note: %v; %s is not checked against the committed row\n", err, w.def.Name)
		return
	}
	var file struct {
		Runs []engineRow `json:"runs"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		fmt.Fprintf(os.Stderr, "note: %s: %v; %s is not checked against the committed row\n", path, err, w.def.Name)
		return
	}
	for _, row := range file.Runs {
		if row.Bench != "cg" || row.Class != "S" || row.NP != 256 || row.Shards != 1 || row.Queue != "calendar" {
			continue
		}
		ck.ok(r.nas.events == row.Events, "%s: %d events, BENCH_engine.json has %d", w.def.Name, r.nas.events, row.Events)
		fp := fmt.Sprintf("%016x", r.nas.fp)
		ck.ok(fp == row.Fingerprint, "%s: fingerprint %s, BENCH_engine.json has %s", w.def.Name, fp, row.Fingerprint)
		ck.ok(r.nas.simS == row.SimSeconds, "%s: %.9f simulated s, BENCH_engine.json has %.9f", w.def.Name, r.nas.simS, row.SimSeconds)
		return
	}
	fmt.Fprintf(os.Stderr, "note: %s has no cg.S np=256 serial row; %s is not checked against it\n", path, w.def.Name)
}
