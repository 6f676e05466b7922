package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// rowCase is one row type's fixtures for the gate contract every BENCH_*.json
// shares.
type rowCase[R row[R]] struct {
	base    R                      // the committed row
	other   R                      // a row under a key the baseline does not hold
	broken  R                      // base with one exact field changed ...
	mention []string               // ... which the error must name, with both values
	scaled  func(r R, f float64) R // r with its wall figure multiplied by f
	tol     float64                // the gate's tolerance; 1+2*tol must fail
}

func testContract[R row[R]](t *testing.T, c rowCase[R]) {
	report := func(rows ...R) *Report[R] {
		rep := NewReport[R]()
		rep.Runs = rows
		return rep
	}
	measured, _ := json.Marshal(c.other)
	missing := []string{c.other.key(), "missing from baseline", string(measured)}
	for _, tc := range []struct {
		name string
		cur  *Report[R]
		want [][]string // per expected error, the substrings it must carry
	}{
		{"identical passes", report(c.base), nil},
		{"faster is not an error", report(c.scaled(c.base, 0.5)), nil},
		{"missing row carries the measured row", report(c.base, c.other), [][]string{missing}},
		{"exact mismatch names the field and both values", report(c.broken),
			[][]string{append([]string{c.base.key(), "diverge"}, c.mention...)}},
		{"wall regression beyond tolerance", report(c.scaled(c.base, 1+2*c.tol)),
			[][]string{{c.base.key(), "regressed"}}},
		{"zero matched rows", report(c.other), [][]string{missing, {"no measured row matches"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			errs := tc.cur.compare(report(c.base), c.tol)
			if len(errs) != len(tc.want) {
				t.Fatalf("got %d errors, want %d: %v", len(errs), len(tc.want), errs)
			}
			for i, subs := range tc.want {
				for _, s := range subs {
					if !strings.Contains(errs[i].Error(), s) {
						t.Errorf("error %d lacks %q: %v", i, s, errs[i])
					}
				}
			}
		})
	}
	t.Run("merge keeps unmeasured base rows in order", func(t *testing.T) {
		got := report(c.broken).merge(report(c.base, c.other)).Runs
		if want := []R{c.broken, c.other}; !reflect.DeepEqual(got, want) {
			t.Errorf("re-measured first row: got %+v, want %+v", got, want)
		}
		got = report(c.other, c.broken).merge(report(c.base)).Runs
		if want := []R{c.broken, c.other}; !reflect.DeepEqual(got, want) {
			t.Errorf("new key appends after the base rows: got %+v, want %+v", got, want)
		}
	})
}

func engRun(shards int, events uint64) EngineRun {
	return EngineRun{
		Bench: "cg", Class: "S", NP: 64, Queue: "calendar", Shards: shards,
		Events: events, Fingerprint: "aaaa", SimSeconds: 0.01, Verified: true,
		WallPerSimSec: 100,
	}
}

// TestReportContract runs the one gate contract over all three row types:
// exact simulated matching, wall within tolerance, no silent admission of
// an unvetted row, and piecemeal regeneration by merge.
func TestReportContract(t *testing.T) {
	t.Run("engine", func(t *testing.T) {
		testContract(t, rowCase[EngineRun]{
			base:    engRun(1, 1000),
			other:   engRun(4, 1000), // a sharded row nothing has vetted
			broken:  engRun(1, 1001),
			mention: []string{"events", "1001", "baseline 1000"},
			scaled:  func(r EngineRun, f float64) EngineRun { r.WallPerSimSec *= f; return r },
			tol:     0.15,
		})
	})
	t.Run("rails", func(t *testing.T) {
		curve := func(rails int, mbps float64) RailsRun {
			return RailsRun{Rails: rails, Policy: "round-robin", WallSeconds: 1,
				Points: []RailsPoint{{Size: 4096, MBps: 500}, {Size: 16384, MBps: mbps}}}
		}
		testContract(t, rowCase[RailsRun]{
			base:    curve(2, 700),
			other:   curve(8, 900),
			broken:  curve(2, 699),
			mention: []string{"size=16384", "699 MB/s", "baseline", "700 MB/s"},
			scaled:  func(r RailsRun, f float64) RailsRun { r.WallSeconds *= f; return r },
			tol:     0.5,
		})
	})
	t.Run("coll", func(t *testing.T) {
		curve := func(alg string, us float64) CollRun {
			return CollRun{Coll: "allreduce", Alg: alg, Net: "flat", NP: 16, CPN: 1, WallSeconds: 0.1,
				Points: []CollPoint{{Size: 256, Us: 20}, {Size: 1024, Us: us}}}
		}
		testContract(t, rowCase[CollRun]{
			base:    curve("ring", 31.5),
			other:   curve("bruck", 25),
			broken:  curve("ring", 32),
			mention: []string{"size=1024", "32 µs", "baseline", "31.5 µs"},
			scaled:  func(r CollRun, f float64) CollRun { r.WallSeconds *= f; return r },
			tol:     1.0,
		})
	})
}

// TestEngineLegacyRowAliasesSerial: rows written before the sharded engine
// carry no shards field and must keep gating shards=1 measurements.
func TestEngineLegacyRowAliasesSerial(t *testing.T) {
	cur := NewReport[EngineRun]()
	cur.Runs = []EngineRun{engRun(1, 1000)}
	base := NewReport[EngineRun]()
	base.Runs = []EngineRun{engRun(0, 1000)}
	if errs := cur.compare(base, 0.15); len(errs) != 0 {
		t.Errorf("shards=1 row should match a legacy pre-shard baseline row: %v", errs)
	}
}

// TestCommittedReportsRoundTrip: reading a committed baseline and writing
// it back reproduces the file byte for byte, so regenerating one row with
// -merge touches only that row — and a change to a row type that would
// silently rewrite a baseline fails here first.
func TestCommittedReportsRoundTrip(t *testing.T) {
	t.Run("engine", func(t *testing.T) { roundTrip[EngineRun](t, "BENCH_engine.json") })
	t.Run("rails", func(t *testing.T) { roundTrip[RailsRun](t, "BENCH_rails.json") })
	t.Run("coll", func(t *testing.T) { roundTrip[CollRun](t, "BENCH_coll.json") })
}

func roundTrip[R row[R]](t *testing.T, name string) {
	path := filepath.Join("..", "..", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := readReport[R](path)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), name)
	if err := rep.write(out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s does not survive read → write (%d bytes in, %d out)", name, len(want), len(got))
	}
}
