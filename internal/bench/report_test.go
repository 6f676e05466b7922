package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
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
	scaled  func(r R, f float64) R // r with its wall figure multiplied by f; nil without one
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
	type gateCase struct {
		name string
		cur  *Report[R]
		want [][]string // per expected error, the substrings it must carry
	}
	cases := []gateCase{
		{"identical passes", report(c.base), nil},
		{"missing row carries the measured row", report(c.base, c.other), [][]string{missing}},
		{"exact mismatch names the field and both values", report(c.broken),
			[][]string{append([]string{c.base.key(), "diverge"}, c.mention...)}},
		{"zero matched rows", report(c.other), [][]string{missing, {"no measured row matches"}}},
	}
	if hasWall[R]() {
		cases = append(cases,
			gateCase{"faster is not an error", report(c.scaled(c.base, 0.5)), nil},
			gateCase{"wall regression beyond tolerance", report(c.scaled(c.base, 1+2*c.tol)),
				[][]string{{c.base.key(), "regressed"}}})
	}
	for _, tc := range cases {
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

// TestReportContract runs the one gate contract over both row types: exact
// simulated matching, a wall within tolerance where the row carries one, no
// silent admission of an unvetted row, and piecemeal regeneration by merge.
// The two curve cases are shaped like a rails-bw and a coll row of
// BENCH_figures.json.
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
	curve := func(fig, series string, v float64) Curve {
		return Curve{Figure: fig, Series: series, Points: []Point{{Size: 4096, Value: 500}, {Size: 16384, Value: v}}}
	}
	t.Run("rails", func(t *testing.T) {
		testContract(t, rowCase[Curve]{
			base:    curve("rails-bw/round-robin", "rails=2", 700),
			other:   curve("rails-bw/weighted", "rails=2", 700), // a policy nothing has vetted
			broken:  curve("rails-bw/round-robin", "rails=2", 699.5),
			mention: []string{"size=16384: 699.5", "baseline size=16384: 700"},
		})
	})
	t.Run("coll", func(t *testing.T) {
		fig := "coll-allreduce/flat/np=16/cpn=1"
		testContract(t, rowCase[Curve]{
			base:    curve(fig, "allreduce/ring", 31.5),
			other:   curve("coll-allreduce/fattree-d4-u1/np=16/cpn=1", "allreduce/ring", 31.5),
			broken:  curve(fig, "allreduce/ring", 32),
			mention: []string{fig + "/allreduce/ring", "size=16384: 32", "baseline size=16384: 31.5"},
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

// TestEngineCountsGated: the harness's own deterministic counts are exact
// fields. A committed row against a copy of itself with one events_by_kind
// field edited fails the gate on that field alone, naming both values; a
// progress field is gated the same way.
func TestEngineCountsGated(t *testing.T) {
	committed, err := readReport[EngineRun](filepath.Join("..", "..", "BENCH_engine.json"))
	if err != nil {
		t.Fatal(err)
	}
	cur := NewReport[EngineRun]()
	cur.Runs = committed.Runs[:1]
	row := cur.Runs[0]
	if row.ByKind == nil || row.Progress == nil {
		t.Fatalf("committed row %s records no counts", row.key())
	}
	edited := func(edit func(r *EngineRun)) *Report[EngineRun] {
		kinds, prog := *row.ByKind, *row.Progress
		r := row
		r.ByKind, r.Progress = &kinds, &prog
		edit(&r)
		base := NewReport[EngineRun]()
		base.Runs = []EngineRun{r}
		return base
	}
	for _, tc := range []struct {
		edit func(r *EngineRun)
		want string
	}{
		{func(r *EngineRun) { r.ByKind.Switch++ },
			fmt.Sprintf("events_by_kind.switch %d, baseline %d", row.ByKind.Switch, row.ByKind.Switch+1)},
		{func(r *EngineRun) { r.Progress.Passes-- },
			fmt.Sprintf("progress.passes %d, baseline %d", row.Progress.Passes, row.Progress.Passes-1)},
	} {
		errs := cur.compare(edited(tc.edit), math.Inf(1))
		if len(errs) != 1 || !strings.Contains(errs[0].Error(), "diverge from baseline:\n  "+tc.want) ||
			strings.Count(errs[0].Error(), "\n") != 1 {
			t.Errorf("want one divergence, %q alone; got %v", tc.want, errs)
		}
	}
	if errs := cur.compare(edited(func(*EngineRun) {}), math.Inf(1)); len(errs) != 0 {
		t.Errorf("an unedited copy fails the gate: %v", errs)
	}
}

// TestCommittedReportsRoundTrip: reading a committed baseline and writing
// it back reproduces the file byte for byte, so regenerating one row with
// -merge touches only that row — and a change to a row type that would
// silently rewrite a baseline fails here first.
func TestCommittedReportsRoundTrip(t *testing.T) {
	t.Run("engine", func(t *testing.T) { roundTrip[EngineRun](t, "BENCH_engine.json") })
	t.Run("figures", func(t *testing.T) { roundTrip[Curve](t, "BENCH_figures.json") })
}

// TestCurveFinishSaysMatches: a curve report has no wall, so a passing gate
// says it matches rather than quoting a tolerance.
func TestCurveFinishSaysMatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "curves.json")
	rep := Curves(Figure{ID: "f", Series: []Series{{Name: "s", Points: []Point{{Size: 4, Value: 1.5}}}}})
	if err := rep.write(path); err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	r, w, _ := os.Pipe()
	os.Stdout = w
	code := rep.Finish("", false, path, 0)
	w.Close()
	os.Stdout = stdout
	printed, _ := io.ReadAll(r)
	if code != 0 || string(printed) != "matches "+path+"\n" {
		t.Errorf("Finish = %d, printed %q", code, printed)
	}
}

// FuzzCurveReport: the report decoder never panics on arbitrary bytes, and
// every document it accepts — as curves or as engine rows — survives
// write → read and then matches itself at the gate. The seed corpus is the
// two committed baselines.
func FuzzCurveReport(f *testing.F) {
	for _, name := range []string{"BENCH_engine.json", "BENCH_figures.json"} {
		b, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRoundTrip[Curve](t, data)
		fuzzRoundTrip[EngineRun](t, data)
	})
}

func fuzzRoundTrip[R row[R]](t *testing.T, data []byte) {
	rep, err := decodeReport[R](data)
	if err != nil {
		return
	}
	b, err := rep.encode()
	if err != nil {
		t.Fatalf("accepted report does not encode: %v", err)
	}
	again, err := decodeReport[R](b)
	if err != nil {
		t.Fatalf("written report does not read back: %v\n%s", err, b)
	}
	if errs := again.compare(rep, 0); len(errs) > 0 {
		t.Fatalf("report read back does not match itself: %v", errs)
	}
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
