// The one BENCH_*.json report type (DESIGN.md §12). Every committed
// baseline is a Report over one of two row types: BENCH_engine.json holds
// EngineRun rows, and the curve baseline BENCH_figures.json holds one
// Curve per series of the figures mpich2ib-bench printed. Both share one
// contract: simulated results are deterministic and compared exactly, a
// row's harness wall clock, if it carries one, is machine-dependent and
// compared within a tolerance, and a measured row the baseline does not
// hold fails the gate.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
)

// row is what a row type declares to be gated.
type row[R any] interface {
	// schema tags the document that holds rows of this type.
	schema() string
	// key identifies a row for baseline matching.
	key() string
	// scope names the rows measured together: a run that measured one row
	// of a scope must have measured every baseline row of it.
	scope() string
	// diff compares the exact (simulated) fields with the baseline row's and
	// returns one Delta per field that differs.
	diff(base R) []Delta
	// wall is the one toleranced harness figure, and what it measures; a
	// row type without one returns what == "".
	wall() (v float64, what string)
}

// Report is a BENCH_*.json document.
type Report[R row[R]] struct {
	Schema string `json:"schema"`
	Go     string `json:"go"`
	Runs   []R    `json:"runs"`

	// Whole marks a run of everything the command measures (mpich2ib-bench
	// -fig all): the gate then requires every baseline row, not only those
	// of the scopes it measured.
	Whole bool `json:"-"`
}

// NewReport starts an empty report stamped with the toolchain.
func NewReport[R row[R]]() *Report[R] {
	var r R
	return &Report[R]{Schema: r.schema(), Go: runtime.Version()}
}

// hasWall reports whether R's rows carry a toleranced wall figure.
func hasWall[R row[R]]() bool {
	var r R
	_, what := r.wall()
	return what != ""
}

// encode renders the report as indented JSON, newline-terminated so the
// committed baseline diffs cleanly. A report whose rows share a key cannot
// be gated, so it is refused.
func (rep *Report[R]) encode() ([]byte, error) {
	if err := rep.checkKeys(); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	return append(b, '\n'), err
}

func (rep *Report[R]) write(path string) error {
	b, err := rep.encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// readReport loads a report from a file.
func readReport[R row[R]](path string) (*Report[R], error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep, err := decodeReport[R](b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// decodeReport parses a report document and checks its schema tag and that
// no two rows share a key.
func decodeReport[R row[R]](b []byte) (*Report[R], error) {
	rep := &Report[R]{}
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, err
	}
	var r R
	if rep.Schema != r.schema() {
		return nil, fmt.Errorf("schema %q, want %q", rep.Schema, r.schema())
	}
	return rep, rep.checkKeys()
}

func (rep *Report[R]) checkKeys() error {
	seen := make(map[string]bool, len(rep.Runs))
	for _, r := range rep.Runs {
		if seen[r.key()] {
			return fmt.Errorf("two rows under key %s", r.key())
		}
		seen[r.key()] = true
	}
	return nil
}

// Merge overlays the rows of cur onto base by key: rows sharing a key are
// replaced by cur's, new keys append in cur's order, and base rows cur
// does not hold survive in place. This is how a committed baseline is
// regenerated piecemeal (-merge): the np=4096 engine row needs a
// multi-gigabyte heap, so re-measuring the cheap rows must not force
// re-measuring it (and vice versa).
func Merge[R any](cur, base []R, key func(R) string) []R {
	var merged []R
	// Walked with base as the new file, a base row cur holds is Unchanged
	// (its Base is cur's row), and cur's new keys follow as Dropped.
	for _, e := range Classify(base, cur, key, func(R, R) []Delta { return nil }) {
		if e.Class == Unchanged {
			e.Row = e.Base
		}
		merged = append(merged, e.Row)
	}
	return merged
}

// Class is how a row of a regenerated file stands to the file it replaces.
type Class int

const (
	Unchanged Class = iota // every exact field equal
	Moved                  // some exact field differs
	Added                  // no old row under its key
	Dropped                // an old row the new file lacks
)

func (c Class) String() string { return [...]string{"unchanged", "moved", "added", "dropped"}[c] }

// Delta is one exact field of a row that differs from the row it is
// compared with.
type Delta struct {
	Field string // the field's name, as the census counts it
	Line  string // the field and both values, as the gate prints them
	Host  bool   // a count of the harness's own work, not a simulated result
}

// Deltas prints as its lines, each on a new indented line.
type Deltas []Delta

func (ds Deltas) String() (s string) {
	for _, d := range ds {
		s += "\n  " + d.Line
	}
	return s
}

// Entry is one classified row.
type Entry[R any] struct {
	Key    string
	Class  Class
	Row    R      // the new row; for Dropped, the old one
	Base   R      // the old row of an Unchanged or Moved row
	Deltas Deltas // the fields a Moved row moved
}

// Classify walks the rows of a new version of a keyed file against the
// old one: each row of cur, in order, is Unchanged, Moved or Added, and
// then each row of base whose key cur lacks is Dropped. It is the one walk
// under the gate (Report.compare) and the census every writer prints
// (WriteCensus).
func Classify[R any](cur, base []R, key func(R) string, diff func(cur, base R) []Delta) []Entry[R] {
	old := make(map[string]R, len(base))
	for _, r := range base {
		old[key(r)] = r
	}
	seen := make(map[string]bool, len(cur))
	var out []Entry[R]
	for _, r := range cur {
		e := Entry[R]{Key: key(r), Class: Added, Row: r}
		seen[e.Key] = true
		if b, ok := old[e.Key]; ok {
			e.Class, e.Base, e.Deltas = Unchanged, b, diff(r, b)
			if len(e.Deltas) > 0 {
				e.Class = Moved
			}
		}
		out = append(out, e)
	}
	for _, r := range base {
		if k := key(r); !seen[k] {
			out = append(out, Entry[R]{Key: k, Class: Dropped, Row: r})
		}
	}
	return out
}

// WriteCensus prints what rewriting file changed: per group of rows, in
// the order groups first appear, the rows unchanged, moved, added and
// dropped, each field the moved rows moved with the number of rows it
// moved in, and under it every row that is not unchanged, by key and
// moved fields; then the four counts over the whole file.
func WriteCensus[R any](w io.Writer, file string, entries []Entry[R], group func(R) string) {
	type tally struct {
		n      [4]int
		fields []string // in the order they first moved
		moved  map[string]int
		rows   []string
	}
	var order []string
	var all [4]int
	groups := map[string]*tally{}
	for _, e := range entries {
		g := group(e.Row)
		t := groups[g]
		if t == nil {
			t = &tally{moved: map[string]int{}}
			groups[g], order = t, append(order, g)
		}
		t.n[e.Class]++
		all[e.Class]++
		row := e.Class.String() + " " + e.Key
		for _, d := range e.Deltas {
			if t.moved[d.Field]++; t.moved[d.Field] == 1 {
				t.fields = append(t.fields, d.Field)
			}
			row += " " + d.Field
		}
		if e.Class != Unchanged {
			t.rows = append(t.rows, row)
		}
	}
	fmt.Fprintf(w, "census of %s against the file it replaced:\n", file)
	for _, g := range order {
		t := groups[g]
		fmt.Fprintf(w, "  %-28s %d unchanged, %d moved, %d added, %d dropped", g, t.n[0], t.n[1], t.n[2], t.n[3])
		for _, f := range t.fields {
			fmt.Fprintf(w, " %s×%d", f, t.moved[f])
		}
		fmt.Fprintln(w)
		for _, r := range t.rows {
			fmt.Fprintln(w, "    "+r)
		}
	}
	fmt.Fprintf(w, "  %-28s %d unchanged, %d moved, %d added, %d dropped\n", "all", all[0], all[1], all[2], all[3])
}

// compare checks rep against a committed baseline: for every row rep
// measured, the simulated fields must match the baseline row exactly (a
// mismatch means the simulation changed, which is never a mere performance
// regression) and a wall figure, where the row carries one, may not regress
// by more than tol (0.15 = 15%). Getting faster is not an error. Every
// measured row MUST exist in the baseline, once: a combination nothing has
// vetted is a gate failure, reported with the full measured row so the
// maintainer can regenerate the baseline deliberately, and a row measured
// twice (a series printed twice) fails alone. A baseline row rep did not
// measure fails when rep measured its scope (a figure that dropped a
// series) or the whole matrix (a figure -fig all no longer prints); other
// ones are skipped, since the CI smokes compare a subset of the committed
// engine matrix. Returns one error per violation.
func (rep *Report[R]) compare(baseline *Report[R], tol float64) []error {
	if err := rep.checkKeys(); err != nil {
		return []error{err}
	}
	scopes := make(map[string]bool)
	for _, r := range rep.Runs {
		scopes[r.scope()] = true
	}
	var errs []error
	matched := 0
	for _, e := range Classify(rep.Runs, baseline.Runs, R.key, R.diff) {
		switch e.Class {
		case Added:
			row, _ := json.Marshal(e.Row) // plain data: cannot fail
			errs = append(errs, fmt.Errorf(
				"%s: row missing from baseline — measured %s; regenerate the baseline with the measuring command's -out flag to admit it",
				e.Key, row))
		case Dropped:
			if rep.Whole || scopes[e.Row.scope()] {
				errs = append(errs, fmt.Errorf(
					"%s: baseline row not measured — the run dropped it; regenerate the baseline with -out if that is deliberate",
					e.Key))
			}
		default:
			matched++
			var sim, host Deltas
			for _, d := range e.Deltas {
				if d.Host {
					host = append(host, d)
				} else {
					sim = append(sim, d)
				}
			}
			if len(sim) > 0 {
				errs = append(errs, fmt.Errorf("%s: simulated results diverge from baseline:%v", e.Key, sim))
			}
			if len(host) > 0 {
				errs = append(errs, fmt.Errorf("%s: host-side counts diverge from baseline:%v", e.Key, host))
			}
			cw, what := e.Row.wall()
			if bw, _ := e.Base.wall(); bw > 0 && cw > bw*(1+tol) {
				errs = append(errs, fmt.Errorf("%s: %s regressed %.1f%% (%.4g vs baseline %.4g, tolerance %.0f%%)",
					e.Key, what, 100*(cw/bw-1), cw, bw, 100*tol))
			}
		}
	}
	if matched == 0 && len(rep.Runs) > 0 {
		errs = append(errs, fmt.Errorf("no measured row matches any baseline row"))
	}
	return errs
}

// Finish is the tail of every command that produces a report: write it to
// out (with mergeOut, over the rows of the report already there) and print
// the census of what that changed in the file it replaced, then gate
// it against the baseline at compareTo within tol; an empty path skips its
// step. It prints what it did and returns the exit code: 0, 1 for a gate
// failure, 2 for a file that cannot be read or written.
func (rep *Report[R]) Finish(out string, mergeOut bool, compareTo string, tol float64) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if out != "" {
		prev, err := readReport[R](out)
		if err != nil && mergeOut && !os.IsNotExist(err) {
			return fail(err)
		}
		final := rep
		if mergeOut && prev != nil {
			final = &Report[R]{Schema: rep.Schema, Go: rep.Go, Runs: Merge(rep.Runs, prev.Runs, R.key)}
		}
		if err := final.write(out); err != nil {
			return fail(err)
		}
		fmt.Printf("wrote %s\n", out)
		if prev != nil {
			WriteCensus(os.Stdout, out, Classify(final.Runs, prev.Runs, R.key, R.diff), R.scope)
		}
	}
	if compareTo != "" {
		base, err := readReport[R](compareTo)
		if err != nil {
			return fail(err)
		}
		if errs := rep.compare(base, tol); len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintf(os.Stderr, "FAIL: %v\n", e)
			}
			return 1
		}
		if hasWall[R]() {
			fmt.Printf("within tolerance of %s (%.0f%%)\n", compareTo, 100*tol)
		} else {
			fmt.Printf("matches %s\n", compareTo)
		}
	}
	return 0
}
