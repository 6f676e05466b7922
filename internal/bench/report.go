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
	"os"
	"runtime"
	"strings"
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
	// returns one line per field that differs, naming it and both values.
	diff(base R) []string
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

// merge overlays rep onto base: rows sharing a key are replaced by rep's
// measurement, new keys append in measurement order, and base rows rep did
// not re-measure survive. This is how a committed baseline is regenerated
// piecemeal — the np=4096 engine row needs a multi-gigabyte heap, so
// re-measuring the cheap rows must not force re-measuring it (and vice versa).
func (rep *Report[R]) merge(base *Report[R]) *Report[R] {
	merged := &Report[R]{Schema: rep.Schema, Go: rep.Go}
	fresh := make(map[string]R, len(rep.Runs))
	for _, r := range rep.Runs {
		fresh[r.key()] = r
	}
	for _, r := range base.Runs {
		if u, ok := fresh[r.key()]; ok {
			r = u
			delete(fresh, r.key())
		}
		merged.Runs = append(merged.Runs, r)
	}
	for _, r := range rep.Runs {
		if _, stillNew := fresh[r.key()]; stillNew {
			merged.Runs = append(merged.Runs, r)
		}
	}
	return merged
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
	base := make(map[string]R, len(baseline.Runs))
	for _, r := range baseline.Runs {
		base[r.key()] = r
	}
	var errs []error
	matched := 0
	keys, scopes := make(map[string]bool, len(rep.Runs)), make(map[string]bool)
	for _, cur := range rep.Runs {
		keys[cur.key()], scopes[cur.scope()] = true, true
		b, ok := base[cur.key()]
		if !ok {
			row, _ := json.Marshal(cur) // plain data: cannot fail
			errs = append(errs, fmt.Errorf(
				"%s: row missing from baseline — measured %s; regenerate the baseline with the measuring command's -out flag to admit it",
				cur.key(), row))
			continue
		}
		matched++
		if lines := cur.diff(b); len(lines) > 0 {
			errs = append(errs, fmt.Errorf("%s: simulated results diverge from baseline:\n  %s",
				cur.key(), strings.Join(lines, "\n  ")))
		}
		cw, what := cur.wall()
		if bw, _ := b.wall(); bw > 0 && cw > bw*(1+tol) {
			errs = append(errs, fmt.Errorf("%s: %s regressed %.1f%% (%.4g vs baseline %.4g, tolerance %.0f%%)",
				cur.key(), what, 100*(cw/bw-1), cw, bw, 100*tol))
		}
	}
	for _, r := range baseline.Runs {
		if !keys[r.key()] && (rep.Whole || scopes[r.scope()]) {
			errs = append(errs, fmt.Errorf(
				"%s: baseline row not measured — the run dropped it; regenerate the baseline with -out if that is deliberate",
				r.key()))
		}
	}
	if matched == 0 && len(rep.Runs) > 0 {
		errs = append(errs, fmt.Errorf("no measured row matches any baseline row"))
	}
	return errs
}

// Finish is the tail of every command that produces a report: write it to
// out (with mergeOut, over the rows of the report already there), then gate
// it against the baseline at compareTo within tol; an empty path skips its
// step. It prints what it did and returns the exit code: 0, 1 for a gate
// failure, 2 for a file that cannot be read or written.
func (rep *Report[R]) Finish(out string, mergeOut bool, compareTo string, tol float64) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if out != "" {
		final := rep
		if mergeOut {
			if prev, err := readReport[R](out); err == nil {
				final = rep.merge(prev)
			} else if !os.IsNotExist(err) {
				return fail(err)
			}
		}
		if err := final.write(out); err != nil {
			return fail(err)
		}
		fmt.Printf("wrote %s\n", out)
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
