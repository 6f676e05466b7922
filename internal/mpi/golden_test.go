package mpi_test

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
)

var updateGolden = flag.Bool("update", false, "rewrite this build's rows of the golden of the test being run and print the census (DESIGN.md §16)")

func goldenKey(row string) string {
	key, _, _ := strings.Cut(row, ": ")
	return key
}

// goldenField is one field of a row; a bracketed list holds spaces.
var goldenField = regexp.MustCompile(`(\S+)=(\[[^]]*\]|\S+)`)

// goldenFields maps a row's field names to their values.
func goldenFields(row string) map[string]string {
	vals := map[string]string{}
	for _, m := range goldenField.FindAllStringSubmatch(row, -1) {
		vals[m[1]] = m[2]
	}
	return vals
}

// goldenDiff names every field whose value differs or that one row lacks.
func goldenDiff(cur, base string) (ds []bench.Delta) {
	got, want := goldenFields(cur), goldenFields(base)
	for _, m := range goldenField.FindAllStringSubmatch(cur+" "+base, -1) {
		if n := m[1]; got[n] != want[n] {
			ds = append(ds, bench.Delta{Field: n, Line: fmt.Sprintf("%s=%s, golden %s", n, got[n], want[n])})
			got[n], want[n] = "", "" // named once
		}
	}
	return ds
}

// variantOf is a row's census group: its key with the layout as "*".
func variantOf(row string) string {
	key := goldenKey(row)
	layout, _, _ := strings.Cut(key[strings.LastIndex(key, " ")+1:], "/")
	return strings.Replace(key, layout, "*", 1)
}

// golden is a file of rows "<key>: <field>=<value> …" (DESIGN.md §16 "Two
// goldens"); a build produces the rows whose key starts with prefix.
type golden struct{ path, prefix string }

// check holds rows to the file's rows this build produces, key by key,
// and returns the rows the file held. With -update it rewrites this
// build's rows instead — replaced in place, new keys after (bench.Merge),
// rows no longer produced dropped — and prints the census.
func (g golden) check(t *testing.T, rows []string) []string {
	t.Helper()
	raw, err := os.ReadFile(g.path)
	if err != nil {
		t.Fatal(err)
	}
	base := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if !*updateGolden {
		for _, e := range bench.Classify(rows, base, goldenKey, goldenDiff) {
			if e.Class != bench.Unchanged && strings.HasPrefix(e.Key, g.prefix) {
				t.Errorf("%s: %v against %s%v", e.Key, e.Class, g.path, e.Deltas)
			}
		}
		return base
	}
	kept := slices.DeleteFunc(slices.Clone(base), func(r string) bool {
		return strings.HasPrefix(r, g.prefix) && !slices.ContainsFunc(rows, func(p string) bool { return goldenKey(p) == goldenKey(r) })
	})
	out := bench.Merge(rows, kept, goldenKey)
	if err := os.WriteFile(g.path, []byte(strings.Join(out, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bench.WriteCensus(os.Stdout, g.path, bench.Classify(out, base, goldenKey, goldenDiff), variantOf)
	return base
}
