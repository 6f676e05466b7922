package bench

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// root is the repository root as seen from this package's directory.
var root = filepath.Join("..", "..")

// docFiles are the documents whose backticked Go names and repository
// paths must name things that exist.
var docFiles = []string{"DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"}

func readRepoFile(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// figFlag matches a figure id as the docs write it after -fig.
var figFlag = regexp.MustCompile("-fig[ =]([a-z0-9][a-z0-9./=-]*[a-z0-9])")

// sec4Rows maps each figure id of DESIGN.md §4's index tables to the
// cells of its row.
func sec4Rows(t *testing.T) map[string][]string {
	_, sec4, _ := strings.Cut(readRepoFile(t, "DESIGN.md"), "\n## §4 ")
	sec4, _, _ = strings.Cut(sec4, "\n## ")
	rows := map[string][]string{}
	for _, line := range strings.Split(sec4, "\n") {
		if strings.HasPrefix(line, "| `") {
			cells := strings.Split(strings.Trim(line, "|"), "|")
			rows[strings.Trim(cells[0], " `")] = cells
		}
	}
	return rows
}

// TestDocsNameFigureIDs keeps the docs and the figure table in step: every
// `-fig <id>` the docs write is an id -fig accepts, and DESIGN.md §4's
// index tables give every id a row.
func TestDocsNameFigureIDs(t *testing.T) {
	ids := FigureIDs()
	for _, name := range docFiles {
		for _, m := range figFlag.FindAllStringSubmatch(readRepoFile(t, name), -1) {
			if id := m[1]; id != "all" && !slices.Contains(ids, id) {
				t.Errorf("%s names -fig %s, which is not a figure id", name, id)
			}
		}
	}
	rows := sec4Rows(t)
	for _, id := range ids {
		if rows[id] == nil {
			t.Errorf("DESIGN.md §4 has no index row for figure %s", id)
		}
	}
}

// cellNumber matches a number in a table cell; a digit glued to a word
// ("CH3") is not one.
var cellNumber = regexp.MustCompile(`(?:^|[^\w.])(\d+(?:\.\d+)?)`)

// modelNumber matches a number as a "model prints" cell writes it: like
// cellNumber, with thousands grouped by spaces ("1 168").
var modelNumber = regexp.MustCompile(`(?:^|[^\w.])(\d{1,3}(?: \d{3})+\b|\d+(?:\.\d+)?)`)

// sizePhrase matches a message size in a cell ("at 64 KB", "1 MB"): it
// names the point quoted, it does not quote one.
var sizePhrase = regexp.MustCompile(`(?:^|[^\d.])\d+ (?:B|KB|MB)\b(?:[^/]|$)`)

// modelNumbers returns the numbers a "model prints" cell quotes, sizes left
// out, as the cell writes them.
func modelNumbers(cell string) []string {
	var nums []string
	for _, m := range modelNumber.FindAllStringSubmatch(sizePhrase.ReplaceAllString(cell, " "), -1) {
		nums = append(nums, m[1])
	}
	return nums
}

// modelQuotes is what DESIGN §4's main table quotes beyond the claims, by
// figure id: the numbers of a row's "model prints" cell after its claims'
// points, in cell order and written as the cell writes them. A Figure
// 16/17 row quotes the two geometric-mean ratios and one kernel's runtime
// per design; the nas-smp row a kernel's runtime at 1 and 8 cores per node
// and, for two kernels, their ratio.
func modelQuotes(t *testing.T, runs []Curve) map[string][]string {
	t.Helper()
	curve := func(fig, series string) []Point {
		i := slices.IndexFunc(runs, func(c Curve) bool { return c.Figure == fig && c.Series == series })
		if i < 0 {
			t.Fatalf("BENCH_figures.json has no %s %q", fig, series)
		}
		return runs[i].Points
	}
	point := func(fig, series string, match func(Point) bool) float64 {
		pts := curve(fig, series)
		i := slices.IndexFunc(pts, match)
		if i < 0 {
			t.Fatalf("BENCH_figures.json %s %q has no quoted point", fig, series)
		}
		return pts[i].Value
	}
	at := func(fig, series string, size int) string {
		return fmt.Sprintf("%.1f", point(fig, series, func(p Point) bool { return p.Size == size }))
	}
	ms := func(v float64) string {
		d := strconv.Itoa(int(math.Round(v)))
		for i := len(d) - 3; i > 0; i -= 3 {
			d = d[:i] + " " + d[i:]
		}
		return d
	}
	nas := func(fig, kernel string) []string {
		q := []string{
			fmt.Sprintf("%.3f", geoMeanRatio(curve(fig, "Pipelining"), curve(fig, "RDMA Chan"))),
			fmt.Sprintf("%.3f", geoMeanRatio(curve(fig, "CH3"), curve(fig, "RDMA Chan"))),
		}
		for _, s := range []string{"Pipelining", "RDMA Chan", "CH3"} {
			q = append(q, ms(point(fig, s, func(p Point) bool { return p.Label == kernel })))
		}
		return q
	}
	smp := func(kernel string, ratio bool) []string {
		one, eight := point("nas-smp", kernel, func(p Point) bool { return p.Size == 1 }),
			point("nas-smp", kernel, func(p Point) bool { return p.Size == 8 })
		if !ratio {
			return []string{ms(one), ms(eight)}
		}
		return []string{ms(one), ms(eight), fmt.Sprintf("%.2f", eight/one)}
	}
	return map[string][]string{
		"fig3-lat": {at("fig3-lat", "intra-node shm", 4), at("fig3-lat", "inter-node IB", 4)},
		"fig3-bw":  {at("fig3-bw", "intra-node shm", 1<<20), at("fig3-bw", "inter-node IB", 1<<20)},
		"fig7":     {at("fig7", "basic", 16<<10), at("fig7", "piggyback", 16<<10)},
		"fig8":     {at("fig8", "basic", 64<<10), at("fig8", "pipeline", 64<<10)},
		"fig11":    {at("fig11", "pipeline", 1<<20)},
		"fig14":    {at("fig14", "CH3 ZC", 64<<10), at("fig14", "RDMA Chan ZC", 64<<10)},
		"fig15":    {at("fig15", "RDMA Write", 64<<10), at("fig15", "RDMA Read", 64<<10)},
		"fig16":    nas("fig16", "cg"),
		"fig17":    nas("fig17", "ft"),
		"nas-smp":  append(append(smp("is", true), smp("ft", true)...), smp("lu", false)...),
	}
}

// TestDocsQuoteClaims keeps DESIGN §4's main table true: in the index row
// of a claimed figure, the k-th number of the "paper" cell is the figure's
// k-th claim's paper value; in every row the claims table or modelQuotes
// names, the numbers of the "model prints" cell are exactly the claims'
// BENCH_figures.json points to one decimal, then the row's modelQuotes.
func TestDocsQuoteClaims(t *testing.T) {
	rep, err := readReport[Curve](filepath.Join(root, "BENCH_figures.json"))
	if err != nil {
		t.Fatal(err)
	}
	rows, want := sec4Rows(t), map[string][]string{}
	for i, v := range claimPoints(t, rep.Runs) {
		c := claims[i]
		k := len(want[c.fig])
		want[c.fig] = append(want[c.fig], fmt.Sprintf("%.1f", v))
		if row := rows[c.fig]; len(row) == 4 {
			nums := cellNumber.FindAllStringSubmatch(row[2], -1)
			if p := strconv.FormatFloat(c.paper, 'f', -1, 64); len(nums) <= k || nums[k][1] != p {
				t.Errorf("DESIGN §4 %s, paper cell %q: number %d should be %s (%s at %s)",
					c.fig, strings.TrimSpace(row[2]), k+1, p, c.series, fmtSize(c.size))
			}
		}
	}
	for fig, q := range modelQuotes(t, rep.Runs) {
		want[fig] = append(want[fig], q...)
	}
	figs := make([]string, 0, len(want))
	for fig := range want {
		figs = append(figs, fig)
	}
	slices.Sort(figs)
	for _, fig := range figs {
		row := rows[fig]
		if len(row) != 4 {
			t.Errorf("DESIGN §4 has no index row with paper and model cells for quoted figure %s", fig)
			continue
		}
		if got := modelNumbers(row[3]); !slices.Equal(got, want[fig]) {
			t.Errorf("DESIGN §4 %s, model cell %q: numbers %q, BENCH_figures.json says %q",
				fig, strings.TrimSpace(row[3]), got, want[fig])
		}
	}
}

// TestDocsCountBaseline keeps DESIGN §4's census of BENCH_figures.json
// true: the figures, series and points it states are the file's.
func TestDocsCountBaseline(t *testing.T) {
	rep, err := readReport[Curve](filepath.Join(root, "BENCH_figures.json"))
	if err != nil {
		t.Fatal(err)
	}
	figs, points := map[string]bool{}, 0
	for _, c := range rep.Runs {
		figs[c.Figure] = true
		points += len(c.Points)
	}
	want := fmt.Sprintf("%d figures, %d series and %d points", len(figs), len(rep.Runs), points)
	if design := strings.Join(strings.Fields(readRepoFile(t, "DESIGN.md")), " "); !strings.Contains(design, want) {
		t.Errorf("DESIGN.md does not say %q, the count of BENCH_figures.json", want)
	}
}

// linePointer matches a `path:N` (or `path:N,M`) pointer into a file.
var linePointer = regexp.MustCompile(`([\w./-]+\.(?:go|md|sh|yml|json|txt)):(\d+(?:,\d+)*)`)

// TestDocsPointToExistingLines keeps line pointers from going stale past
// a file's end: every `path:N` in the docs and ROADMAP names a file, from
// the repository root or from internal/ or benchmark/, with at least N
// lines.
func TestDocsPointToExistingLines(t *testing.T) {
	found := 0
	for _, doc := range append(docFiles, "ROADMAP.md") {
		for _, m := range linePointer.FindAllStringSubmatch(readRepoFile(t, doc), -1) {
			found++
			var text []byte
			for _, dir := range []string{"", "internal", "benchmark"} {
				if b, err := os.ReadFile(filepath.Join(root, dir, m[1])); err == nil {
					text = b
					break
				}
			}
			if text == nil {
				t.Errorf("%s: %s:%s names no file", doc, m[1], m[2])
				continue
			}
			lines := strings.Count(strings.TrimSuffix(string(text), "\n"), "\n") + 1
			for _, n := range strings.Split(m[2], ",") {
				if k, _ := strconv.Atoi(n); k > lines {
					t.Errorf("%s: %s:%s points past the file's %d lines", doc, m[1], m[2], lines)
				}
			}
		}
	}
	if found == 0 {
		t.Error("found no line pointers; the scan is broken")
	}
}

// codeSpan matches one backticked span.
var codeSpan = regexp.MustCompile("`([^`]+)`")

// codeSpans returns the code of a markdown file: every line of a fenced
// block, and the text of every backticked span outside them.
func codeSpans(doc string) []string {
	var spans, prose []string
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case fenced:
			spans = append(spans, line)
		default:
			prose = append(prose, line)
		}
	}
	for _, m := range codeSpan.FindAllStringSubmatch(strings.Join(prose, "\n"), -1) {
		spans = append(spans, m[1])
	}
	return spans
}

// typeRef names a type of an internal package.
type typeRef struct{ pkg, name string }

// typeDecl is one declared type: the fields and methods it declares
// itself, and the types it embeds (struct fields or interface elements).
type typeDecl struct {
	members map[string]bool
	embeds  []typeRef
}

// declIndex is what the non-test files of the internal packages declare.
type declIndex struct {
	top   map[string]map[string]bool // package → package-level names
	types map[typeRef]*typeDecl
}

// indexInternal parses every non-test Go file under internal/, build tags
// ignored, so a name declared under either side of a tag counts.
func indexInternal(t *testing.T) *declIndex {
	t.Helper()
	idx := &declIndex{top: map[string]map[string]bool{}, types: map[typeRef]*typeDecl{}}
	files, err := filepath.Glob(filepath.Join(root, "internal", "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		idx.add(filepath.Base(filepath.Dir(name)), f)
	}
	return idx
}

// add records what file f of package pkg declares.
func (idx *declIndex) add(pkg string, f *ast.File) {
	if idx.top[pkg] == nil {
		idx.top[pkg] = map[string]bool{}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				idx.top[pkg][d.Name.Name] = true
			} else if r, ok := typeOf(pkg, f, d.Recv.List[0].Type); ok {
				idx.typ(r).members[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						idx.top[pkg][n.Name] = true
					}
				case *ast.TypeSpec:
					idx.top[pkg][s.Name.Name] = true
					idx.addFields(pkg, f, idx.typ(typeRef{pkg, s.Name.Name}), s.Type)
				}
			}
		}
	}
}

// addFields records the fields and interface methods of type expression x
// as members of td, and its embedded types as td's embeds.
func (idx *declIndex) addFields(pkg string, f *ast.File, td *typeDecl, x ast.Expr) {
	var fields []*ast.Field
	switch tt := x.(type) {
	case *ast.StructType:
		fields = tt.Fields.List
	case *ast.InterfaceType:
		fields = tt.Methods.List
	}
	for _, fl := range fields {
		for _, n := range fl.Names {
			td.members[n.Name] = true
		}
		if len(fl.Names) > 0 {
			continue
		}
		if r, ok := typeOf(pkg, f, fl.Type); ok {
			td.members[r.name] = true // an embedded field is named by its type
			td.embeds = append(td.embeds, r)
		}
	}
}

// typ returns the record of type r, creating it on first use.
func (idx *declIndex) typ(r typeRef) *typeDecl {
	if idx.types[r] == nil {
		idx.types[r] = &typeDecl{members: map[string]bool{}}
	}
	return idx.types[r]
}

// typeOf resolves a type expression of file f in package pkg to the
// internal type it names, looking through pointers and type arguments.
func typeOf(pkg string, f *ast.File, x ast.Expr) (typeRef, bool) {
	switch e := x.(type) {
	case *ast.StarExpr:
		return typeOf(pkg, f, e.X)
	case *ast.IndexExpr:
		return typeOf(pkg, f, e.X)
	case *ast.IndexListExpr:
		return typeOf(pkg, f, e.X)
	case *ast.Ident:
		return typeRef{pkg, e.Name}, true
	case *ast.SelectorExpr:
		id, ok := e.X.(*ast.Ident)
		if !ok {
			return typeRef{}, false
		}
		for _, im := range f.Imports {
			path := strings.Trim(im.Path.Value, `"`)
			local := filepath.Base(path)
			if im.Name != nil {
				local = im.Name.Name
			}
			if local == id.Name && strings.HasPrefix(path, "repro/internal/") {
				return typeRef{filepath.Base(path), e.Sel.Name}, true
			}
		}
	}
	return typeRef{}, false
}

// has reports whether type r has member name, declared on r itself or
// promoted through its embedded types.
func (idx *declIndex) has(r typeRef, name string, seen map[typeRef]bool) bool {
	td := idx.types[r]
	if td == nil || seen[r] {
		return false
	}
	seen[r] = true
	if td.members[name] {
		return true
	}
	for _, e := range td.embeds {
		if idx.has(e, name, seen) {
			return true
		}
	}
	return false
}

// goName matches `pkg.Name` or `pkg.Type.Member` inside a code span; a
// leading '/' or '.' (a file path, a deeper selector) is not a package.
// BENCHMARK.json's metric names (`des.events`, `ib.cpu_share`) share the
// form, so a name resolves to a declaration or to one of those metrics.
var goName = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)

// TestDocsNameDeclaredSymbols keeps the docs from naming code that is
// gone: every backticked `pkg.Name` or `pkg.Type.Member` whose pkg is an
// internal package resolves to a declaration in its non-test files, with
// methods and fields promoted through embedding, or is a benchmark metric.
func TestDocsNameDeclaredSymbols(t *testing.T) {
	idx := indexInternal(t)
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal([]byte(readRepoFile(t, "BENCHMARK.json")), &spec); err != nil {
		t.Fatal(err)
	}
	metrics := map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		metrics[m.Name] = true
	}
	for _, doc := range docFiles {
		for _, span := range codeSpans(readRepoFile(t, doc)) {
			for _, m := range goName.FindAllStringSubmatch(span, -1) {
				pkg, name, member := m[1], m[2], m[3]
				if idx.top[pkg] == nil {
					continue // not an internal package
				}
				ok, ref := idx.top[pkg][name], pkg+"."+name
				if member != "" {
					ok, ref = ok && idx.has(typeRef{pkg, name}, member, map[typeRef]bool{}), ref+"."+member
				}
				if !ok && !metrics[ref] {
					t.Errorf("%s: `%s` names %s, which internal/%s does not declare", doc, span, ref, pkg)
				}
			}
		}
	}
}

// repoPath matches a repository path inside a code span, with or without
// a leading "./".
var repoPath = regexp.MustCompile(`(?:^|[\s'"(=])(?:\./)?((?:internal|cmd|benchmark|examples|\.github|\.claude)(?:/[\w.*-]+)*/?)`)

// TestDocsNameExistingPaths keeps the docs from pointing at files or
// directories that are gone: every backticked repository path exists (a
// glob matches at least one entry; "/..." means the directory).
func TestDocsNameExistingPaths(t *testing.T) {
	for _, doc := range docFiles {
		for _, span := range codeSpans(readRepoFile(t, doc)) {
			for _, m := range repoPath.FindAllStringSubmatch(span, -1) {
				p := strings.TrimRight(m[1], "/.")
				if hits, _ := filepath.Glob(filepath.Join(root, p)); len(hits) == 0 {
					t.Errorf("%s: `%s` names %s, which does not exist", doc, span, p)
				}
			}
		}
	}
}

// citation matches a DESIGN section citation, optionally naming a heading
// (a prefix of it) in quotes, once wrapJoin has undone line wrapping.
var citation = regexp.MustCompile(`DESIGN(?:\.md)?\s+§(\d+)(?:\s+"([^"]+)")?`)

// wrapJoin matches a line break together with the indentation and comment
// marker that continue a wrapped line.
var wrapJoin = regexp.MustCompile(`[ \t]*\n\s*(?://+|#+)?[ \t]*`)

// designSections maps each DESIGN.md section number to its headings: the
// section title and every ### heading under it.
func designSections(design string) map[string][]string {
	secs := map[string][]string{}
	var cur string
	for _, line := range strings.Split(design, "\n") {
		if rest, ok := strings.CutPrefix(line, "## §"); ok {
			n, title, _ := strings.Cut(rest, " ")
			cur = n
			secs[cur] = append(secs[cur], title)
		} else if strings.HasPrefix(line, "## ") {
			cur = ""
		} else if rest, ok := strings.CutPrefix(line, "### "); ok && cur != "" {
			secs[cur] = append(secs[cur], rest)
		}
	}
	return secs
}

// TestDocsCiteExistingSections keeps citations of DESIGN.md true: every
// `DESIGN(.md) §N ["heading"]` in the Go sources, README, ROADMAP, CI and
// the verify skill names a section that exists, and a quoted heading is
// the start of a heading under that section. CHANGES.md is history and is
// not checked.
func TestDocsCiteExistingSections(t *testing.T) {
	secs := designSections(readRepoFile(t, "DESIGN.md"))
	if len(secs) != 19 {
		t.Errorf("DESIGN.md has %d numbered sections, want §1–§19", len(secs))
	}
	files := []string{"README.md", "ROADMAP.md", ".claude/skills/verify/SKILL.md"}
	ci, _ := filepath.Glob(filepath.Join(root, ".github", "workflows", "*.yml"))
	for _, p := range ci {
		rel, _ := filepath.Rel(root, p)
		files = append(files, rel)
	}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(p, ".go") {
			rel, _ := filepath.Rel(root, p)
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := 0
	for _, name := range files {
		text := wrapJoin.ReplaceAllString(readRepoFile(t, name), " ")
		for _, m := range citation.FindAllStringSubmatch(text, -1) {
			cited++
			heads, ok := secs[m[1]]
			if !ok {
				t.Errorf("%s cites DESIGN §%s, which does not exist", name, m[1])
				continue
			}
			if q := m[2]; q != "" && !slices.ContainsFunc(heads, func(h string) bool {
				return strings.HasPrefix(h, q)
			}) {
				t.Errorf("%s cites DESIGN §%s %q, which is no heading of that section", name, m[1], q)
			}
		}
	}
	if cited == 0 {
		t.Error("found no DESIGN citations; the scan is broken")
	}
}
