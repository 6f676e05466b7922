package bench

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// figFlag matches a figure id as the docs write it after -fig.
var figFlag = regexp.MustCompile("-fig[ =]([a-z0-9][a-z0-9./=-]*[a-z0-9])")

// TestDocsNameFigureIDs keeps the docs and the figure table in step: every
// `-fig <id>` the docs write is an id -fig accepts, and DESIGN.md §4's
// index tables give every id a row.
func TestDocsNameFigureIDs(t *testing.T) {
	ids := FigureIDs()
	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	design := read("DESIGN.md")
	for _, name := range []string{"DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"} {
		for _, m := range figFlag.FindAllStringSubmatch(read(name), -1) {
			if id := m[1]; id != "all" && !slices.Contains(ids, id) {
				t.Errorf("%s names -fig %s, which is not a figure id", name, id)
			}
		}
	}

	_, sec4, _ := strings.Cut(design, "\n## §4 ")
	sec4, _, _ = strings.Cut(sec4, "\n## ")
	rows := map[string]bool{}
	for _, line := range strings.Split(sec4, "\n") {
		if rest, ok := strings.CutPrefix(line, "| `"); ok {
			id, _, _ := strings.Cut(rest, "`")
			rows[id] = true
		}
	}
	for _, id := range ids {
		if !rows[id] {
			t.Errorf("DESIGN.md §4 has no index row for figure %s", id)
		}
	}
}
