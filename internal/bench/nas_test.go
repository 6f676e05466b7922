package bench

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/nas"
)

// TestNASFigureSmoke: the Figure 16/17 builder at class S gives each design
// one point per kernel, labelled in nas.Names() order and sized with the
// rank count the kernel ran at (SP and BT at 4 of 8), and FormatFigure
// prints the kernels as the rows.
func TestNASFigureSmoke(t *testing.T) {
	f := nasFigure("smoke", nas.ClassS, 8)
	if len(f.Series) != 3 {
		t.Fatalf("%d series, want one per design", len(f.Series))
	}
	for _, s := range f.Series {
		var labels []string
		for _, p := range s.Points {
			labels = append(labels, p.Label)
			ranks := 8
			if nas.SquareOnly(p.Label) {
				ranks = 4
			}
			if p.Size != ranks || p.Value <= 0 {
				t.Errorf("%s: %v, want %d ranks and a positive runtime", s.Name, p, ranks)
			}
		}
		if !reflect.DeepEqual(labels, nas.Names()) {
			t.Errorf("%s: rows %v, want %v", s.Name, labels, nas.Names())
		}
	}
	out := FormatFigure(f)
	for _, row := range append([]string{"benchmark"}, nas.Names()...) {
		if !strings.Contains(out, "\n  "+row+" ") {
			t.Errorf("no %q row in\n%s", row, out)
		}
	}
}

// TestNASSMPSmoke: the SMP sweep gives one series per kernel, in
// nas.Names() order, with one point per layout.
func TestNASSMPSmoke(t *testing.T) {
	ppns := []int{1, 2, 4}
	f := nasSMP(nas.ClassS, 4, ppns)
	var names []string
	for _, s := range f.Series {
		names = append(names, s.Name)
		if len(s.Points) != len(ppns) {
			t.Fatalf("%s: %d points, want %d", s.Name, len(s.Points), len(ppns))
		}
		for i, p := range s.Points {
			if p.Size != ppns[i] || p.Value <= 0 {
				t.Errorf("%s: point %d is %v, want %d cores per node and a positive runtime", s.Name, i, p, ppns[i])
			}
		}
	}
	if !reflect.DeepEqual(names, nas.Names()) {
		t.Errorf("series %v, want %v", names, nas.Names())
	}
}
