package cluster_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/rdmachan"
	"repro/internal/scenario"
)

// TestConfigValidate: each row is a setting that used to panic mid-run or
// silently run another setup; New must refuse it with an error naming the
// field. (The SRQ pool sizes, the shared-memory ring geometry and the
// resilient flag that completed that list are no longer settable.)
func TestConfigValidate(t *testing.T) {
	zc := func(c cluster.Config) cluster.Config {
		c.NP = 2
		if c.Transport == 0 {
			c.Transport = cluster.TransportZeroCopy
		}
		return c
	}
	cases := []struct {
		name, field string
		cfg         cluster.Config
	}{
		{"lazy chunk 8", "Chan.ChunkSize", zc(cluster.Config{ConnectMode: cluster.ConnectLazy, Chan: rdmachan.Config{ChunkSize: 8}})},
		{"eager chunk 8", "Chan.ChunkSize", zc(cluster.Config{Chan: rdmachan.Config{ChunkSize: 8}})},
		{"unknown transport", "Transport", zc(cluster.Config{Transport: 9})},
		{"unknown connect mode", "ConnectMode", zc(cluster.Config{ConnectMode: 7})},
		{"negative rails", "RailsPerNode", zc(cluster.Config{RailsPerNode: -3})},
		{"unknown rail policy", "Chan.RailPolicy", zc(cluster.Config{RailsPerNode: 2, Chan: rdmachan.Config{RailPolicy: 9}})},
		{"zero-copy design under pipeline", "Chan.Design",
			zc(cluster.Config{Transport: cluster.TransportPipeline, Chan: rdmachan.Config{Design: rdmachan.DesignZeroCopy}})},
		{"unknown forced bcast", "Tuning.Bcast", zc(cluster.Config{Tuning: &mpi.Tuning{Bcast: "bogus"}})},
	}
	for _, tc := range cases {
		c, err := cluster.New(tc.cfg)
		if err == nil {
			c.Close()
			t.Errorf("%s: New accepted it", tc.name)
			continue
		}
		if !strings.HasPrefix(err.Error(), "cluster: "+tc.field) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.field)
		}
	}
}

// namesField matches an error that starts with the field path it
// rejects, and captures the path.
var namesField = regexp.MustCompile(`^cluster: ([A-Z]\w*(?:\.\w+(?:\[\d+\])?)*)[ :]`)

// exchange builds cfg and runs a checksum ring (512 B and 40 KiB, so every
// eager and rendezvous path a layout has is taken) and an Allreduce. It
// returns New's error, or whether every rank verified.
func exchange(cfg cluster.Config) (bool, error) {
	c, err := cluster.New(cfg)
	if err != nil {
		return false, err
	}
	defer c.Close()
	good := make([]bool, cfg.NP)
	c.Launch(func(comm *mpi.Comm) {
		np, me := comm.Size(), comm.Rank()
		prev, ok := (me+np-1)%np, true
		for _, size := range []int{512, 40 << 10} {
			sbuf, sb := comm.Alloc(size)
			rbuf, rb := comm.Alloc(size)
			for i := range sb {
				sb[i] = byte(me*31 + i)
			}
			comm.Sendrecv(sbuf, (me+1)%np, 1, rbuf, prev, 1)
			for i := range rb {
				ok = ok && rb[i] == byte(prev*31+i)
			}
		}
		send, sb := comm.Alloc(8)
		recv, rb := comm.Alloc(8)
		mpi.PutInt64(sb, 0, int64(me+1))
		comm.Allreduce(send, recv, mpi.Int64, mpi.Sum)
		good[me] = ok && mpi.GetInt64(rb, 0) == int64(np*(np+1)/2)
	})
	for _, g := range good {
		if !g {
			return false, nil
		}
	}
	return true, nil
}

// TestFeatureLattice walks scenario.Lattice: each cell verifies its
// traffic or gets an error from New naming a field, and none panics. It
// prints every cell, then the count of cells, verified cells and
// refusals by the field they name — the carve-out list — per transport
// and in all, which must be DESIGN §19's table (DESIGN.md §19 "The
// lattice").
func TestFeatureLattice(t *testing.T) {
	const all = "**all**"
	count := map[string]map[string]int{all: {}} // by row, then by column
	var rows, fields []string
	for _, s := range scenario.Lattice {
		tr := s.Config.Transport.String()
		if count[tr] == nil {
			count[tr] = map[string]int{}
			rows = append(rows, tr)
		}
		col := "failed" // no column of the table
		ok, err := exchange(s.Config)
		switch {
		case err != nil && namesField.MatchString(err.Error()):
			if col = namesField.FindStringSubmatch(err.Error())[1]; count[all][col] == 0 {
				fields = append(fields, col)
			}
			t.Logf("%s error: %v", s.Name, err)
		case err != nil:
			t.Errorf("%s: error names no field: %v", s.Name, err)
		case !ok:
			t.Errorf("%s: traffic did not verify", s.Name)
		default:
			col = "verified"
			t.Logf("%s ok", s.Name)
		}
		for _, row := range []string{tr, all} {
			count[row]["cells"]++
			count[row][col]++
		}
	}
	sort.Strings(fields)
	var table strings.Builder
	table.WriteString("| transport | cells | verified |")
	for _, f := range fields {
		fmt.Fprintf(&table, " refused: `%s` |", f)
	}
	table.WriteString("\n|---|---|---|" + strings.Repeat("---|", len(fields)) + "\n")
	for _, row := range append(rows, all) {
		fmt.Fprintf(&table, "| %s |", row)
		for _, col := range append([]string{"cells", "verified"}, fields...) {
			if n := count[row][col]; n > 0 {
				fmt.Fprintf(&table, " %d |", n)
			} else {
				table.WriteString(" — |")
			}
		}
		table.WriteString("\n")
	}
	t.Logf("the lattice's cells, by transport and outcome:\n%s", &table)
	design, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil || !strings.Contains(string(design), table.String()) {
		t.Errorf("DESIGN.md §19 does not hold the lattice's table (%v)", err)
	}
}

// FuzzConfig sends fuzzed settings through Validate, then New, then the
// lattice's exchange: none of the three may panic, New must refuse exactly
// what Validate refuses, naming the field, and whatever New accepts must
// verify. The seeds are TestConfigValidate's rows plus a valid SRQ
// configuration with a rail-1 fault. Rank counts stay within 8 and ring
// sizes within 32 KiB so every run is small.
func FuzzConfig(f *testing.F) {
	f.Add(int8(2), int8(3), int8(1), int8(0), int8(0), int8(0), false, int16(8), int16(0), int8(0), int8(0), "", int8(-1))
	f.Add(int8(2), int8(9), int8(0), int8(0), int8(0), int8(0), false, int16(0), int16(0), int8(0), int8(0), "", int8(-1))
	f.Add(int8(2), int8(3), int8(7), int8(0), int8(0), int8(0), false, int16(0), int16(0), int8(0), int8(0), "", int8(-1))
	f.Add(int8(2), int8(3), int8(0), int8(0), int8(-3), int8(0), false, int16(0), int16(0), int8(0), int8(0), "", int8(-1))
	f.Add(int8(2), int8(3), int8(0), int8(0), int8(2), int8(0), false, int16(0), int16(0), int8(0), int8(9), "", int8(-1))
	f.Add(int8(2), int8(2), int8(0), int8(0), int8(0), int8(0), false, int16(0), int16(0), int8(3), int8(0), "", int8(-1))
	f.Add(int8(2), int8(3), int8(0), int8(0), int8(0), int8(0), false, int16(0), int16(0), int8(0), int8(0), "bogus", int8(-1))
	f.Add(int8(4), int8(3), int8(1), int8(2), int8(2), int8(2), true, int16(0), int16(0), int8(0), int8(1), "", int8(0))
	f.Fuzz(func(t *testing.T, np, tr, mode, cpn, rails, shards int8, srq bool, chunk, ring int16,
		design, policy int8, bcast string, faultNode int8) {
		cfg := cluster.Config{NP: int(np % 9), Transport: cluster.Transport(tr), ConnectMode: cluster.ConnectMode(mode),
			CoresPerNode: int(cpn), RailsPerNode: int(rails), Shards: int(shards),
			Chan: rdmachan.Config{UseSRQ: srq, ChunkSize: int(chunk), RingSize: int(ring),
				Design: rdmachan.Design(design), RailPolicy: rdmachan.RailPolicy(policy)}}
		if bcast != "" {
			cfg.Tuning = &mpi.Tuning{Bcast: bcast}
		}
		if faultNode >= 0 {
			cfg.Fault = &fault.Plan{Events: []fault.Event{
				{At: 5 * des.Microsecond, Kind: fault.LinkDown, Node: int(faultNode), Rail: 1}}}
		}
		verr := cfg.Validate()
		ok, err := exchange(cfg)
		switch {
		case (verr == nil) != (err == nil):
			t.Fatalf("Validate said %v, New said %v", verr, err)
		case err != nil && !namesField.MatchString(err.Error()):
			t.Fatalf("error names no field: %v", err)
		case err == nil && !ok:
			t.Fatal("traffic did not verify")
		}
	})
}
