package cluster

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/rdmachan"
	"repro/internal/switchfab"
)

// TestConfigValidate: each row is a setting that used to panic mid-run or
// silently run another setup; New must refuse it with an error naming the
// field. (The SRQ pool sizes, the shared-memory ring geometry and the
// resilient flag that completed that list are no longer settable.)
func TestConfigValidate(t *testing.T) {
	zc := func(c Config) Config {
		c.NP = 2
		if c.Transport == 0 {
			c.Transport = TransportZeroCopy
		}
		return c
	}
	cases := []struct {
		name, field string
		cfg         Config
	}{
		{"lazy chunk 8", "Chan.ChunkSize", zc(Config{ConnectMode: ConnectLazy, Chan: rdmachan.Config{ChunkSize: 8}})},
		{"eager chunk 8", "Chan.ChunkSize", zc(Config{Chan: rdmachan.Config{ChunkSize: 8}})},
		{"unknown transport", "Transport", zc(Config{Transport: 9})},
		{"unknown connect mode", "ConnectMode", zc(Config{ConnectMode: 7})},
		{"negative rails", "RailsPerNode", zc(Config{RailsPerNode: -3})},
		{"unknown rail policy", "Chan.RailPolicy", zc(Config{RailsPerNode: 2, Chan: rdmachan.Config{RailPolicy: 9}})},
		{"zero-copy design under pipeline", "Chan.Design",
			zc(Config{Transport: TransportPipeline, Chan: rdmachan.Config{Design: rdmachan.DesignZeroCopy}})},
		{"unknown forced bcast", "Tuning.Bcast", zc(Config{Tuning: &mpi.Tuning{Bcast: "bogus"}})},
	}
	for _, tc := range cases {
		c, err := New(tc.cfg)
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

// namesField matches an error that starts with the field path it rejects.
var namesField = regexp.MustCompile(`^cluster: [A-Z]\w*(\.\w+(\[\d+\])?)*[ :]`)

// exchange builds cfg and runs a checksum ring (512 B and 40 KiB, so every
// eager and rendezvous path a layout has is taken) and an Allreduce. It
// returns New's error, or whether every rank verified.
func exchange(cfg Config) (bool, error) {
	c, err := New(cfg)
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

// TestFeatureLattice walks every combination of transport × connect mode ×
// SRQ × rails × cores per node × switch × shards × fault plan at np = 4:
// each cell verifies its traffic or gets an error from New naming a field,
// and none panics. The printed table's error cells are the carve-out list
// (DESIGN.md §19).
func TestFeatureLattice(t *testing.T) {
	faults := []struct {
		name string
		plan func() *fault.Plan
	}{
		{"none", func() *fault.Plan { return nil }},
		{"empty", func() *fault.Plan { return &fault.Plan{} }},
		{"rail1-down", func() *fault.Plan {
			return &fault.Plan{Events: []fault.Event{{At: 5 * des.Microsecond, Kind: fault.LinkDown, Node: 0, Rail: 1}}}
		}},
	}
	carve := map[string]int{}
	cells := 0
	for tr := TransportBasic; tr <= TransportCH3; tr++ {
		for _, mode := range []ConnectMode{ConnectEager, ConnectLazy} {
			for _, srq := range []bool{false, true} {
				for _, rails := range []int{1, 2} {
					for _, cpn := range []int{1, 2} {
						for _, sw := range []*switchfab.Config{nil, {LeafDown: 2, LeafUp: 1}} {
							for _, shards := range []int{1, 2} {
								for _, f := range faults {
									cfg := Config{NP: 4, Transport: tr, ConnectMode: mode,
										RailsPerNode: rails, CoresPerNode: cpn, Switch: sw,
										Shards: shards, Fault: f.plan()}
									cfg.Chan.UseSRQ = srq
									net := "flat"
									if sw != nil {
										net = sw.Label()
									}
									cell := fmt.Sprintf("%-9v %-5v srq=%-5v rails=%d cpn=%d %-13s shards=%d fault=%-10s",
										tr, mode, srq, rails, cpn, net, shards, f.name)
									cells++
									ok, err := exchange(cfg)
									switch {
									case err != nil && namesField.MatchString(err.Error()):
										carve[err.Error()]++
										t.Logf("%s error: %v", cell, err)
									case err != nil:
										t.Errorf("%s: error names no field: %v", cell, err)
									case !ok:
										t.Errorf("%s: traffic did not verify", cell)
									default:
										t.Logf("%s ok", cell)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	msgs := make([]string, 0, len(carve))
	for msg := range carve {
		msgs = append(msgs, msg)
	}
	sort.Strings(msgs)
	n := 0
	for _, msg := range msgs {
		n += carve[msg]
		t.Logf("carve-out ×%d: %s", carve[msg], msg)
	}
	t.Logf("%d cells: %d verified, %d refused by New", cells, cells-n, n)
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
		cfg := Config{NP: int(np % 9), Transport: Transport(tr), ConnectMode: ConnectMode(mode),
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
