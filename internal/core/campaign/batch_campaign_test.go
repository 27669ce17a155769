package campaign

import (
	"bytes"
	"testing"

	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/faults"
)

// batchFaultDialect is a SQLite-family dialect carrying exactly one
// batch/covering-path fault site, so attribution is unambiguous.
func batchFaultDialect(name string, kind faults.Kind, param string) *dialect.Dialect {
	d := dialect.MustGet("sqlite").Clone()
	d.Name = name
	d.Faults = faults.NewSet([]faults.Fault{
		{ID: name + "-f", Dialect: name, Class: faults.Logic, Kind: kind, Param: param},
	})
	return d
}

// TestReportBytesIdenticalAcrossBatchSizes is the batch executor's
// campaign-level determinism contract: the same configuration produces a
// byte-identical report at every batch width, including the
// row-at-a-time reference executor — the filter's results, cost,
// coverage, errors, and fault triggers cannot depend on how candidates
// are chunked.
func TestReportBytesIdenticalAcrossBatchSizes(t *testing.T) {
	run := func(batch int) []byte {
		r, err := New(Config{
			Dialect:      dialect.MustGet("sqlite"),
			Mode:         Adaptive,
			TestCases:    1500,
			Seed:         9,
			BatchSize:    batch,
			KeepAllCases: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Detected == 0 {
			t.Fatalf("batch=%d: campaign detected nothing; the determinism check is vacuous", batch)
		}
		return marshalReport(t, rep)
	}
	ref := run(-1) // row-at-a-time reference executor
	for _, batch := range []int{1, 7, 64, 1024} {
		if got := run(batch); !bytes.Equal(got, ref) {
			t.Fatalf("batch=%d report differs from the row-at-a-time reference", batch)
		}
	}
}

// TestShardedReportBytesIdenticalAcrossBatchSizes crosses the two
// determinism axes: sharded reports must stay byte-identical across
// worker counts AND batch widths simultaneously.
func TestShardedReportBytesIdenticalAcrossBatchSizes(t *testing.T) {
	run := func(workers, batch int) []byte {
		cfg := Config{
			Dialect:      dialect.MustGet("sqlite"),
			Mode:         Adaptive,
			TestCases:    800,
			Seed:         7,
			BatchSize:    batch,
			KeepAllCases: true,
		}
		rep, err := RunShardedOpts(cfg, ShardedOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return marshalReport(t, rep)
	}
	ref := run(1, -1)
	for _, workers := range []int{1, 3} {
		for _, batch := range []int{-1, 7, 64, 1024} {
			if workers == 1 && batch == -1 {
				continue
			}
			if got := run(workers, batch); !bytes.Equal(got, ref) {
				t.Fatalf("workers=%d batch=%d report differs from serial row-at-a-time",
					workers, batch)
			}
		}
	}
}

// TestBatchFaultSitesFound is the acceptance criterion for the
// vectorized-filter and covering-projection fault families: a seeded
// campaign over a dialect carrying one of the new defects reports at
// least one logic bug attributed to it — the generator's sargable
// predicates and composite indexes must therefore reach the lane
// kernels and the index-only serving path — with zero false positives.
func TestBatchFaultSitesFound(t *testing.T) {
	for _, tc := range []struct {
		name  string
		kind  faults.Kind
		param string
		cases int
		setup int // 0 = default; BatchTailDrop needs joined candidate streams >64 rows
	}{
		{"batch-accept-vecnull", faults.VecCompareNullTrue, "=", 4000, 0},
		{"batch-accept-coverswap", faults.CoveringIndexProjSwap, "", 6000, 0},
		{"batch-accept-taildrop", faults.BatchTailDrop, "", 4000, 40},
	} {
		r, err := New(Config{
			Dialect:      batchFaultDialect(tc.name, tc.kind, tc.param),
			Mode:         Adaptive,
			TestCases:    tc.cases,
			Seed:         2,
			SetupStmts:   tc.setup,
			KeepAllCases: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.FalsePositives != 0 {
			t.Fatalf("%s: %d false positives — a batch execution path is unsound",
				tc.name, rep.FalsePositives)
		}
		attributed := 0
		for _, b := range rep.AllCases {
			if b.Class != ClassLogic {
				continue
			}
			for _, id := range b.Triggered {
				if id == tc.name+"-f" {
					attributed++
				}
			}
		}
		if attributed == 0 {
			t.Errorf("%s: no logic bug attributed (detected=%d)", tc.name, rep.Detected)
		}
		t.Logf("%s: attributed=%d detected=%d validity=%.1f%%",
			tc.name, attributed, rep.Detected, 100*rep.ValidityRate())
	}
}
