package campaign

import (
	"bytes"
	"testing"

	"sqlancerpp/internal/core/oracle"
	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/faults"
)

// compositeFaultDialect is a SQLite-family dialect carrying one
// composite-span fault site, so attribution is unambiguous. The two
// sites live on the same planner path (the prefix-skip defect replaces
// the span the boundary defect would perturb), so — like the real
// catalogue, where no dialect carries both — each gets its own dialect.
func compositeFaultDialect(name string, kind faults.Kind) *dialect.Dialect {
	d := dialect.MustGet("sqlite").Clone()
	d.Name = name
	d.Faults = faults.NewSet([]faults.Fault{
		{ID: name + "-f", Dialect: name, Class: faults.Logic, Kind: kind},
	})
	return d
}

// TestCompositeFaultSitesFound is the acceptance criterion for the new
// fault sites: a seeded campaign over a dialect carrying a composite
// defect reports at least one logic bug attributed to it — the
// generator's composite CREATE INDEX and sargable multi-conjunct WHERE
// shapes must therefore actually reach the composite span planner —
// with zero false positives.
func TestCompositeFaultSitesFound(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind faults.Kind
	}{
		{"composite-accept-boundary", faults.CompositeSpanBoundary},
		{"composite-accept-prefixskip", faults.CompositeProbePrefixSkip},
	} {
		r, err := New(Config{
			Dialect:      compositeFaultDialect(tc.name, tc.kind),
			Mode:         Adaptive,
			TestCases:    6000,
			Seed:         2,
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
			t.Fatalf("%s: %d false positives — a composite span path is unsound",
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

// TestCompositeOracleMixDeterministicAcrossWorkers extends the sharded
// determinism guarantee to an oracle mix over a composite-fault dialect:
// byte-identical reports for every worker count must survive campaigns
// whose cases probe composite spans, index-assisted DML, and plan-diffed
// executions.
func TestCompositeOracleMixDeterministicAcrossWorkers(t *testing.T) {
	cfg := func() Config {
		return Config{
			Dialect: compositeFaultDialect("composite-detrm-1",
				faults.CompositeProbePrefixSkip),
			Mode:      Adaptive,
			TestCases: 2000,
			Seed:      3,
			Oracles: []oracle.Name{oracle.TLPName, oracle.NoRECName,
				oracle.PlanDiffName},
			KeepAllCases: true,
		}
	}
	serial, err := RunShardedOpts(cfg(), ShardedOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		par, err := RunShardedOpts(cfg(), ShardedOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalReport(t, serial), marshalReport(t, par)) {
			t.Fatalf("workers=%d report differs from the serial run", workers)
		}
	}
	if serial.Detected == 0 {
		t.Fatal("composite campaign detected nothing; the determinism check is vacuous")
	}
}
