package campaign

import (
	"bytes"
	"strings"
	"testing"

	"sqlancerpp/internal/core/oracle"
	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/faults"
)

// prefixTruncDialect carries only the PrefixSpanTruncate fault: a defect
// that fires on short-prefix composite spans. When the generated query
// constrains the full composite key, the auto plan consumes the whole
// key, the defect stays silent on both halves of the legacy
// index-on/off pair, and only a width-capped forced plan from the
// enumerator reaches the defective span.
func prefixTruncDialect(name string) *dialect.Dialect {
	d := dialect.MustGet("sqlite").Clone()
	d.Name = name
	d.Faults = faults.NewSet([]faults.Fault{{
		ID: name + "-trunc", Dialect: name, Class: faults.Logic,
		Kind: faults.PrefixSpanTruncate,
	}})
	return d
}

// TestPlanDiffEnumerationBeatsLegacyTogglePair is the tentpole
// acceptance criterion: a seeded campaign on a plan-dependent fault
// dialect attributes at least one logic bug to a PlanDiff plan pair the
// old index-on/off toggle cannot distinguish — the recorded losing spec
// is a forced plan, and since the enumerator diffs the planner-off spec
// *first*, a forced losing spec proves the legacy pair agreed for that
// query. FalsePositives must stay zero and the sharded reports
// byte-identical across worker counts.
func TestPlanDiffEnumerationBeatsLegacyTogglePair(t *testing.T) {
	cfg := func() Config {
		return Config{
			Dialect:    prefixTruncDialect("planspec-accept-1"),
			Mode:       Adaptive,
			TestCases:  3000,
			Seed:       10,
			Oracles:    []oracle.Name{oracle.PlanDiffName},
			ReduceBugs: true,
		}
	}
	r, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FalsePositives != 0 {
		t.Fatalf("%d false positives — plan forcing or the enumerator is unsound", rep.FalsePositives)
	}
	forced := 0
	reduced := 0
	for _, b := range rep.Bugs {
		if b.Oracle != oracle.PlanDiffName || b.Class != ClassLogic {
			continue
		}
		if b.PlanSpec == "" {
			t.Errorf("PlanDiff bug #%d lacks a recorded losing spec", b.ID)
			continue
		}
		if !strings.Contains(b.Detail, "["+b.PlanSpec+"]") {
			t.Errorf("bug #%d Detail %q must embed the losing spec %q", b.ID, b.Detail, b.PlanSpec)
		}
		// A forced-index losing spec means every earlier spec in the
		// canonical enumeration order — the planner-off plan included —
		// agreed with the baseline: the legacy pair was blind here.
		if strings.Contains(b.PlanSpec, "index(") {
			forced++
			if len(b.Reduced) > 0 {
				reduced++
			}
		}
	}
	if forced == 0 {
		t.Fatalf("no PlanDiff bug attributed to a forced plan pair (detected=%d by-class=%v)",
			rep.Detected, rep.DetectedByClass)
	}
	if reduced == 0 {
		t.Fatal("no forced-pair bug survived reduction — the reducer is not replaying the recorded spec")
	}
	t.Logf("forced-pair PlanDiff bugs=%d (reduced=%d) detected=%d validity=%.1f%%",
		forced, reduced, rep.Detected, 100*rep.ValidityRate())

	// Byte-identical sharded reports for every worker count.
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
}

// TestPlanPairCountersAndShardMerge: a campaign with a tight -plans cap
// must account for every executed plan spec as a novel or repeated
// (shape, spec) pair, persist the pair tracker's state in the report,
// and preserve both across shard merging. The serial runner keeps one
// tracker across database epochs, so recurring query shapes must show
// up as repeated pairs; disabling the scheduler zeroes the accounting.
func TestPlanPairCountersAndShardMerge(t *testing.T) {
	cfg := func(sched bool) Config {
		return Config{
			Dialect:          dialect.MustGet("sqlite"),
			Mode:             Adaptive,
			TestCases:        600,
			Seed:             11,
			Oracles:          []oracle.Name{oracle.PlanDiffName},
			MaxPlansPerQuery: 1,
			NoPlanPairSched:  !sched,
		}
	}
	r, err := New(cfg(true))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PlanPairsNovel == 0 {
		t.Fatal("campaign executed no novel plan pairs on index-bearing states")
	}
	if rep.PlanPairsRepeated == 0 {
		t.Fatal("recurring shapes under cap 1 must eventually repeat pairs")
	}
	if rep.PlanPairState == nil {
		t.Fatal("report must carry the pair tracker's state")
	}

	shardedRep, err := RunShardedOpts(cfg(true), ShardedOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if shardedRep.PlanPairsNovel == 0 {
		t.Fatal("shard merge lost the novel-pair tally")
	}
	if shardedRep.PlanPairState == nil {
		t.Fatal("shard merge lost the pair tracker state")
	}

	off, err := New(cfg(false))
	if err != nil {
		t.Fatal(err)
	}
	offRep, err := off.Run()
	if err != nil {
		t.Fatal(err)
	}
	if offRep.PlanPairsNovel != 0 || offRep.PlanPairsRepeated != 0 || offRep.PlanPairState != nil {
		t.Fatalf("scheduler off must not track pairs: novel=%d repeated=%d state=%v",
			offRep.PlanPairsNovel, offRep.PlanPairsRepeated, offRep.PlanPairState != nil)
	}
}
