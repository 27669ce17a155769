package campaign

import (
	"bytes"
	"strings"
	"testing"

	"sqlancerpp/internal/core/oracle"
	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/faults"
)

// permDropDialect carries only the JoinPermConjDrop fault: a join
// reorderer that drops a relocated ON conjunct when the permuted join
// order defers it past its original step. The defect is observable only
// under a permuted plan of a 3+-relation inner-join chain — the
// canonical order relocates nothing — so it is invisible to every
// oracle except PlanDiff's join-order axis.
func permDropDialect(name string) *dialect.Dialect {
	d := dialect.MustGet("sqlite").Clone()
	d.Name = name
	d.Faults = faults.NewSet([]faults.Fault{{
		ID: name + "-drop", Dialect: name, Class: faults.Logic,
		Kind: faults.JoinPermConjDrop,
	}})
	return d
}

// TestJoinPermOnlyFaultCampaignAttribution: a seeded campaign on the
// permutation-only fault dialect must attribute the fault through a
// recorded "perm:" losing spec with zero false positives — the
// join-order axis finds a defect class no other plan axis reaches —
// and the sharded runs must stay byte-identical at worker counts
// {1, 3, 8} with the pair scheduler on.
func TestJoinPermOnlyFaultCampaignAttribution(t *testing.T) {
	cfg := func() Config {
		return Config{
			Dialect:   permDropDialect("permdrop-1"),
			Mode:      Adaptive,
			TestCases: 3000,
			Seed:      7,
			Oracles:   []oracle.Name{oracle.PlanDiffName},
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
		t.Fatalf("%d false positives — the permutation machinery is unsound", rep.FalsePositives)
	}
	permBugs := 0
	for _, b := range rep.Bugs {
		if b.Oracle != oracle.PlanDiffName || b.Class != ClassLogic {
			continue
		}
		if !strings.Contains(b.PlanSpec, "perm:") {
			continue
		}
		permBugs++
		attributed := false
		for _, id := range b.Triggered {
			if id == "permdrop-1-drop" {
				attributed = true
			}
		}
		if !attributed {
			t.Errorf("perm bug #%d not attributed to the injected fault: %v", b.ID, b.Triggered)
		}
	}
	if permBugs == 0 {
		t.Fatalf("no bug recorded a permutation losing spec (detected=%d)", rep.Detected)
	}
	if rep.PlanPairsNovel == 0 {
		t.Fatal("scheduler recorded no novel pairs")
	}

	// Determinism: byte-identical merged reports at every worker count
	// with the pair scheduler on (the default).
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
			t.Fatalf("workers=%d report differs from workers=1", workers)
		}
	}
}
