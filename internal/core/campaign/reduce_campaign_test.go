package campaign

import (
	"sync/atomic"
	"testing"

	"sqlancerpp/internal/dialect"
)

// TestReducedBugsReplayFromText: on a sharded campaign over every paper
// DBMS, plus the panic-fault dialect, every reduced bug — parsed back
// from its Reduced SQL alone — still satisfies the property its
// reduction preserved (bugProperty itself, not a copy): a logic bug
// still fails its attributed oracle under its plan spec, a harness bug
// still panics the engine. None of these campaigns may report a false
// positive.
func TestReducedBugsReplayFromText(t *testing.T) {
	cfgs := map[string]Config{"panicdb": panicCfg(t, 3000, 5)}
	for _, name := range dialect.PaperDBMSs {
		cfgs[name] = Config{
			Dialect:    dialect.MustGet(name),
			Mode:       Adaptive,
			TestCases:  3000,
			Seed:       5,
			ReduceBugs: true,
		}
	}
	var logic, harness atomic.Int64
	t.Run("dialects", func(t *testing.T) {
		for name, cfg := range cfgs {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				rep, err := RunSharded(cfg, 1)
				if err != nil {
					t.Fatal(err)
				}
				if rep.FalsePositives != 0 {
					t.Errorf("FalsePositives = %d, want 0", rep.FalsePositives)
				}
				resolved := cfg.withDefaults()
				for _, b := range rep.Bugs {
					if len(b.Reduced) == 0 {
						continue
					}
					stmts, err := parseSQL(b.Reduced)
					if err != nil {
						t.Fatalf("bug %d: reduced SQL does not parse: %v", b.ID, err)
					}
					if !bugProperty(resolved, b)(stmts) {
						t.Errorf("bug %d (%s, %s): reduced SQL does not reproduce:\n%v",
							b.ID, b.Class, b.Oracle, b.Reduced)
					}
					switch b.Class {
					case ClassLogic:
						logic.Add(1)
					case ClassHarness:
						harness.Add(1)
					}
				}
			})
		}
	})
	if logic.Load() == 0 || harness.Load() == 0 {
		t.Fatalf("replayed %d reduced logic and %d reduced harness bugs: the test is vacuous",
			logic.Load(), harness.Load())
	}
	t.Logf("replayed %d reduced logic and %d reduced harness bugs from text", logic.Load(), harness.Load())
}
