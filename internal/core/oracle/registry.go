package oracle

// First-class oracle interface and registry. Each oracle registers
// itself with a name and a rotation weight; campaigns select oracles by
// name and dispatch through Schedule's deterministic weighted rotation.
// The registry is what makes oracles portable across the campaign, the
// reducer (which replays the *same* oracle by its reported name), and
// future oracle additions: a new oracle is one Register call away from
// participating in every campaign.

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"sqlancerpp/internal/engine"
	"sqlancerpp/internal/sqlast"
)

// Case is one generated oracle test case: a base query (no WHERE) and a
// predicate to partition or filter by.
type Case struct {
	Base *sqlast.Select
	Pred sqlast.Expr
	// Seq is the campaign's test-case ordinal. Oracles that make an
	// internal deterministic choice (TLPAggregate's aggregate function)
	// derive it from Seq, so a reducer replaying the case by Seq makes
	// the same choice.
	Seq int
	// MaxPlans caps the plan specs PlanDiff diffs the baseline against
	// per query (0 selects DefaultMaxPlans; negative is unlimited).
	MaxPlans int
	// PlanSpec, when non-empty, is a serialized engine.PlanSpec: PlanDiff
	// skips enumeration and diffs the baseline against exactly this plan.
	// The reducer sets it from the bug's recorded losing spec, so a
	// replay re-executes the precise plan pair that diverged.
	PlanSpec string
	// Pairs, when non-nil, is the campaign's plan-pair coverage: PlanDiff
	// ranks plan specs whose (shape, spec) pair is unseen ahead of the
	// canonical order before applying MaxPlans, marks every executed
	// pair, and reports the novel/repeated split in the Result.
	Pairs PlanPairs
	// Enum, when non-nil, caches plan enumerations per query shape so
	// repeated shapes skip re-enumeration.
	Enum *PlanEnumMemo
	// CanonicalPlans disables the novelty *ranking* while keeping the
	// pair bookkeeping — the ablation arm benchmarks compare against.
	CanonicalPlans bool
}

// Oracle is a first-class test oracle.
type Oracle interface {
	// Name is the registry key, used for selection and bug attribution.
	Name() Name
	// Applicable reports whether the oracle can produce a meaningful
	// verdict for this case on this instance (e.g. PlanDiff needs the
	// instance's index paths enabled).
	Applicable(db *engine.DB, c *Case) bool
	// Check executes the oracle's queries and compares their results.
	Check(db *engine.DB, c *Case) Result
}

// Registration pairs an oracle with its rotation weight.
type Registration struct {
	Oracle Oracle
	Weight int
}

var (
	regMu sync.RWMutex
	// regs holds registrations in registration order — the registry's
	// canonical, deterministic order.
	regs []Registration
)

// Register adds an oracle to the registry. Weights must be positive;
// names must be unique.
func Register(o Oracle, weight int) error {
	if weight < 1 {
		return fmt.Errorf("oracle: weight %d for %s (want >= 1)", weight, o.Name())
	}
	regMu.Lock()
	defer regMu.Unlock()
	for _, r := range regs {
		if r.Oracle.Name() == o.Name() {
			return fmt.Errorf("oracle: %q already registered", o.Name())
		}
	}
	regs = append(regs, Registration{Oracle: o, Weight: weight})
	return nil
}

// Get returns a registered oracle by name.
func Get(name Name) (Oracle, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	for _, r := range regs {
		if r.Oracle.Name() == name {
			return r.Oracle, true
		}
	}
	return nil, false
}

// DefaultNames returns every registered oracle name in registration
// order — the default oracle set of a campaign.
func DefaultNames() []Name {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Name, len(regs))
	for i, r := range regs {
		out[i] = r.Oracle.Name()
	}
	return out
}

// Select resolves oracle names to registrations, preserving registry
// order (so the rotation is a function of the *set*, not the spelling
// order of the selection).
func Select(names []Name) ([]Registration, error) {
	want := map[Name]bool{}
	for _, n := range names {
		want[n] = true
	}
	regMu.RLock()
	defer regMu.RUnlock()
	var out []Registration
	for _, r := range regs {
		if want[r.Oracle.Name()] {
			out = append(out, r)
			delete(want, r.Oracle.Name())
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for n := range want {
			unknown = append(unknown, string(n))
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("oracle: unknown oracle(s) %s", strings.Join(unknown, ", "))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("oracle: empty oracle selection")
	}
	return out, nil
}

// TLPFamily returns the TLP-variant oracle names (classic, composed,
// aggregate) — the selection the "tlp-family" alias expands to.
func TLPFamily() []Name {
	return []Name{TLPName, TLPComposedName, TLPAggregateName}
}

// ParseNames parses a user-facing oracle selection string: "" / "both" /
// "all" selects every registered oracle, "tlp-family" the TLP variants,
// and otherwise a comma-separated, case-insensitive list of registry
// names ("tlp,plandiff"). Registered names always resolve to themselves
// — "tlp" is the classic TLP oracle alone, "norec" is NoREC.
func ParseNames(s string) ([]Name, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "both", "all":
		return DefaultNames(), nil
	case "tlp-family":
		return TLPFamily(), nil
	}
	var out []Name
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		found := false
		for _, n := range DefaultNames() {
			if strings.EqualFold(string(n), part) {
				out = append(out, n)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("oracle: unknown oracle %q (registered: %s)",
				part, joinNames(DefaultNames()))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("oracle: empty oracle selection %q", s)
	}
	return out, nil
}

func joinNames(names []Name) string {
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = string(n)
	}
	return strings.Join(parts, ", ")
}

// Schedule builds one full cycle of a smooth weighted round-robin over
// the registrations: each oracle appears Weight times per cycle,
// interleaved (ties break toward earlier registration). The schedule is
// a pure function of the selected (oracle, weight) list, so a campaign
// dispatching schedule[case%len] rotates deterministically — the same
// seed and oracle set reproduce the same oracle per test case on any
// machine and worker count.
func Schedule(selected []Registration) []Oracle {
	total := 0
	for _, r := range selected {
		total += r.Weight
	}
	cur := make([]int, len(selected))
	out := make([]Oracle, 0, total)
	for len(out) < total {
		best := 0
		for i := range selected {
			cur[i] += selected[i].Weight
			if cur[i] > cur[best] {
				best = i
			}
		}
		cur[best] -= total
		out = append(out, selected[best].Oracle)
	}
	return out
}

// ---------------------------------------------------------------------
// Registered oracle implementations
// ---------------------------------------------------------------------

type tlpOracle struct{}

func (tlpOracle) Name() Name                          { return TLPName }
func (tlpOracle) Applicable(*engine.DB, *Case) bool   { return true }
func (tlpOracle) Check(db *engine.DB, c *Case) Result { return TLP(db, c.Base, c.Pred) }

type tlpComposedOracle struct{}

func (tlpComposedOracle) Name() Name                          { return TLPComposedName }
func (tlpComposedOracle) Applicable(*engine.DB, *Case) bool   { return true }
func (tlpComposedOracle) Check(db *engine.DB, c *Case) Result { return TLPComposed(db, c.Base, c.Pred) }

type tlpAggregateOracle struct{}

func (tlpAggregateOracle) Name() Name                        { return TLPAggregateName }
func (tlpAggregateOracle) Applicable(*engine.DB, *Case) bool { return true }
func (tlpAggregateOracle) Check(db *engine.DB, c *Case) Result {
	return TLPAggregate(db, c.Base, c.Pred, c.Seq)
}

type norecOracle struct{}

func (norecOracle) Name() Name                          { return NoRECName }
func (norecOracle) Applicable(*engine.DB, *Case) bool   { return true }
func (norecOracle) Check(db *engine.DB, c *Case) Result { return NoREC(db, c.Base, c.Pred) }

type planDiffOracle struct{}

func (planDiffOracle) Name() Name { return PlanDiffName }

// Applicable: PlanDiff needs the instance's index paths on — with the
// planner already suppressed, its two executions are the same plan.
func (planDiffOracle) Applicable(db *engine.DB, _ *Case) bool { return db.IndexPathsEnabled() }

func (planDiffOracle) Check(db *engine.DB, c *Case) Result { return PlanDiffCase(db, c) }

// init registers the built-in oracles. Weights approximate the paper's
// TLP/NoREC alternation while giving the plan-diffing oracle a steady
// share of the rotation.
func init() {
	for _, reg := range []struct {
		o Oracle
		w int
	}{
		{tlpOracle{}, 3},
		{tlpComposedOracle{}, 2},
		{tlpAggregateOracle{}, 1},
		{norecOracle{}, 3},
		{planDiffOracle{}, 2},
	} {
		if err := Register(reg.o, reg.w); err != nil {
			panic(err)
		}
	}
}
