// Package feedback implements the validity-feedback mechanism of the
// adaptive statement generator (paper §4).
//
// For every SQL feature it tracks the number of executions N and
// successes y of statements containing the feature. Query features are
// judged by Bayesian inference: with a uniform prior, θ|y ~ Beta(y+1,
// N−y+1); a feature is unsupported if at least `confidence` of the
// posterior mass lies below the user threshold p. DDL/DML features use
// the paper's simpler rule: a feature that fails `ddlMaxFailures` times
// consecutively (without a success) is unsupported.
package feedback

import (
	"encoding/json"
	"sort"
	"sync"
)

// Defaults match the paper's description (§4: p = 1%, 95% credible mass;
// probabilities updated after a fixed number of executions).
const (
	DefaultThreshold      = 0.01
	DefaultConfidence     = 0.95
	DefaultDDLMaxFailures = 25
	DefaultUpdateInterval = 400
)

// featureStats holds per-feature counters.
type featureStats struct {
	N int `json:"n"` // executions
	Y int `json:"y"` // successes
	// ConsecFail counts consecutive failures (DDL/DML rule).
	ConsecFail int  `json:"consecFail"`
	DDL        bool `json:"ddl"`
}

// Tracker accumulates per-feature execution feedback and classifies
// features as supported or unsupported.
type Tracker struct {
	mu sync.Mutex

	threshold   float64
	confidence  float64
	ddlMax      int
	updateEvery int

	// enabled=false gives the paper's "SQLancer++ Rand" configuration:
	// feedback is recorded but never suppresses anything.
	enabled bool

	stats       map[string]*featureStats
	unsupported map[string]bool
	sinceUpdate int
	updates     int
}

// Option configures a Tracker.
type Option func(*Tracker)

// WithThreshold sets the minimum success probability p.
func WithThreshold(p float64) Option {
	return func(t *Tracker) { t.threshold = p }
}

// WithConfidence sets the posterior mass required to deem a feature
// unsupported.
func WithConfidence(c float64) Option {
	return func(t *Tracker) { t.confidence = c }
}

// WithDDLMaxFailures sets the consecutive-failure cutoff for DDL/DML.
func WithDDLMaxFailures(n int) Option {
	return func(t *Tracker) { t.ddlMax = n }
}

// WithUpdateInterval sets how many recorded executions trigger a
// posterior update (the paper's iteration count I).
func WithUpdateInterval(n int) Option {
	return func(t *Tracker) { t.updateEvery = n }
}

// Disabled turns off suppression ("SQLancer++ Rand").
func Disabled() Option {
	return func(t *Tracker) { t.enabled = false }
}

// New returns a Tracker with the paper's default parameters.
func New(opts ...Option) *Tracker {
	t := &Tracker{
		threshold:   DefaultThreshold,
		confidence:  DefaultConfidence,
		ddlMax:      DefaultDDLMaxFailures,
		updateEvery: DefaultUpdateInterval,
		enabled:     true,
		stats:       map[string]*featureStats{},
		unsupported: map[string]bool{},
	}
	for _, o := range opts {
		o(t)
	}
	return t
}

func (t *Tracker) stat(f string) *featureStats {
	st := t.stats[f]
	if st == nil {
		st = &featureStats{}
		t.stats[f] = st
	}
	return st
}

// RecordQuery records the outcome of a query containing the features.
func (t *Tracker) RecordQuery(features []string, ok bool) {
	t.record(features, ok, false)
}

// RecordDDL records the outcome of a DDL/DML statement.
func (t *Tracker) RecordDDL(features []string, ok bool) {
	t.record(features, ok, true)
}

func (t *Tracker) record(features []string, ok bool, ddl bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, f := range features {
		st := t.stat(f)
		st.N++
		st.DDL = st.DDL || ddl
		if ok {
			st.Y++
			st.ConsecFail = 0
		} else {
			st.ConsecFail++
		}
	}
	t.sinceUpdate++
	if t.sinceUpdate >= t.updateEvery {
		t.updateLocked()
	}
}

// Update forces a posterior update (step 3 of Figure 5).
func (t *Tracker) Update() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.updateLocked()
}

func (t *Tracker) updateLocked() {
	t.sinceUpdate = 0
	t.updates++
	for f, st := range t.stats {
		if st.DDL {
			// DDL/DML rule: repeated consecutive failures ⇒ unsupported.
			if st.ConsecFail >= t.ddlMax {
				t.unsupported[f] = true
			}
			continue
		}
		if st.N < 20 {
			continue // not enough evidence yet
		}
		// P(θ < threshold | y, N) with θ|y ~ Beta(y+1, N−y+1).
		mass := BetaCDF(t.threshold, float64(st.Y+1), float64(st.N-st.Y+1))
		if mass >= t.confidence {
			t.unsupported[f] = true
		} else {
			delete(t.unsupported, f)
		}
	}
}

// Updates returns how many posterior updates have run.
func (t *Tracker) Updates() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.updates
}

// Supported reports whether the generator should keep producing the
// feature (paper Listing 4's shouldGenerate).
func (t *Tracker) Supported(f string) bool {
	if !t.enabled {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return !t.unsupported[f]
}

// Unsupported returns the sorted list of suppressed features.
func (t *Tracker) Unsupported() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.unsupported))
	for f := range t.unsupported {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Stats returns (N, y) for a feature.
func (t *Tracker) Stats(f string) (n, y int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats[f]
	if st == nil {
		return 0, 0
	}
	return st.N, st.Y
}

// snapshot is the persisted form (paper Figure 5: probabilities can be
// persisted and loaded by future executions).
type snapshot struct {
	Stats       map[string]*featureStats `json:"stats"`
	Unsupported []string                 `json:"unsupported"`
}

// Save serializes the tracker state.
func (t *Tracker) Save() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := snapshot{Stats: t.stats}
	for f := range t.unsupported {
		snap.Unsupported = append(snap.Unsupported, f)
	}
	sort.Strings(snap.Unsupported)
	return json.MarshalIndent(snap, "", "  ")
}

// MergeState folds another tracker's saved state into t: execution
// counts add, the DDL flag ORs, consecutive-failure streaks take their
// maximum (streams cannot be interleaved after the fact), and features
// either side deemed unsupported start out unsupported. Callers merging
// several states should finish with Update() so the Bayesian
// classifications reflect the pooled evidence; the DDL consecutive-
// failure rule is monotone, so union is its exact merge.
func (t *Tracker) MergeState(data []byte) error {
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for f, st := range snap.Stats {
		dst := t.stat(f)
		dst.N += st.N
		dst.Y += st.Y
		dst.DDL = dst.DDL || st.DDL
		if st.ConsecFail > dst.ConsecFail {
			dst.ConsecFail = st.ConsecFail
		}
	}
	for _, f := range snap.Unsupported {
		t.unsupported[f] = true
	}
	return nil
}

// DiscountState subtracts times copies of a saved state's execution
// counts from t (flooring at zero). A shard merge uses it to remove the
// shared warm-start prior that every shard's saved state re-includes, so
// the pooled evidence counts the prior exactly once. DDL flags,
// failure streaks, and unsupported markings are left alone — they are
// monotone under the merge, not additive.
func (t *Tracker) DiscountState(data []byte, times int) error {
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return err
	}
	if times <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for f, st := range snap.Stats {
		dst := t.stats[f]
		if dst == nil {
			continue
		}
		dst.N -= times * st.N
		dst.Y -= times * st.Y
		if dst.N < 0 {
			dst.N = 0
		}
		if dst.Y < 0 {
			dst.Y = 0
		}
	}
	return nil
}

// Load restores tracker state saved by Save.
func (t *Tracker) Load(data []byte) error {
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats = snap.Stats
	if t.stats == nil {
		t.stats = map[string]*featureStats{}
	}
	t.unsupported = map[string]bool{}
	for _, f := range snap.Unsupported {
		t.unsupported[f] = true
	}
	return nil
}
