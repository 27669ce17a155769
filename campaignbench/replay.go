package main

import (
	"fmt"
	"strings"

	"sqlancerpp/internal/core/feedback"
	"sqlancerpp/internal/core/gen"
	"sqlancerpp/internal/core/oracle"
	"sqlancerpp/internal/core/prioritize"
	"sqlancerpp/internal/core/reduce"
	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/engine"
	"sqlancerpp/internal/feature"
	"sqlancerpp/internal/sqlast"
)

// The replay re-runs a campaign's epochs through the layers'
// public functions, in the order campaign.Runner calls them — engine.Open,
// gen.Generator.Gen*, engine.DB.Exec, oracle.Schedule / Oracle.Check,
// feedback.Tracker.Record*, prioritize.Prioritizer.Report, reduce.Reduce —
// with a span around each call. It exists only to measure: its case and
// valid counts are reported next to the real campaign's, so a divergence
// from campaign.Runner shows.

// Runner defaults the replay mirrors (campaign.Config.withDefaults).
const (
	replaySetupStmts = 14
	replayCasesPerDB = 200
	replaySmokeEvery = 5
	replayThreshold  = 0.05
)

// Span names, one per layer call the replay times.
const (
	spanNew         = "campaign.new"
	spanEpochSetup  = "campaign.epoch_setup"
	spanEngineOpen  = "engine.open"
	spanGenSetup    = "gen.setup"
	spanGenCase     = "gen.case"
	spanGenQuery    = "gen.query"
	spanSetupExec   = "engine.setup_exec"
	spanSmokeExec   = "engine.smoke_exec"
	spanCheckPrefix = "oracle.check."
	spanRecord      = "feedback.record"
	spanLoad        = "feedback.load"
	spanSave        = "feedback.save"
	spanPrioritize  = "prioritize.report"
	spanReduce      = "reduce.reduce"
	spanReplay      = "reduce.replay"
)

// replayConfig is one campaign to replay: the default adaptive campaign
// with every oracle, as sqlancerpp.Run configures it.
type replayConfig struct {
	dialect *dialect.Dialect
	cases   int
	seed    int64
	reduce  bool
	state   []byte // learned feedback state to warm-start from
	// perCase tags spans with the case number; otherwise they keep the
	// tracer's unit (the request or shard being replayed).
	perCase bool
}

// replayStats are the counters the replay records at the layer boundaries.
type replayStats struct {
	cases, valid        int
	setupTotal, setupOK int
	detected            int

	checks                   int
	queries                  int
	rows                     int64 // engine rows touched by oracle checks
	plandiffs                int
	plansNovel, plansRepeat  int
	priCalls, priKept        int
	reduceCalls, reduceProps int
	reduced                  int // reductions that produced a result
	stateBytes               int
}

// add folds another replay's counters into s.
func (s *replayStats) add(o replayStats) {
	s.cases += o.cases
	s.valid += o.valid
	s.setupTotal += o.setupTotal
	s.setupOK += o.setupOK
	s.detected += o.detected
	s.checks += o.checks
	s.queries += o.queries
	s.rows += o.rows
	s.plandiffs += o.plandiffs
	s.plansNovel += o.plansNovel
	s.plansRepeat += o.plansRepeat
	s.priCalls += o.priCalls
	s.priKept += o.priKept
	s.reduceCalls += o.reduceCalls
	s.reduceProps += o.reduceProps
	s.reduced += o.reduced
	s.stateBytes += o.stateBytes
}

// replay is one replayed campaign.
type replay struct {
	cfg     replayConfig
	tr      *Tracer
	tracker *feedback.Tracker
	g       *gen.Generator
	pri     *prioritize.Prioritizer
	sched   []oracle.Oracle
	pairs   *feedback.PairTracker
	memo    *oracle.PlanEnumMemo
	db      *engine.DB
	setup   []*gen.Statement
	st      replayStats
	// bugs keeps what the Runner's report keeps of each prioritized bug,
	// so the replay's live heap, which paces the GC, matches the Runner's.
	bugs []keptBug
}

// keptBug is the part of a prioritized bug case a campaign report holds.
type keptBug struct {
	setup, reduced, features, triggered []string
}

// newReplay builds the campaign's components as campaign.New does,
// inside a campaign.new span (with the state load as a child span).
func newReplay(cfg replayConfig, tr *Tracer) (*replay, error) {
	sp := tr.Begin(spanNew)
	defer tr.End(sp)
	tracker := feedback.New(feedback.WithThreshold(replayThreshold))
	if cfg.state != nil {
		ld := tr.Begin(spanLoad)
		err := tracker.Load(cfg.state)
		tr.End(ld)
		if err != nil {
			return nil, fmt.Errorf("loading feedback state: %w", err)
		}
	}
	selected, err := oracle.Select(oracle.DefaultNames())
	if err != nil {
		return nil, err
	}
	return &replay{
		cfg:     cfg,
		tr:      tr,
		tracker: tracker,
		g:       gen.New(gen.Config{Seed: cfg.seed, Policy: tracker}),
		pri:     prioritize.New(),
		sched:   oracle.Schedule(selected),
		pairs:   feedback.NewPairTracker(),
		memo:    oracle.NewPlanEnumMemo(),
	}, nil
}

// run replays the campaign's test cases and returns its counters.
func (r *replay) run() replayStats {
	casesInDB := replayCasesPerDB
	for i := 0; i < r.cfg.cases; i++ {
		if r.cfg.perCase {
			r.tr.SetUnit(i + 1)
		}
		if casesInDB >= replayCasesPerDB {
			r.newDatabase()
			casesInDB = 0
		}
		if i%replaySmokeEvery == 0 {
			r.smokeQuery()
		}
		r.oracleCase()
		casesInDB++
	}
	// finishReport: persist both trackers' states.
	sp := r.tr.Begin(spanSave)
	state, err := r.tracker.Save()
	if err == nil {
		r.st.stateBytes = len(state)
	}
	_, _ = r.pairs.SaveState() // only its cost matters here
	r.tracker.Unsupported()
	r.tr.End(sp)
	return r.st
}

func (r *replay) newDatabase() {
	sp := r.tr.Begin(spanEpochSetup)
	defer r.tr.End(sp)
	op := r.tr.Begin(spanEngineOpen)
	r.db = engine.Open(r.cfg.dialect, engine.WithBatchSize(engine.DefaultBatchSize))
	r.tr.End(op)
	r.memo.Reset()
	r.g.ResetModel()
	r.setup = nil
	for i := 0; i < replaySetupStmts; i++ {
		r.execSetup(r.genSetup())
	}
	for i := 0; i < 10 && len(r.g.Model().Tables()) == 0; i++ {
		r.execSetup(r.genSetup())
	}
}

func (r *replay) genSetup() *gen.Statement {
	sp := r.tr.Begin(spanGenSetup)
	defer r.tr.End(sp)
	return r.g.GenSetup()
}

// exec runs one statement under a recovery boundary, in a span.
func (r *replay) exec(span string, st *gen.Statement) (err error, crashed bool) {
	sp := r.tr.Begin(span)
	defer r.tr.End(sp)
	defer func() {
		if p := recover(); p != nil {
			crashed = true
			r.harnessCrash(st.Stmt, st.Features)
		}
	}()
	return r.db.Exec(st.SQL), false
}

func (r *replay) execSetup(st *gen.Statement) {
	err, crashed := r.exec(spanSetupExec, st)
	if crashed {
		return
	}
	r.st.setupTotal++
	ok := err == nil
	if ok {
		r.st.setupOK++
		if st.OnSuccess != nil {
			st.OnSuccess()
		}
		r.setup = append(r.setup, st)
	}
	ddl, expr := splitSetupFeatures(st.Features)
	sp := r.tr.Begin(spanRecord)
	r.tracker.RecordDDL(ddl, ok)
	if len(expr) > 0 {
		r.tracker.RecordQuery(expr, ok)
	}
	r.tr.End(sp)
	r.execError(st, err)
	if ins, isInsert := st.Stmt.(*sqlast.Insert); ok && isInsert && r.cfg.dialect.RequiresRefresh {
		gs := r.tr.Begin(spanGenSetup)
		ref := r.g.GenRefresh(ins.Table)
		r.tr.End(gs)
		if rerr, rcrashed := r.exec(spanSetupExec, ref); !rcrashed && rerr == nil {
			r.setup = append(r.setup, ref)
		}
	}
}

func (r *replay) smokeQuery() {
	sp := r.tr.Begin(spanGenQuery)
	st := r.g.GenQuery()
	if r.st.cases%3 == 0 {
		if cq := r.g.GenCompoundQuery(); cq != nil {
			st = cq
		}
	}
	r.tr.End(sp)
	err, crashed := r.exec(spanSmokeExec, st)
	if crashed {
		return
	}
	rec := r.tr.Begin(spanRecord)
	r.tracker.RecordQuery(st.Features, err == nil)
	r.tr.End(rec)
	r.execError(st, err)
}

func (r *replay) oracleCase() {
	sp := r.tr.Begin(spanGenCase)
	oc := r.g.GenOracleCase()
	r.tr.End(sp)
	r.st.cases++
	if oc == nil {
		return
	}
	c := &oracle.Case{Base: oc.Base, Pred: oc.Pred, Seq: r.st.cases, Pairs: r.pairs, Enum: r.memo}
	orc := r.pickOracle(c)
	rows := r.db.TotalCost()
	res, crashed := r.check(orc, c, oc)
	r.st.rows += r.db.TotalCost() - rows
	if crashed {
		return
	}
	r.st.checks++
	r.st.queries += len(res.Queries)
	if res.Oracle == oracle.PlanDiffName {
		r.st.plandiffs++
		r.st.plansNovel += res.PairsNovel
		r.st.plansRepeat += res.PairsRepeated
	}
	rec := r.tr.Begin(spanRecord)
	r.tracker.RecordQuery(oc.Features, res.Outcome != oracle.Invalid)
	r.tr.End(rec)
	switch res.Outcome {
	case oracle.OK:
		r.st.valid++
	case oracle.Invalid:
		if res.Err != nil && engine.IsCrash(res.Err) {
			r.recordBug("crash", res.Oracle, res.Triggered, oc.Features, nil, nil)
			r.db.Restart()
		} else if res.Err != nil && engine.IsInternal(res.Err) {
			r.recordBug("error", res.Oracle, res.Triggered, oc.Features, nil, nil)
		}
	case oracle.Bug:
		r.st.valid++
		r.recordBug("logic", res.Oracle, res.Triggered, oc.Features, &res, oc)
	}
}

// pickOracle is the rotation slot, or the next applicable oracle.
func (r *replay) pickOracle(c *oracle.Case) oracle.Oracle {
	n := len(r.sched)
	start := (r.st.cases - 1) % n
	for i := 0; i < n; i++ {
		if o := r.sched[(start+i)%n]; o.Applicable(r.db, c) {
			return o
		}
	}
	return r.sched[start]
}

func (r *replay) check(orc oracle.Oracle, c *oracle.Case, oc *gen.OracleCase) (res oracle.Result, crashed bool) {
	sp := r.tr.Begin(spanCheckPrefix + string(orc.Name()))
	defer r.tr.End(sp)
	defer func() {
		if p := recover(); p != nil {
			crashed = true
			carrier := sqlast.CloneSelect(oc.Base)
			carrier.Where = sqlast.CloneExpr(oc.Pred)
			r.harnessCrash(carrier, oc.Features)
		}
	}()
	return orc.Check(r.db, c), false
}

// execError turns crashes and internal errors of non-oracle statements
// into bug cases.
func (r *replay) execError(st *gen.Statement, err error) {
	switch {
	case err == nil:
	case engine.IsCrash(err):
		r.recordBug("crash", "", r.db.TriggeredFaults(), st.Features, nil, nil)
		r.db.Restart()
	case engine.IsInternal(err):
		r.recordBug("error", "", r.db.TriggeredFaults(), st.Features, nil, nil)
	}
}

// harnessCrash records a recovered engine panic and restarts the instance.
func (r *replay) harnessCrash(trigger sqlast.Stmt, features []string) {
	if r.recordBug("harness", "", r.db.TriggeredFaults(), features, nil, nil) && r.cfg.reduce {
		r.bugs[len(r.bugs)-1].reduced = r.reduceHarness(trigger)
	}
	r.db.Restart()
}

// recordBug counts a bug case, runs the prioritizer, and reduces a
// prioritized logic bug. It reports whether the prioritizer kept the case.
func (r *replay) recordBug(class string, orc oracle.Name, triggered, features []string, res *oracle.Result, oc *gen.OracleCase) bool {
	r.st.detected++
	sp := r.tr.Begin(spanPrioritize)
	kept := r.pri.Report(prioritizerFeatures(features))
	r.tr.End(sp)
	r.st.priCalls++
	if !kept {
		return false
	}
	r.st.priKept++
	bug := keptBug{features: features, triggered: triggered}
	for _, st := range r.setup {
		bug.setup = append(bug.setup, st.SQL)
	}
	if r.cfg.reduce && class == "logic" && oc != nil {
		bug.reduced = r.reduceLogic(orc, res, oc)
	}
	r.bugs = append(r.bugs, bug)
	return true
}

// reduceLogic shrinks a logic bug's statements while the same oracle
// keeps failing on fresh instances, as the campaign's reducer does.
func (r *replay) reduceLogic(name oracle.Name, res *oracle.Result, oc *gen.OracleCase) []string {
	orc, ok := oracle.Get(name)
	if !ok {
		return nil
	}
	seq := r.st.cases
	var stmts []sqlast.Stmt
	for _, s := range r.setup {
		stmts = append(stmts, sqlast.CloneStmt(s.Stmt))
	}
	carrier := sqlast.CloneSelect(oc.Base)
	carrier.Where = sqlast.CloneExpr(oc.Pred)
	stmts = append(stmts, carrier)
	prop := func(cand []sqlast.Stmt) bool {
		sp := r.tr.Begin(spanReplay)
		defer r.tr.End(sp)
		r.st.reduceProps++
		if len(cand) == 0 {
			return false
		}
		carrier, ok := cand[len(cand)-1].(*sqlast.Select)
		if !ok || carrier.Where == nil {
			return false
		}
		db := engine.Open(r.cfg.dialect, engine.WithBatchSize(engine.DefaultBatchSize))
		replayStmts(db, cand[:len(cand)-1])
		cb := sqlast.CloneSelect(carrier)
		cp := cb.Where
		cb.Where = nil
		out, panicked := checkNoPanic(orc, db, &oracle.Case{Base: cb, Pred: cp, Seq: seq, PlanSpec: res.PlanSpec})
		return !panicked && out.Outcome == oracle.Bug
	}
	return r.runReduce(stmts, prop)
}

// reduceHarness shrinks a panicking sequence while its replay still panics.
func (r *replay) reduceHarness(trigger sqlast.Stmt) []string {
	var stmts []sqlast.Stmt
	for _, s := range r.setup {
		stmts = append(stmts, sqlast.CloneStmt(s.Stmt))
	}
	stmts = append(stmts, sqlast.CloneStmt(trigger))
	prop := func(cand []sqlast.Stmt) bool {
		sp := r.tr.Begin(spanReplay)
		defer r.tr.End(sp)
		r.st.reduceProps++
		db := engine.Open(r.cfg.dialect, engine.WithBatchSize(engine.DefaultBatchSize))
		for _, st := range cand {
			if execPanics(db, st) {
				return true
			}
		}
		return false
	}
	return r.runReduce(stmts, prop)
}

// runReduce checks that the bug reproduces from a pristine state, then
// reduces it, all inside one reduce.reduce span, and renders the result.
func (r *replay) runReduce(stmts []sqlast.Stmt, prop reduce.Property) []string {
	sp := r.tr.Begin(spanReduce)
	defer r.tr.End(sp)
	r.st.reduceCalls++
	if !prop(stmts) {
		return nil
	}
	reduced := reduce.Reduce(stmts, prop)
	r.st.reduced++
	out := make([]string, len(reduced))
	for i, st := range reduced {
		out[i] = st.SQL()
	}
	return out
}

func checkNoPanic(orc oracle.Oracle, db *engine.DB, c *oracle.Case) (res oracle.Result, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return orc.Check(db, c), false
}

func execPanics(db *engine.DB, st sqlast.Stmt) (panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	if err := db.Exec(st.SQL()); err != nil && engine.IsCrash(err) {
		db.Restart()
	}
	return false
}

func replayStmts(db *engine.DB, stmts []sqlast.Stmt) {
	for _, st := range stmts {
		if execPanics(db, st) {
			db.Restart()
		}
	}
}

// The feature projections below mirror the campaign's: prioritization
// dedupes on core language features, and the DDL consecutive-failure
// rule judges statement-level features only.

var coreFeatures = func() map[string]bool {
	m := map[string]bool{"~": true}
	for _, list := range [][]string{feature.BinaryOperators, feature.ExprForms, feature.Joins, feature.Aggregates} {
		for _, f := range list {
			m[f] = true
		}
	}
	for _, f := range []string{feature.Subquery, feature.DerivedTable, feature.Distinct,
		feature.GroupBy, feature.Having, feature.PartialIndex} {
		m[f] = true
	}
	return m
}()

func prioritizerFeatures(features []string) []string {
	var out []string
	for _, f := range features {
		if !strings.ContainsRune(f, '#') && (coreFeatures[f] || engine.LookupFunc(f) != nil) {
			out = append(out, f)
		}
	}
	return out
}

var setupFeatures = func() map[string]bool {
	m := map[string]bool{}
	for _, f := range feature.Statements {
		m[f] = true
	}
	for _, f := range []string{feature.StmtDropTable, feature.StmtDropView, feature.StmtDropIndex,
		feature.StmtReindex, feature.UniqueIndex, feature.PartialIndex, feature.PrimaryKey,
		feature.NotNullColumn, feature.UniqueColumn, feature.InsertOrIgnore, feature.InsertMultiRow,
		feature.ViewColumnNames} {
		m[f] = true
	}
	return m
}()

func splitSetupFeatures(features []string) (ddl, expr []string) {
	for _, f := range features {
		if setupFeatures[f] {
			ddl = append(ddl, f)
		} else {
			expr = append(expr, f)
		}
	}
	return ddl, expr
}
