package main

import (
	"fmt"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"sqlancerpp"
	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/par"
	"sqlancerpp/internal/sqlparse"
)

// measured is what an untraced call cost the process: wall time, parse
// cache traffic and Go runtime work.
type measured struct {
	wall          time.Duration
	hits, misses  uint64
	allocBytes    uint64
	gcCycles      uint64
	gcCPU, allCPU float64
	heapPeakMB    float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// measure runs fn untraced and records its cost.
func measure(fn func() error) (measured, error) {
	h0, m0 := sqlparse.Shared().Stats()
	r0 := readRuntime()
	hs := startHeapSampler()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	peak := hs.Stop()
	r1 := readRuntime()
	h1, m1 := sqlparse.Shared().Stats()
	return measured{
		wall:       wall,
		hits:       h1 - h0,
		misses:     m1 - m0,
		allocBytes: r1[0].Value.Uint64() - r0[0].Value.Uint64(),
		gcCycles:   r1[1].Value.Uint64() - r0[1].Value.Uint64(),
		gcCPU:      r1[2].Value.Float64() - r0[2].Value.Float64(),
		allCPU:     r1[3].Value.Float64() - r0[3].Value.Float64(),
		heapPeakMB: peak,
	}, err
}

// traceResult collects one traced run's inputs to the per-layer metrics.
type traceResult struct {
	st    replayStats
	spans []Span
	// untraced is the measured real campaign or request loop; cases and
	// valid are its counts, cps its cases per second.
	untraced     measured
	cases, valid int
	detected     int
	cps          float64
	// replayCPS is the replay's cases per second; replayBusy the
	// time its callers spent replaying.
	replayCPS       float64
	replayBusy      time.Duration
	reduceShare     float64
	checkpointShare float64
	reduceKept      float64
	busyRatio       float64
}

// layerMetrics derives the per-layer metrics of a traced run.
func layerMetrics(t traceResult) map[string]Metric {
	stats := spanStats(t.spans)
	printSelfTimes(stats)
	st := t.st
	m := t.untraced
	kcases := float64(t.cases) / 1000
	out := map[string]Metric{
		"campaign.checkpoint_share": {t.checkpointShare, "ratio"},
		"campaign.epoch_setup_ms":   {stat(stats, spanEpochSetup).meanUS() / 1e3, "ms"},
		"campaign.new_us":           {stat(stats, spanNew).meanUS(), "us"},

		"gen.setup_us": {stat(stats, spanGenSetup).meanSelfUS(), "us"},
		"gen.case_us":  {stat(stats, spanGenCase).meanSelfUS(), "us"},
		"gen.query_us": {stat(stats, spanGenQuery).meanSelfUS(), "us"},

		"sqlparse.lookups_per_case": {ratio(float64(m.hits+m.misses), float64(t.cases)), "count"},
		"sqlparse.hit_ratio":        {ratio(float64(m.hits), float64(m.hits+m.misses)), "ratio"},

		"engine.setup_exec_us":  {stat(stats, spanSetupExec).meanSelfUS(), "us"},
		"engine.setup_ok_ratio": {ratio(float64(st.setupOK), float64(st.setupTotal)), "ratio"},
		"engine.smoke_exec_us":  {stat(stats, spanSmokeExec).meanSelfUS(), "us"},
		"engine.rows_per_check": {ratio(float64(st.rows), float64(st.checks)), "count"},

		"oracle.queries_per_check":    {ratio(float64(st.queries), float64(st.checks)), "count"},
		"oracle.valid_ratio":          {ratio(float64(st.valid), float64(st.cases)), "ratio"},
		"oracle.plans_per_plandiff":   {ratio(float64(st.plansNovel+st.plansRepeat), float64(st.plandiffs)), "count"},
		"oracle.plandiff_novel_ratio": {ratio(float64(st.plansNovel), float64(st.plansNovel+st.plansRepeat)), "ratio"},

		"feedback.record_us": {stat(stats, spanRecord).meanSelfUS(), "us"},
		"feedback.load_us":   {stat(stats, spanLoad).meanSelfUS(), "us"},
		"feedback.save_us":   {stat(stats, spanSave).meanSelfUS(), "us"},
		"feedback.state_kb":  {ratio(float64(st.stateBytes)/1024, float64(stat(stats, spanSave).count)), "KiB"},

		"prioritize.report_us":  {stat(stats, spanPrioritize).meanSelfUS(), "us"},
		"prioritize.kept_ratio": {ratio(float64(st.priKept), float64(st.priCalls)), "ratio"},

		"reduce.share":            {t.reduceShare, "ratio"},
		"reduce.calls":            {float64(st.reduceCalls), "count"},
		"reduce.ms_p50":           {median(stat(stats, spanReduce).durs), "ms"},
		"reduce.replays_per_call": {ratio(float64(st.reduceProps), float64(st.reduceCalls)), "count"},
		"reduce.kept":             {t.reduceKept, "ratio"},
		"reduce.span_share":       {ratio(float64(stat(stats, spanReduce).total), float64(t.replayBusy)), "ratio"},

		"client.busy_ratio": {t.busyRatio, "ratio"},

		"runtime.gc_cpu_fraction":     {ratio(m.gcCPU, m.allCPU), "ratio"},
		"runtime.alloc_mb_per_kcase":  {ratio(float64(m.allocBytes)/(1<<20), kcases), "MB"},
		"runtime.gc_cycles_per_kcase": {ratio(float64(m.gcCycles), kcases), "count"},
		"runtime.heap_peak_mb":        {m.heapPeakMB, "MB"},

		"trace.overhead_ratio": {1 - ratio(t.replayCPS, t.cps), "ratio"},
		"trace.valid_match":    {ratio(float64(st.valid), float64(t.valid)), "ratio"},
		"trace.bugs_match":     {ratio(float64(st.detected), float64(t.detected)), "ratio"},
	}
	for _, o := range sqlancerpp.Oracles() {
		out["oracle.check_us."+o] = Metric{stat(stats, spanCheckPrefix+o).meanUS(), "us"}
	}
	fmt.Printf("replay vs untraced: cases %d vs %d, valid %d vs %d, detected %d vs %d, %.0f vs %.0f cases/s\n",
		st.cases, t.cases, st.valid, t.valid, st.detected, t.detected, t.replayCPS, t.cps)
	return out
}

// prediction is one expected per-layer outcome of a workload. The traced
// run checks and prints each; a failed prediction is reported, never tuned
// away, and does not make the run incorrect.
type prediction struct {
	metric string
	expect string
	holds  func(v float64) bool
}

var predictions = map[string][]prediction{
	"campaign-serial": {
		{"campaign.checkpoint_share", "0 (no checkpoint on this path)", func(v float64) bool { return v == 0 }},
		{"reduce.share", "small (below 0.13)", func(v float64) bool { return v < 0.13 }},
	},
	"shard-requests": {
		{"campaign.checkpoint_share", "0 (no checkpoint on this path)", func(v float64) bool { return v == 0 }},
		{"reduce.share", "about a quarter (0.15 to 0.40)", func(v float64) bool { return v >= 0.15 && v <= 0.40 }},
	},
	"sharded-checkpoint": {
		{"campaign.checkpoint_share", "large (above 0.25)", func(v float64) bool { return v > 0.25 }},
	},
}

// printPredictions checks the workload's predictions against its metrics.
func printPredictions(workload string, metrics map[string]Metric) {
	for _, pr := range predictions[workload] {
		v := metrics[pr.metric].Value
		verdict := "held"
		if !pr.holds(v) {
			verdict = "FAILED"
		}
		fmt.Printf("prediction %s: %s = %.4f, expected %s: %s\n", workload, pr.metric, v, pr.expect, verdict)
	}
}

// share is (with - without) / with: the part of a run's wall time a
// feature costs, from two same-seed runs.
func share(with, without time.Duration) float64 {
	return ratio(float64(with-without), float64(with))
}

// mirrored times same-seed variants of one run for a differential. Each
// variant runs twice, in the order v0 v1 … vn vn … v1 v0, so drift over
// the run weighs every variant alike. runs[i] holds variant i's two
// measurements in order; the very first, v0 in a fresh process like a CLI
// user's run, also supplies the runtime and parse-cache figures, and a
// variant's second run is warm, the fair reference for the replay.
func mirrored(vs ...func() error) (runs [][]measured, err error) {
	runs = make([][]measured, len(vs))
	order := make([]int, 0, 2*len(vs))
	for i := range vs {
		order = append(order, i)
	}
	for i := len(vs) - 1; i >= 0; i-- {
		order = append(order, i)
	}
	for _, i := range order {
		m, err := measure(vs[i])
		if err != nil {
			return nil, err
		}
		runs[i] = append(runs[i], m)
	}
	return runs, nil
}

// meanWall is a variant's mean wall time over its runs.
func meanWall(ms []measured) time.Duration {
	var sum time.Duration
	for _, m := range ms {
		sum += m.wall
	}
	return sum / time.Duration(len(ms))
}

// traceCampaignSerial: the campaign-serial campaign untraced with
// reduction on and off, then replayed with spans.
func traceCampaignSerial(p params, seed int64) (*Result, error) {
	var g gate
	opts := serialOptions(p)(deriveSeed(seed, 0))
	noReduce := opts
	noReduce.Reduce = false
	var on, off *sqlancerpp.Report
	runs, err := mirrored(
		func() (err error) { on, err = sqlancerpp.Run(opts); return err },
		func() (err error) { off, err = sqlancerpp.Run(noReduce); return err })
	if err != nil {
		return nil, err
	}
	onWall, offWall := meanWall(runs[0]), meanWall(runs[1])
	g.countCampaign("untraced campaign", on, opts.TestCases)
	g.expect(off.TestCases == on.TestCases && off.ValidCases == on.ValidCases && off.Detected == on.Detected,
		"reduction changed the campaign's cases")
	fmt.Printf("reduction on %.3f s, off %.3f s\n", onWall.Seconds(), offWall.Seconds())

	d, err := dialect.Get(opts.DBMS)
	if err != nil {
		return nil, err
	}
	epoch := time.Now()
	tr := newTracer(epoch)
	r, err := newReplay(replayConfig{dialect: d, cases: opts.TestCases, seed: opts.Seed, reduce: true, perCase: true}, tr)
	if err != nil {
		return nil, err
	}
	st := r.run()
	replayWall := time.Since(epoch)
	spans := mergeSpans(tr)
	tr.Close()
	if err := emitSpans(p, "campaign-serial", seed, spans); err != nil {
		return nil, err
	}
	return g.result(layerMetrics(traceResult{
		st: st, spans: spans, untraced: runs[0][0],
		cases: on.TestCases, valid: on.ValidCases, detected: on.Detected,
		cps:         float64(on.TestCases) / runs[0][1].wall.Seconds(),
		replayCPS:   float64(st.cases) / replayWall.Seconds(),
		replayBusy:  replayWall,
		reduceShare: share(onWall, offWall),
		reduceKept:  ratio(float64(st.reduced), float64(st.reduceCalls)),
		busyRatio:   1, // one caller, never idle between calls
	}), digest(on)), nil
}

// emitSpans writes a traced run's spans under the trace directory.
func emitSpans(p params, workload string, seed int64, spans []Span) error {
	path, err := writeSpans(filepath.Join(p.WorkDir, "traces"), fmt.Sprintf("%s-seed%d.csv", workload, seed), spans)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("%d spans written to %s\n", len(spans), path)
	return nil
}

// fixedLoop is the traced run's request loop: exactly the least work's
// requests, so the reduction-on and -off loops serve the same inputs.
func fixedLoop(p params, do func(client, k int) (*sqlancerpp.Report, error),
	keep func(k int, rep *sqlancerpp.Report, err error) request) ([]request, time.Duration) {
	return closedLoop(p, p.MinRequests, do, keep)
}

// busyTime is the time clients spent in requests.
func busyTime(reqs []request) time.Duration {
	var sum time.Duration
	for _, r := range reqs {
		sum += r.duration
	}
	return sum
}

// traceShardRequests: the least work's requests untraced, again with
// reduction off, then replayed with one tracer per client.
func traceShardRequests(p params, seed int64) (*Result, error) {
	var g gate
	states, err := learnStates(p, seed)
	if err != nil {
		return nil, err
	}
	run := func(reduce bool) func(int, int) (*sqlancerpp.Report, error) {
		return func(_, k int) (*sqlancerpp.Report, error) {
			o := requestOptions(p, seed, k, states)
			o.Reduce = reduce
			return sqlancerpp.Run(o)
		}
	}
	keep := func(k int, rep *sqlancerpp.Report, err error) request {
		return summarize(k, requestOptions(p, seed, k, states), rep, err)
	}
	var on, off []request
	var loopWall time.Duration
	runs, _ := mirrored(
		func() error { on, loopWall = fixedLoop(p, run(true), keep); return nil },
		func() error { off, _ = fixedLoop(p, run(false), keep); return nil })
	onWall, offWall := meanWall(runs[0]), meanWall(runs[1])
	fmt.Printf("reduction on %.3f s, off %.3f s\n", onWall.Seconds(), offWall.Seconds())
	cases, valid, detected := 0, 0, 0
	for i, r := range on {
		g.merge(r.gate)
		cases += r.cases
		valid += r.valid
		detected += r.detected
		g.expect(r.cases == off[i].cases && r.detected == off[i].detected, "reduction changed request %d's cases", r.k)
	}

	epoch := time.Now()
	tracers := make([]*Tracer, p.Workers)
	stats := make([]replayStats, p.Workers)
	for i := range tracers {
		tracers[i] = newTracer(epoch)
	}
	replayed, _ := fixedLoop(p, func(client, k int) (*sqlancerpp.Report, error) {
		o := requestOptions(p, seed, k, states)
		d, err := dialect.Get(o.DBMS)
		if err != nil {
			return nil, err
		}
		tr := tracers[client]
		tr.SetUnit(k)
		rp, err := newReplay(replayConfig{dialect: d, cases: o.TestCases, seed: o.Seed, reduce: true, state: o.FeedbackState}, tr)
		if err != nil {
			return nil, err
		}
		stats[client].add(rp.run())
		return nil, nil
	}, func(k int, _ *sqlancerpp.Report, err error) request {
		r := request{k: k}
		if err != nil {
			r.gate.countError(fmt.Sprintf("replayed request %d", k), 0, err)
		}
		return r
	})
	var st replayStats
	for _, s := range stats {
		st.add(s)
	}
	for _, r := range replayed {
		g.merge(r.gate)
	}
	spans := mergeSpans(tracers...)
	for _, tr := range tracers {
		tr.Close()
	}
	if err := emitSpans(p, "shard-requests", seed, spans); err != nil {
		return nil, err
	}
	return g.result(layerMetrics(traceResult{
		st: st, spans: spans, untraced: runs[0][0],
		cases: cases, valid: valid, detected: detected,
		// Compare the time clients spent inside calls, which leaves out
		// the benchmark's own per-request checks.
		cps:         float64(cases) * float64(p.Workers) / busyTime(on).Seconds(),
		replayCPS:   float64(st.cases) * float64(p.Workers) / busyTime(replayed).Seconds(),
		replayBusy:  busyTime(replayed),
		reduceShare: share(onWall, offWall),
		reduceKept:  ratio(float64(st.reduced), float64(st.reduceCalls)),
		busyRatio:   ratio(float64(busyTime(on)), float64(p.Workers)*float64(loopWall)),
	}), requestsDigest(on)), nil
}

// shardSeeds reproduces the sharded runner's partition: one epoch of
// replayCasesPerDB cases per shard, seeds from the splitmix64 sequence
// started at the campaign seed.
func shardSeeds(seed int64, cases int) (seeds []int64, sizes []int) {
	n := (cases + replayCasesPerDB - 1) / replayCasesPerDB
	x := uint64(seed)
	for i := 0; i < n; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		seeds = append(seeds, int64(z^(z>>31)))
		sizes = append(sizes, min(replayCasesPerDB, cases-i*replayCasesPerDB))
	}
	return seeds, sizes
}

// traceShardedCheckpoint: same-seed differential runs on the real
// sharded path (checkpoint on and off, reduction off), then every shard
// replayed with spans over the same par pool.
func traceShardedCheckpoint(p params, seed int64) (*Result, error) {
	var g gate
	ckpt, cleanup, err := checkpointPath(p)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	opts := shardedOptions(p, ckpt)(deriveSeed(seed, 0))
	noCkpt := opts
	noCkpt.Checkpoint = ""
	noReduce := opts
	noReduce.Reduce = false
	var ck, plain, unreduced *sqlancerpp.Report
	runs, err := mirrored(
		func() (err error) { ck, err = sqlancerpp.Run(opts); return err },
		func() (err error) { plain, err = sqlancerpp.Run(noCkpt); return err },
		func() (err error) { unreduced, err = sqlancerpp.Run(noReduce); return err })
	if err != nil {
		return nil, err
	}
	g.countCampaign("checkpointed campaign", ck, opts.TestCases)
	g.expect(digest(ck) == digest(plain), "sharded digest differs with and without checkpoint: %s vs %s", digest(ck), digest(plain))
	g.expect(unreduced.TestCases == ck.TestCases && unreduced.Detected == ck.Detected, "reduction changed the campaign's cases")
	ckWall, plainWall, unreducedWall := meanWall(runs[0]), meanWall(runs[1]), meanWall(runs[2])
	fmt.Printf("checkpoint on %.3f s, off %.3f s, reduction off %.3f s\n",
		ckWall.Seconds(), plainWall.Seconds(), unreducedWall.Seconds())

	d, err := dialect.Get(opts.DBMS)
	if err != nil {
		return nil, err
	}
	seeds, sizes := shardSeeds(opts.Seed, opts.TestCases)
	tracers := make([]*Tracer, len(seeds))
	stats := make([]replayStats, len(seeds))
	durs := make([]time.Duration, len(seeds))
	epoch := time.Now()
	var mu sync.Mutex
	err = par.ForEach(len(seeds), p.Workers, func(i int) error {
		t0 := time.Now()
		tr := newTracer(epoch)
		tr.SetUnit(i)
		r, err := newReplay(replayConfig{dialect: d, cases: sizes[i], seed: seeds[i], reduce: true}, tr)
		if err != nil {
			return err
		}
		s := r.run()
		mu.Lock()
		tracers[i], stats[i], durs[i] = tr, s, time.Since(t0)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	replayWall := time.Since(epoch)
	var st replayStats
	var busySum time.Duration
	for i := range stats {
		st.add(stats[i])
		busySum += durs[i]
	}
	kept := 0
	for _, b := range ck.Bugs {
		if len(b.Reduced) > 0 {
			kept++
		}
	}
	spans := mergeSpans(tracers...)
	for _, tr := range tracers {
		tr.Close()
	}
	if err := emitSpans(p, "sharded-checkpoint", seed, spans); err != nil {
		return nil, err
	}
	fmt.Printf("shard reductions %d, kept by the merge %d\n", st.reduced, kept)
	return g.result(layerMetrics(traceResult{
		st: st, spans: spans, untraced: runs[0][0],
		cases: ck.TestCases, valid: ck.ValidCases, detected: ck.Detected,
		// The replay writes no checkpoint: compare it with the plain run.
		cps:             float64(plain.TestCases) / runs[1][1].wall.Seconds(),
		replayCPS:       float64(st.cases) / replayWall.Seconds(),
		replayBusy:      busySum,
		reduceShare:     share(ckWall, unreducedWall),
		checkpointShare: share(ckWall, plainWall),
		reduceKept:      ratio(float64(kept), float64(st.reduced)),
		busyRatio:       ratio(float64(busySum), float64(p.Workers)*float64(replayWall)),
	}), digest(ck)), nil
}
