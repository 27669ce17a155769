package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sqlancerpp"
	"sqlancerpp/internal/par"
)

// Workload constants: the dialect of each single-dialect workload.
const (
	serialDBMS  = "cratedb" // the CLI's paper case study; no index DDL
	shardedDBMS = "monetdb" // most index-path faults: planner and index maintenance run
)

// deriveSeed maps (seed, i) to the seed of a run's i-th campaign or
// request (splitmix64 finalizer), so inputs depend on --seed alone.
func deriveSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Nominal throughputs of the reference host (2-core Xeon, Go 1.24). A
// run's work is fixed by --seed and --seconds alone: as many campaigns or
// requests as that host completes in --seconds. So the same seed gives
// the same operations, counts and failures on every run, and a faster
// program finishes the same work sooner.
const (
	serialCasesPerSecond  = 4000 // campaign-serial, on one P
	shardedCasesPerSecond = 5800 // sharded-checkpoint
	requestsPerSecond     = 45   // shard-requests, nproc = 2
)

// campaignsFor is how many campaigns of size cases a run makes: --seconds
// worth at the nominal rate, and at least p.MinCases cases.
func campaignsFor(p params, size int, casesPerSecond float64) int {
	n := int(math.Round(p.Seconds * casesPerSecond / float64(size)))
	return max(n, (p.MinCases+size-1)/size, 1)
}

// requestsFor is how many requests a shard-requests run sends.
func requestsFor(p params) int {
	return max(int(math.Round(p.Seconds*requestsPerSecond)), p.MinRequests, 1)
}

// campaignRun is one timed campaign of a repeated-campaign workload. Only
// its counts are kept, so memory does not grow with the run.
type campaignRun struct {
	cases, valid, unique int
	digest               string
	wall                 time.Duration
}

// repeatCampaigns runs n campaigns with derived seeds. The campaign size
// stays fixed, so the layer mix does not drift with the run's length.
func repeatCampaigns(n int, seed int64, g *gate, opts func(seed int64) sqlancerpp.Options) []campaignRun {
	var runs []campaignRun
	for i := 0; i < n; i++ {
		o := opts(deriveSeed(seed, i))
		t0 := time.Now()
		rep, err := sqlancerpp.Run(o)
		wall := time.Since(t0)
		what := fmt.Sprintf("campaign %d (%s, seed %d)", i, o.DBMS, o.Seed)
		if err != nil {
			g.countError(what, o.TestCases, err)
			continue
		}
		g.countCampaign(what, rep, o.TestCases)
		r := campaignRun{rep.TestCases, rep.ValidCases, rep.UniqueBugs, digest(rep), wall}
		fmt.Printf("%s: digest %s, %d cases, %d valid, %d unique bugs, %.3f s\n",
			what, r.digest, r.cases, r.valid, r.unique, wall.Seconds())
		runs = append(runs, r)
	}
	return runs
}

// campaignMetrics reports the end-to-end metrics of repeated campaigns:
// per-campaign throughputs and latencies as medians, and unique bugs as
// the mean over the campaigns.
func campaignMetrics(runs []campaignRun, setup time.Duration) map[string]Metric {
	var cps, vps, lat, unique []float64
	for _, r := range runs {
		cps = append(cps, float64(r.cases)/r.wall.Seconds())
		vps = append(vps, float64(r.valid)/r.wall.Seconds())
		lat = append(lat, ms(r.wall))
		unique = append(unique, float64(r.unique))
	}
	return map[string]Metric{
		"setup_s":           {setup.Seconds(), "s"},
		"cases_per_s":       {median(cps), "1/s"},
		"valid_cases_per_s": {median(vps), "1/s"},
		"unique_bugs":       {mean(unique), "count"},
		"peak_rss_mb":       {peakRSSMB(), "MB"},
		"request_ms_p50":    {median(lat), "ms"},
		"request_ms_p95":    {quantile(lat, 0.95), "ms"},
	}
}

// serialOptions is one campaign-serial campaign: the CLI default (every
// oracle, reduction on, serial runner) on cratedb.
func serialOptions(p params) func(int64) sqlancerpp.Options {
	return func(seed int64) sqlancerpp.Options {
		return sqlancerpp.Options{DBMS: serialDBMS, TestCases: p.SerialCases, Seed: seed, Reduce: true}
	}
}

// runCampaignSerial: one long serial adaptive campaign after another.
func runCampaignSerial(p params, seed int64) (*Result, error) {
	var g gate
	setup, err := processSetup(p)
	if err != nil {
		return nil, err
	}
	n := campaignsFor(p, p.SerialCases, serialCasesPerSecond)
	runs := repeatCampaigns(n, seed, &g, serialOptions(p))
	return g.result(campaignMetrics(runs, setup), runDigest(runs)), nil
}

// runDigest hashes the digests of a run's campaigns.
func runDigest(runs []campaignRun) string {
	var ds []string
	for _, r := range runs {
		ds = append(ds, r.digest)
	}
	return combine(ds)
}

// shardedOptions is one sharded-checkpoint campaign: the public
// Workers+Checkpoint path on monetdb, reduction on.
func shardedOptions(p params, ckpt string) func(int64) sqlancerpp.Options {
	return func(seed int64) sqlancerpp.Options {
		return sqlancerpp.Options{DBMS: shardedDBMS, TestCases: p.ShardedCases, Seed: seed,
			Reduce: true, Workers: p.Workers, Checkpoint: ckpt}
	}
}

// checkpointPath makes a private directory for a run's checkpoint file.
func checkpointPath(p params) (path string, cleanup func(), err error) {
	if err := os.MkdirAll(p.WorkDir, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(p.WorkDir, "ckpt-")
	if err != nil {
		return "", nil, err
	}
	return filepath.Join(dir, "campaign.ckpt"), func() { os.RemoveAll(dir) }, nil
}

// runShardedCheckpoint: fixed-size sharded campaigns with a checkpoint,
// repeated with derived seeds; afterwards the first campaign reruns
// without the checkpoint and must produce the same report.
func runShardedCheckpoint(p params, seed int64) (*Result, error) {
	var g gate
	ckpt, cleanup, err := checkpointPath(p)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	setup, err := processSetup(p)
	if err != nil {
		return nil, err
	}
	n := campaignsFor(p, p.ShardedCases, shardedCasesPerSecond)
	runs := repeatCampaigns(n, seed, &g, shardedOptions(p, ckpt))
	metrics := campaignMetrics(runs, setup)

	_, statErr := os.Stat(ckpt)
	g.expect(errors.Is(statErr, os.ErrNotExist), "checkpoint %s not removed after completion", ckpt)
	if len(runs) > 0 {
		o := shardedOptions(p, "")(deriveSeed(seed, 0))
		plain, err := sqlancerpp.Run(o)
		if err != nil {
			g.countError("no-checkpoint rerun", 0, err)
		} else {
			a, b := runs[0].digest, digest(plain)
			fmt.Printf("checkpoint digest %s, no-checkpoint digest %s\n", a, b)
			g.expect(a == b, "sharded digest differs with and without checkpoint: %s vs %s", a, b)
		}
	}
	return g.result(metrics, runDigest(runs)), nil
}

// learnStates runs the shard-requests learning pass: one short adaptive
// campaign per paper DBMS, whose learned feature probabilities warm-start
// every later request on that dialect (paper Figure 5). The dialects are
// independent, so p.Workers learn them side by side, as a service warming
// up its workers would.
func learnStates(p params, seed int64) (map[string][]byte, error) {
	dbms := sqlancerpp.PaperDBMSs()
	learned := make([][]byte, len(dbms))
	err := par.ForEach(len(dbms), p.Workers, func(i int) error {
		rep, err := sqlancerpp.Run(sqlancerpp.Options{DBMS: dbms[i], TestCases: p.LearnCases, Seed: deriveSeed(seed, -1-i)})
		if err != nil {
			return fmt.Errorf("learning %s: %w", dbms[i], err)
		}
		learned[i] = rep.FeedbackState
		return nil
	})
	if err != nil {
		return nil, err
	}
	states := map[string][]byte{}
	for i, d := range dbms {
		states[d] = learned[i]
	}
	return states, nil
}

// requestOptions is request k of a shard-requests run: one database epoch
// on the k-th paper DBMS in round-robin order, warm-started with that
// dialect's learned state.
func requestOptions(p params, seed int64, k int, states map[string][]byte) sqlancerpp.Options {
	dbms := sqlancerpp.PaperDBMSs()
	d := dbms[k%len(dbms)]
	return sqlancerpp.Options{DBMS: d, TestCases: p.RequestCases, Seed: deriveSeed(seed, k),
		Reduce: true, FeedbackState: states[d]}
}

// request is one completed shard-requests request, reduced to what the
// run reports so memory does not grow with the run.
type request struct {
	k        int
	duration time.Duration
	end      time.Duration // completion time, from the loop's start
	gate     gate          // the request's operation count and output checks
	cases    int
	valid    int
	detected int
	faults   []string
	digest   string // the report's digest, or its error
}

// summarize checks one request's report against its options.
func summarize(k int, o sqlancerpp.Options, rep *sqlancerpp.Report, err error) request {
	r := request{k: k}
	what := fmt.Sprintf("request %d (%s, seed %d)", k, o.DBMS, o.Seed)
	if err != nil {
		r.gate.countError(what, 1, err)
		r.digest = "error: " + err.Error()
		return r
	}
	r.gate.countRequest(what, rep, o.TestCases)
	r.cases, r.valid, r.detected = rep.TestCases, rep.ValidCases, rep.Detected
	for _, b := range rep.Bugs {
		r.faults = append(r.faults, b.GroundTruthFaults...)
	}
	r.digest = digest(rep)
	return r
}

// closedLoop runs p.Workers clients, each sending its next request as soon
// as the previous one returns, until n requests were sent. do serves
// request k for a client; its duration is the request's latency. keep
// then reduces the outcome to what the run reports, outside the timed
// call.
func closedLoop(p params, n int, do func(client, k int) (*sqlancerpp.Report, error),
	keep func(k int, rep *sqlancerpp.Report, err error) request) (reqs []request, wall time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	start := time.Now()
	_ = par.ForEach(p.Workers, p.Workers, func(client int) error {
		var mine []request
		for {
			k := int(next.Add(1) - 1)
			if k >= n {
				break
			}
			t0 := time.Now()
			rep, err := do(client, k)
			d := time.Since(t0)
			r := keep(k, rep, err)
			r.duration, r.end = d, time.Since(start)
			mine = append(mine, r)
		}
		mu.Lock()
		reqs = append(reqs, mine...)
		mu.Unlock()
		return nil
	})
	wall = time.Since(start)
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].k < reqs[j].k })
	return reqs, wall
}

// runShardRequests: a closed loop of nproc clients sending one-epoch
// requests round-robin over the 18 paper DBMSs.
func runShardRequests(p params, seed int64) (*Result, error) {
	var g gate
	var learnTimes []float64
	var states map[string][]byte
	var first string
	for rep := 0; rep < p.SetupReps; rep++ {
		t0 := time.Now()
		s, err := learnStates(p, seed)
		if err != nil {
			return nil, err
		}
		learnTimes = append(learnTimes, time.Since(t0).Seconds())
		d := stateDigest(s)
		if rep == 0 {
			first = d
		}
		g.expect(d == first, "learning pass not deterministic: %s vs %s", d, first)
		states = s
	}
	// setup_s: process start until the first timed call, counting the
	// learning pass once, at its median over the repetitions.
	start, err := processSetup(p)
	if err != nil {
		return nil, err
	}
	setup := start.Seconds() + median(learnTimes)

	n := requestsFor(p)
	reqs, wall := closedLoop(p, n,
		func(_, k int) (*sqlancerpp.Report, error) { return sqlancerpp.Run(requestOptions(p, seed, k, states)) },
		func(k int, rep *sqlancerpp.Report, err error) request {
			return summarize(k, requestOptions(p, seed, k, states), rep, err)
		})
	var lat []float64
	faults := map[string]bool{}
	for _, r := range reqs {
		g.merge(r.gate)
		lat = append(lat, ms(r.duration))
		for _, f := range r.faults {
			faults[f] = true
		}
	}
	g.expect(len(lat) == n, "%d requests completed, want %d", len(lat), n)
	fmt.Printf("%d requests, learning digest %s\n", len(reqs), first)
	return g.result(map[string]Metric{
		"setup_s":           {setup, "s"},
		"cases_per_s":       {bucketRate(reqs, wall, func(r request) int { return r.cases }), "1/s"},
		"valid_cases_per_s": {bucketRate(reqs, wall, func(r request) int { return r.valid }), "1/s"},
		"unique_bugs":       {float64(len(faults)), "count"},
		"peak_rss_mb":       {peakRSSMB(), "MB"},
		"request_ms_p50":    {median(lat), "ms"},
		"request_ms_p95":    {quantile(lat, 0.95), "ms"},
	}, requestsDigest(reqs)), nil
}

// rateBucket is the interval over which shard-requests counts throughput.
const rateBucket = 2 * time.Second

// bucketRate is a closed loop's throughput: the work completed per second
// in each whole rateBucket of the loop, median over the buckets, so a
// short stall of the host does not move it. A request's work counts
// evenly over its lifetime. A loop shorter than one bucket counts over
// its whole wall time.
func bucketRate(reqs []request, wall time.Duration, count func(request) int) float64 {
	n := int(wall / rateBucket)
	if n == 0 {
		total := 0
		for _, r := range reqs {
			total += count(r)
		}
		return float64(total) / wall.Seconds()
	}
	sums := make([]float64, n)
	for _, r := range reqs {
		start := r.end - r.duration
		perNs := float64(count(r)) / float64(max(r.duration, 1))
		for b := int(start / rateBucket); b < n && b <= int(r.end/rateBucket); b++ {
			lo := max(start, time.Duration(b)*rateBucket)
			hi := min(r.end, time.Duration(b+1)*rateBucket)
			sums[b] += perNs * float64(hi-lo)
		}
	}
	for i := range sums {
		sums[i] /= rateBucket.Seconds()
	}
	return median(sums)
}

// requestsDigest hashes the requests' reports in request order.
func requestsDigest(reqs []request) string {
	var ds []string
	for _, r := range reqs {
		ds = append(ds, r.digest)
	}
	return combine(ds)
}

// stateDigest hashes the learned states in PaperDBMSs order.
func stateDigest(states map[string][]byte) string {
	var ds []string
	for _, d := range sqlancerpp.PaperDBMSs() {
		ds = append(ds, string(states[d]))
	}
	return combine(ds)
}

// Set-up probes: the process-start part of setup_s is measured by
// re-running this binary with the same flags in probe mode, from exec
// until it reaches the point of the first timed call, and taking the
// median over setupProbes probes.
const (
	setupProbeEnv = "CAMPAIGNBENCH_SETUP_PROBE"
	setupReady    = "setup-ready"
	setupProbes   = 31
)

// processSetup returns the median time from starting this binary until
// it is ready to make its first timed call.
func processSetup(p params) (time.Duration, error) {
	if !p.ProbeSetup {
		return time.Since(processStart), nil
	}
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < setupProbes; i++ {
		d, err := probeOnce(self)
		if err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		times = append(times, d.Seconds())
	}
	return time.Duration(median(times) * float64(time.Second)), nil
}

func probeOnce(self string) (time.Duration, error) {
	cmd := exec.Command(self, os.Args[1:]...)
	cmd.Env = append(os.Environ(), setupProbeEnv+"=1")
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	ready := false
	sc := bufio.NewScanner(out)
	var d time.Duration
	for sc.Scan() {
		if sc.Text() == setupReady && !ready {
			d, ready = time.Since(t0), true
		}
	}
	if err := cmd.Wait(); err != nil {
		return 0, err
	}
	if !ready {
		return 0, errors.New("probe exited before it was ready")
	}
	return d, nil
}
