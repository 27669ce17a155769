package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"sqlancerpp"
	"sqlancerpp/internal/dialect"
)

// gate is a run's correctness gate: it counts attempted and failed
// operations and collects every violated output check.
//
// An operation is one oracle check (one request on shard-requests). It
// fails when the call returns an error, or as a false positive, a harness
// crash, a hang, a case of a quarantined shard, or a failed checkpoint
// write. Invalid cases are not failures: they are the DBMS rejecting SQL,
// which validity feedback learns from.
type gate struct {
	attempted int
	failed    int
	problems  []string
}

// countError charges a call that returned an error: all of its n
// operations failed.
func (g *gate) countError(what string, n int, err error) {
	g.attempted += n
	g.failed += n
	g.problems = append(g.problems, fmt.Sprintf("%s: %v", what, err))
}

// failures counts a report's failed operations and prints what failed,
// so a failing seed names the call to replay.
func failures(what string, rep *sqlancerpp.Report) int {
	quarantined := 0
	for _, q := range rep.QuarantinedShards {
		quarantined += q.TestCases
	}
	n := rep.FalsePositives + rep.HarnessCrashes + rep.Hangs + rep.CheckpointWriteFailures + quarantined
	if n > 0 {
		fmt.Printf("%s: %d failed operations: %d false positives, %d harness crashes, %d hangs, %d checkpoint write failures, %d quarantined cases\n",
			what, n, rep.FalsePositives, rep.HarnessCrashes, rep.Hangs, rep.CheckpointWriteFailures, quarantined)
	}
	return n
}

// countCampaign charges a campaign of want cases, each one operation, and
// checks its report.
func (g *gate) countCampaign(what string, rep *sqlancerpp.Report, want int) {
	g.attempted += want
	g.failed += failures(what, rep)
	g.check(what, rep, want)
}

// countRequest charges one request, a single operation that failed if
// any of its want cases did, and checks its report.
func (g *gate) countRequest(what string, rep *sqlancerpp.Report, want int) {
	g.attempted++
	if failures(what, rep) > 0 {
		g.failed++
	}
	g.check(what, rep, want)
}

// check verifies the report's outputs: the case count, the counters'
// consistency, and that every reported bug's ground-truth faults belong
// to the dialect's catalogue.
func (g *gate) check(what string, rep *sqlancerpp.Report, want int) {
	if rep.TestCases != want {
		g.problems = append(g.problems, fmt.Sprintf("%s: %d test cases, want %d", what, rep.TestCases, want))
	}
	if rep.ValidCases > rep.TestCases || rep.Prioritized > rep.Detected || len(rep.Bugs) != rep.Prioritized {
		g.problems = append(g.problems, fmt.Sprintf("%s: inconsistent counters (valid %d/%d, prioritized %d/%d, bugs %d)",
			what, rep.ValidCases, rep.TestCases, rep.Prioritized, rep.Detected, len(rep.Bugs)))
	}
	catalogue, err := faultIDs(rep.DBMS)
	if err != nil {
		g.problems = append(g.problems, fmt.Sprintf("%s: %v", what, err))
		return
	}
	if rep.UniqueBugs > len(catalogue) {
		g.problems = append(g.problems, fmt.Sprintf("%s: %d unique bugs from a catalogue of %d", what, rep.UniqueBugs, len(catalogue)))
	}
	for _, b := range rep.Bugs {
		for _, id := range b.GroundTruthFaults {
			if !catalogue[id] {
				g.problems = append(g.problems, fmt.Sprintf("%s: bug %d names fault %q outside the %s catalogue", what, b.ID, id, rep.DBMS))
			}
		}
	}
}

// merge adds another gate's counts and problems.
func (g *gate) merge(o gate) {
	g.attempted += o.attempted
	g.failed += o.failed
	g.problems = append(g.problems, o.problems...)
}

// expect records a problem unless ok.
func (g *gate) expect(ok bool, format string, args ...any) {
	if !ok {
		g.problems = append(g.problems, fmt.Sprintf(format, args...))
	}
}

// result assembles the verdict line, printing every problem found.
func (g *gate) result(metrics map[string]Metric, digest string) *Result {
	for _, p := range g.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	return &Result{Correct: len(g.problems) == 0, Attempted: max(g.attempted, 1), Failed: g.failed,
		Metrics: metrics, Digest: digest}
}

// faultIDs returns the dialect's fault catalogue as a set of IDs.
func faultIDs(dbms string) (map[string]bool, error) {
	d, err := dialect.Get(dbms)
	if err != nil {
		return nil, err
	}
	ids := map[string]bool{}
	if d.Faults != nil {
		for _, f := range d.Faults.All() {
			ids[f.ID] = true
		}
	}
	return ids, nil
}

// digest is a short content hash of a report: equal reports, equal digests.
func digest(rep *sqlancerpp.Report) string {
	data, err := json.Marshal(rep)
	if err != nil {
		return "unmarshalable:" + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// combine hashes a sequence of digests into one.
func combine(digests []string) string {
	h := sha256.New()
	for _, d := range digests {
		h.Write([]byte(d))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
