package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"sqlancerpp/internal/dialect"
)

// tinyParams shrinks every workload so the self-test runs in seconds.
func tinyParams(t *testing.T) params {
	return params{
		SerialCases:  400,
		MinCases:     800,
		RequestCases: 40,
		LearnCases:   60,
		MinRequests:  20,
		ShardedCases: 600,
		SetupReps:    2,
		Workers:      runtime.NumCPU(),
		Seconds:      0, // exactly the least work
		WorkDir:      t.TempDir(),
	}
}

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetrics asserts the result carries exactly the named metrics, each
// with its declared unit.
func checkMetrics(t *testing.T, what string, res *Result, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", what, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", what, m.Name, got.Unit, m.Unit)
		}
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, ws := range spec.Workloads {
		w, ok := findWorkload(ws.Name)
		if !ok {
			t.Errorf("workload %s in BENCHMARK.json is not implemented", ws.Name)
			continue
		}
		p := tinyParams(t)
		res, err := w.run(p, 3)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d", w.name, res.Correct, res.Attempted)
		}
		checkMetrics(t, w.name, res, spec.EndToEnd)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
			}
		}
		traced, err := w.traced(p, 3)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !traced.Correct {
			t.Errorf("%s traced: not correct", w.name)
		}
		checkMetrics(t, w.name+" traced", traced, spec.PerLayer)
	}
}

// A run's work is fixed by its seed and length, so its digest and its
// operation counts repeat exactly.
func TestSameSeedSameDigest(t *testing.T) {
	for _, w := range workloads {
		p := tinyParams(t)
		a, err := w.run(p, 11)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.run(p, 11)
		if err != nil {
			t.Fatal(err)
		}
		c, err := w.run(p, 12)
		if err != nil {
			t.Fatal(err)
		}
		if a.Digest != b.Digest {
			t.Errorf("%s: seed 11 gave digests %s and %s", w.name, a.Digest, b.Digest)
		}
		if a.Attempted != b.Attempted || a.Failed != b.Failed {
			t.Errorf("%s: seed 11 gave %d/%d and %d/%d failed/attempted operations",
				w.name, a.Failed, a.Attempted, b.Failed, b.Attempted)
		}
		if a.Digest == c.Digest {
			t.Errorf("%s: seeds 11 and 12 gave the same digest %s", w.name, a.Digest)
		}
	}
}

func TestShardedDigestIndependentOfWorkers(t *testing.T) {
	p := tinyParams(t)
	p.Workers = 1
	one, err := runShardedCheckpoint(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	p.Workers = max(runtime.NumCPU(), 2)
	many, err := runShardedCheckpoint(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !one.Correct || !many.Correct {
		t.Fatalf("correct: 1 worker %v, %d workers %v", one.Correct, p.Workers, many.Correct)
	}
	if one.Digest != many.Digest {
		t.Errorf("digest at 1 worker %s, at %d workers %s", one.Digest, p.Workers, many.Digest)
	}
}

func TestTracedSpansNest(t *testing.T) {
	d, err := dialect.Get(shardedDBMS)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(time.Now())
	r, err := newReplay(replayConfig{dialect: d, cases: 400, seed: 9, reduce: true, perCase: true}, tr)
	if err != nil {
		t.Fatal(err)
	}
	st := r.run()
	if st.cases != 400 || st.checks == 0 {
		t.Fatalf("replayed %d cases, %d checks", st.cases, st.checks)
	}
	other := newTracer(tr.epoch)
	other.End(other.Begin(spanNew))
	spans := mergeSpans(tr, other)
	tr.Close()
	other.Close()
	names := map[string]bool{}
	for i, s := range spans {
		names[s.Name] = true
		if s.ID != i {
			t.Fatalf("span %d has ID %d", i, s.ID)
		}
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			t.Fatalf("span %d (%s) has parent %d, not an earlier span", i, s.Name, s.Parent)
		}
		if p := spans[s.Parent]; s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d (%s) is not inside its parent %d (%s)", i, s.Name, s.Parent, p.Name)
		}
	}
	for i, self := range selfTimes(spans) {
		if self < 0 {
			t.Errorf("span %d (%s) has negative self time %v", i, spans[i].Name, self)
		}
	}
	for _, n := range []string{spanNew, spanEpochSetup, spanEngineOpen, spanGenSetup, spanGenCase,
		spanGenQuery, spanSetupExec, spanSmokeExec, spanRecord, spanSave, spanPrioritize} {
		if !names[n] {
			t.Errorf("no %s span recorded", n)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.95, 4.8}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

func TestBucketRateSpreadsWorkOverLifetime(t *testing.T) {
	s := time.Second
	reqs := []request{
		{cases: 400, duration: 2 * s, end: 3 * s}, // 1 s in each bucket
		{cases: 100, duration: s, end: s},         // all in bucket 0
	}
	cases := func(r request) int { return r.cases }
	// Buckets: (200+100)/2 s and 200/2 s per second; the median is their mean.
	if got := bucketRate(reqs, 4*s, cases); got != 125 {
		t.Errorf("bucketRate = %v, want 125", got)
	}
	if got := bucketRate(reqs, s, cases); got != 500 {
		t.Errorf("bucketRate under one bucket = %v, want 500", got)
	}
}
