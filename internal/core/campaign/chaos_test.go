package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sqlancerpp/internal/chaos"
)

func mustChaos(t *testing.T, spec string, seed int64) *chaos.Injector {
	t.Helper()
	in, err := chaos.Parse(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// stripChaosCounters zeroes the infrastructure-fault counters on a copy
// of a report, leaving every campaign *finding* intact — the comparison
// that proves chaos only exercised the harness, never the results.
func stripChaosCounters(rep *Report) *Report {
	c := *rep
	c.ShardRetries = 0
	c.CheckpointWriteFailures = 0
	return &c
}

// TestChaosAcceptanceCampaign is the PR's acceptance scenario: with
// injected checkpoint write failures, one torn checkpoint, and a
// twice-failing shard, the campaign completes (not aborts), the retries
// are counted, nothing is quarantined (the shard recovered on its third
// attempt), no finding is lost or invented (FalsePositives == 0, report
// findings identical to the chaos-free run), and the whole scenario is
// byte-deterministic at workers 1, 3, and 8.
func TestChaosAcceptanceCampaign(t *testing.T) {
	ref, err := RunSharded(shardedCfg(t, 800, 7), 1) // chaos-free baseline, 4 shards
	if err != nil {
		t.Fatal(err)
	}
	refJSON := marshalReport(t, ref)

	for _, workers := range []int{1, 3, 8} {
		cfg := shardedCfg(t, 800, 7)
		cfg.Chaos = mustChaos(t, "ckpt-write=2;ckpt-torn=3;shard-error=1x2", cfg.Seed)
		path := filepath.Join(t.TempDir(), "run.ckpt")
		rep, err := RunShardedOpts(cfg, ShardedOptions{
			Workers: workers, CheckpointPath: path, RetryBackoff: -1,
		})
		if err != nil {
			t.Fatalf("workers=%d: chaos campaign aborted: %v", workers, err)
		}
		if rep.ShardRetries != 2 {
			t.Fatalf("workers=%d: ShardRetries = %d, want 2 (shard 1 failed twice, then recovered)",
				workers, rep.ShardRetries)
		}
		if rep.ShardsQuarantined != 0 || len(rep.QuarantinedShards) != 0 {
			t.Fatalf("workers=%d: quarantined %d shards; the failing shard should have recovered",
				workers, rep.ShardsQuarantined)
		}
		if rep.CheckpointWriteFailures != 1 {
			t.Fatalf("workers=%d: CheckpointWriteFailures = %d, want 1 (ckpt-write=2 fires once)",
				workers, rep.CheckpointWriteFailures)
		}
		if rep.FalsePositives != 0 {
			t.Fatalf("workers=%d: FalsePositives = %d: an infrastructure fault leaked into the findings",
				workers, rep.FalsePositives)
		}
		if !bytes.Equal(refJSON, marshalReport(t, stripChaosCounters(rep))) {
			t.Fatalf("workers=%d: chaos campaign findings differ from the chaos-free run", workers)
		}
		for _, p := range []string{path, path + ".bak"} {
			if _, serr := os.Stat(p); !errors.Is(serr, os.ErrNotExist) {
				t.Fatalf("workers=%d: %s not cleaned up after completion", workers, p)
			}
		}
	}
}

// TestShardQuarantineDeterministic: a shard that fails every attempt is
// quarantined — the campaign completes degraded, records the shard's
// seed range for offline replay, and the degraded report is still
// byte-identical at every worker count.
func TestShardQuarantineDeterministic(t *testing.T) {
	run := func(workers int) *Report {
		cfg := shardedCfg(t, 800, 7) // 4 shards
		cfg.Chaos = mustChaos(t, "shard-panic=1x99", cfg.Seed)
		rep, err := RunShardedOpts(cfg, ShardedOptions{Workers: workers, RetryBackoff: -1})
		if err != nil {
			t.Fatalf("workers=%d: degraded campaign aborted: %v", workers, err)
		}
		return rep
	}
	ref := run(1)
	if ref.ShardsQuarantined != 1 || len(ref.QuarantinedShards) != 1 {
		t.Fatalf("ShardsQuarantined = %d (%d recorded), want 1",
			ref.ShardsQuarantined, len(ref.QuarantinedShards))
	}
	q := ref.QuarantinedShards[0]
	shards := shardConfigs(shardedCfg(t, 800, 7).withDefaults())
	if q.Shard != 1 || q.Seed != shards[1].Seed || q.TestCases != shards[1].TestCases {
		t.Fatalf("quarantine record %+v does not pin shard 1's replay recipe (want seed %d, cases %d)",
			q, shards[1].Seed, shards[1].TestCases)
	}
	if q.Err == "" || !strings.Contains(q.Err, "panicked") {
		t.Fatalf("quarantine error %q does not describe the panic", q.Err)
	}
	if ref.ShardRetries != DefaultShardRetries {
		t.Fatalf("ShardRetries = %d, want %d (every attempt of the quarantined shard failed)",
			ref.ShardRetries, DefaultShardRetries)
	}
	// The other three shards' work survives.
	if want := 3 * shards[0].TestCases; ref.TestCases != want {
		t.Fatalf("TestCases = %d, want %d from the three live shards", ref.TestCases, want)
	}
	if ref.FalsePositives != 0 {
		t.Fatalf("FalsePositives = %d, want 0", ref.FalsePositives)
	}
	for _, workers := range []int{3, 8} {
		if !bytes.Equal(marshalReport(t, ref), marshalReport(t, run(workers))) {
			t.Fatalf("workers=%d: degraded report differs from the serial run", workers)
		}
	}
}

// TestQuarantineSurvivesCheckpointResume: a quarantined shard's
// placeholder rides the checkpoint like any completed shard, so a resume
// neither retries it nor forgets it.
func TestQuarantineSurvivesCheckpointResume(t *testing.T) {
	cfg := shardedCfg(t, 800, 11)
	cfg.Chaos = mustChaos(t, "shard-error=0x99", cfg.Seed)
	ref, err := RunShardedOpts(cfg, ShardedOptions{Workers: 1, RetryBackoff: -1})
	if err != nil {
		t.Fatal(err)
	}
	if ref.ShardsQuarantined != 1 {
		t.Fatalf("ShardsQuarantined = %d, want 1", ref.ShardsQuarantined)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	interrupt := make(chan struct{})
	go func() {
		for {
			if _, err := os.Stat(path); err == nil {
				close(interrupt)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	_, err = RunShardedOpts(cfg, ShardedOptions{
		Workers: 1, CheckpointPath: path, Interrupt: interrupt, RetryBackoff: -1,
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	// Resume without chaos: shards already checkpointed (including the
	// quarantine placeholder) are kept; the rest run clean.
	resumedCfg := shardedCfg(t, 800, 11)
	resumed, err := RunShardedOpts(resumedCfg, ShardedOptions{
		Workers: 2, CheckpointPath: path, Resume: true, RetryBackoff: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.ShardsQuarantined != 1 {
		t.Fatalf("resumed ShardsQuarantined = %d, want 1 (placeholder lost in the checkpoint)",
			resumed.ShardsQuarantined)
	}
	if !bytes.Equal(marshalReport(t, ref), marshalReport(t, resumed)) {
		t.Fatal("resumed degraded report differs from the uninterrupted degraded run")
	}
}

// TestWatchdogHangDetection: with a case timeout configured, a chaos
// stall is detected as a hang — the case is canceled, reported as a
// ClassHang bug with its seed and ordinal, exempted from false-positive
// accounting, and the campaign runs to completion.
func TestWatchdogHangDetection(t *testing.T) {
	cfg := shardedCfg(t, 200, 7) // single shard
	cfg.CaseTimeout = 50 * time.Millisecond
	// A stall window rather than one ordinal: whichever of these ordinals
	// are real oracle cases under this seed, at least one stalls.
	cfg.Chaos = mustChaos(t, "case-stall=3,4,5", cfg.Seed)
	runner, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runner.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hangs == 0 {
		t.Fatal("Hangs = 0: the stalled case was never detected")
	}
	if rep.DetectedByClass[ClassHang] != rep.Hangs {
		t.Fatalf("DetectedByClass[hang] = %d but Hangs = %d",
			rep.DetectedByClass[ClassHang], rep.Hangs)
	}
	if rep.FalsePositives != 0 {
		t.Fatalf("FalsePositives = %d: hangs must be exempt (they have no ground-truth fault)",
			rep.FalsePositives)
	}
	if rep.TestCases != 200 {
		t.Fatalf("TestCases = %d, want 200: the campaign did not run to completion after the hang",
			rep.TestCases)
	}
	found := false
	for _, b := range rep.Bugs {
		if b.Class != ClassHang {
			continue
		}
		found = true
		if b.Seq < 3 || b.Seq > 5 {
			t.Fatalf("hang bug ordinal %d outside the stalled window", b.Seq)
		}
		if !strings.Contains(b.Detail, "timeout") || !strings.Contains(b.Detail, "seed 7") {
			t.Fatalf("hang detail %q lacks replay coordinates", b.Detail)
		}
	}
	if !found {
		t.Fatal("no prioritized ClassHang bug in the report")
	}
}

// TestResumeAfterTornWriteViaBak is the salvage property test: when the
// newest checkpoint generation is torn (committed truncated bytes, via
// the real chaos injection site), a resume detects the corruption via
// the content checksum, falls back to the ".bak" last-known-good
// generation, and still completes byte-identically to an uninterrupted
// run.
func TestResumeAfterTornWriteViaBak(t *testing.T) {
	cfg := shardedCfg(t, 800, 11) // 4 shards
	ref, err := RunShardedOpts(cfg, ShardedOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupt a checkpointed run so a good generation exists on disk.
	path := filepath.Join(t.TempDir(), "run.ckpt")
	interrupt := make(chan struct{})
	go func() {
		for {
			if _, err := os.Stat(path); err == nil {
				close(interrupt)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	_, err = RunShardedOpts(cfg, ShardedOptions{
		Workers: 1, CheckpointPath: path, Interrupt: interrupt,
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}

	// Replay the last save through the torn-write chaos site: the good
	// generation rotates to .bak and truncated bytes commit at path —
	// exactly the on-disk state a torn write leaves behind.
	resolved := cfg.withDefaults()
	shards := shardConfigs(resolved)
	cp := &checkpointFile{
		Fingerprint: fingerprint(resolved),
		TotalShards: len(shards),
		Seeds:       make([]int64, len(shards)),
		Shards:      make([]*Report, len(shards)),
	}
	for i, sc := range shards {
		cp.Seeds[i] = sc.Seed
	}
	if err := loadCheckpoint(path, cp); err != nil {
		t.Fatalf("pre-corruption checkpoint does not load: %v", err)
	}
	if err := saveCheckpoint(path, cp, mustChaos(t, "ckpt-torn=1", 0)); err != nil {
		t.Fatalf("torn save unexpectedly errored: %v", err)
	}
	if _, err := loadCheckpointFile(path); !errors.Is(err, errCkptCorrupt) {
		t.Fatalf("torn generation loaded as %v, want errCkptCorrupt", err)
	}
	if _, err := loadCheckpointFile(path + ".bak"); err != nil {
		t.Fatalf("last-known-good generation unreadable: %v", err)
	}

	resumed, err := RunShardedOpts(cfg, ShardedOptions{
		Workers: 2, CheckpointPath: path, Resume: true,
	})
	if err != nil {
		t.Fatalf("resume refused despite a good .bak generation: %v", err)
	}
	if !bytes.Equal(marshalReport(t, ref), marshalReport(t, resumed)) {
		t.Fatal("salvaged resume differs from the uninterrupted run")
	}
	for _, p := range []string{path, path + ".bak"} {
		if _, serr := os.Stat(p); !errors.Is(serr, os.ErrNotExist) {
			t.Fatalf("%s not cleaned up after completion", p)
		}
	}
}

// TestResumeBothGenerationsCorrupt: when the primary and the .bak are
// both unusable, resume degrades to a fresh start instead of erroring —
// and still produces the uninterrupted report.
func TestResumeBothGenerationsCorrupt(t *testing.T) {
	cfg := shardedCfg(t, 400, 13)
	ref, err := RunSharded(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := os.WriteFile(path, []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	// An intact envelope of the current version whose checksum fails.
	bak := fmt.Sprintf(`{"Version":%d,"Checksum":"0","Payload":{}}`, checkpointVersion)
	if err := os.WriteFile(path+".bak", []byte(bak), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := RunShardedOpts(cfg, ShardedOptions{
		Workers: 1, CheckpointPath: path, Resume: true,
	})
	if err != nil {
		t.Fatalf("resume with two corrupt generations errored: %v", err)
	}
	if !bytes.Equal(marshalReport(t, ref), marshalReport(t, rep)) {
		t.Fatal("fresh-start resume differs from a plain run")
	}
}

// TestCheckpointFaultsEverySiteDegrade: the marshal, write, and rename
// chaos sites each fail one checkpoint save; every failure is counted,
// none aborts the campaign, and the findings match the chaos-free run.
func TestCheckpointFaultsEverySiteDegrade(t *testing.T) {
	ref, err := RunSharded(shardedCfg(t, 800, 7), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		cfg := shardedCfg(t, 800, 7)
		cfg.Chaos = mustChaos(t, "ckpt-marshal=1;ckpt-write=1;ckpt-rename=1", cfg.Seed)
		path := filepath.Join(t.TempDir(), "run.ckpt")
		rep, err := RunShardedOpts(cfg, ShardedOptions{Workers: workers, CheckpointPath: path})
		if err != nil {
			t.Fatalf("workers=%d: campaign aborted on checkpoint faults: %v", workers, err)
		}
		if rep.CheckpointWriteFailures != 3 {
			t.Fatalf("workers=%d: CheckpointWriteFailures = %d, want 3", workers, rep.CheckpointWriteFailures)
		}
		if !bytes.Equal(marshalReport(t, ref), marshalReport(t, stripChaosCounters(rep))) {
			t.Fatalf("workers=%d: findings differ from the chaos-free run", workers)
		}
	}
}

// FuzzLoadCheckpoint: loading arbitrary bytes as a checkpoint must never
// panic — it returns an error, salvages, or starts fresh, but a corrupt
// file can never take the campaign down.
func FuzzLoadCheckpoint(f *testing.F) {
	seedDir := f.TempDir()
	seedPath := filepath.Join(seedDir, "seed.ckpt")
	cp := &checkpointFile{
		Fingerprint: "fp", TotalShards: 2,
		Seeds: []int64{3, 9}, Shards: make([]*Report, 2),
	}
	cp.Shards[0] = &Report{Dialect: "sqlite", TestCases: 5}
	if err := saveCheckpoint(seedPath, cp, nil); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[len(valid)/3:])
	f.Add([]byte(`{"Version":2,"Checksum":"cbf29ce484222325","Payload":null}`))
	f.Add([]byte(`{"Version":3,"Checksum":"cbf29ce484222325","Payload":null}`))
	f.Add([]byte(`{"Version":1}`))
	f.Add([]byte("{"))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		tgt := &checkpointFile{
			Fingerprint: "fp", TotalShards: 2,
			Seeds: []int64{3, 9}, Shards: make([]*Report, 2),
		}
		// Errors (hard mismatches) and fresh starts are both fine;
		// panics are not.
		_ = loadCheckpoint(path, tgt)
	})
}
