package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sqlancerpp/internal/dialect"
)

// referenceCheckpoint is the checkpoint file format by definition: the
// envelope json.Marshal produces around json.Marshal(cp). saveCheckpoint
// streams cached per-shard encodings instead, and must match it byte
// for byte.
func referenceCheckpoint(t testing.TB, cp *checkpointFile) []byte {
	t.Helper()
	payload, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(payload)
	data, err := json.Marshal(checkpointEnvelope{
		Version:  checkpointVersion,
		Checksum: fmt.Sprintf("%016x", h.Sum64()),
		Payload:  payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// cacheEncodings fills cp.encoded the way RunShardedOpts's workers do.
func cacheEncodings(t testing.TB, cp *checkpointFile) {
	t.Helper()
	cp.encoded = make([][]byte, len(cp.Shards))
	for i, rep := range cp.Shards {
		if rep == nil {
			continue
		}
		enc, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		cp.encoded[i] = enc
	}
}

// escapingCheckpoint is a checkpoint whose strings exercise every JSON
// escaping rule json.Marshal applies: HTML-sensitive <, > and &,
// non-ASCII text, U+2028, control characters and invalid UTF-8. Shard 1
// is incomplete and shard 2 a quarantined placeholder.
func escapingCheckpoint() *checkpointFile {
	bug := &BugCase{
		ID:     7,
		Class:  ClassLogic,
		Oracle: "TLP",
		Setup: []string{
			`CREATE TABLE t0 (c0 TEXT)`,
			"INSERT INTO t0 VALUES ('<a href=\"x\">&amp;</a>', 'héllo wörld ✓ 日本', ' \t\x01\xff')",
		},
		Queries:   []string{`SELECT * FROM t0 WHERE c0 <> 'x' AND c0 > '&'`},
		Detail:    "rows differ: <1> & <2> — ünïcödé",
		Triggered: []string{"PartialIndexScan"},
		Reduced:   []string{`SELECT 1 WHERE '<' < '>'`},
	}
	return &checkpointFile{
		Fingerprint: "d=<mon&db> m=1 ✓ é",
		TotalShards: 4,
		Seeds:       []int64{-3, 9, 1 << 62, 0},
		Shards: []*Report{
			{
				Dialect:         "monetdb",
				Mode:            "adaptive",
				Detected:        1,
				DetectedByClass: map[BugClass]int{ClassLogic: 1, ClassError: 2},
				TestCases:       200,
				ValidCases:      150,
				Bugs:            []*BugCase{bug},
				AllCases:        []*BugCase{bug},
				FeedbackState:   []byte{0, 1, 2, 0xff, '<', '&'},
				Unsupported:     []string{"func:<lower>"},
			},
			nil,
			{
				Quarantined:   true,
				QuarantineErr: "campaign: shard 2 attempt 3 panicked: <boom> & ü",
				ShardRetries:  2,
			},
			{Dialect: "monetdb", TestCases: 0},
		},
	}
}

// TestCheckpointEncodingMatchesReference: the streamed file equals the
// reference envelope whether the shard encodings are cached (as the
// workers leave them) or not, and for nil shard and seed tables.
func TestCheckpointEncodingMatchesReference(t *testing.T) {
	cached := escapingCheckpoint()
	cacheEncodings(t, cached)
	allNil := escapingCheckpoint()
	allNil.Shards = make([]*Report, len(allNil.Shards))
	cases := map[string]*checkpointFile{
		"cached":     cached,
		"uncached":   escapingCheckpoint(),
		"nil-shards": allNil,
		"nil-tables": {Fingerprint: "fp <&>", TotalShards: 2},
		"empty":      {Shards: []*Report{}, Seeds: []int64{}},
	}
	for name, cp := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			if err := saveCheckpoint(path, cp, nil); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceCheckpoint(t, cp); !bytes.Equal(got, want) {
				t.Fatalf("checkpoint bytes differ from the reference encoding:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestCheckpointEncodingResaveIdentical: a loaded checkpoint saved again
// is byte-identical, and its restored shards are spliced from the file's
// raw bytes: after loading, the in-memory reports are altered, and the
// re-save still reproduces the original file — a fresh encoding could
// not.
func TestCheckpointEncodingResaveIdentical(t *testing.T) {
	dir := t.TempDir()
	first := filepath.Join(dir, "first.ckpt")
	src := escapingCheckpoint()
	if err := saveCheckpoint(first, src, nil); err != nil {
		t.Fatal(err)
	}
	cp := &checkpointFile{
		Fingerprint: src.Fingerprint,
		TotalShards: src.TotalShards,
		Seeds:       src.Seeds,
		Shards:      make([]*Report, src.TotalShards),
	}
	if err := loadCheckpoint(first, cp); err != nil {
		t.Fatal(err)
	}
	for i, rep := range cp.Shards {
		if (rep == nil) != (src.Shards[i] == nil) {
			t.Fatalf("shard %d: restored %v, saved %v", i, rep != nil, src.Shards[i] != nil)
		}
		if rep != nil {
			if cp.encoded[i] == nil {
				t.Fatalf("shard %d restored without its raw encoding", i)
			}
			rep.TestCases = -1
		}
	}
	second := filepath.Join(dir, "second.ckpt")
	if err := saveCheckpoint(second, cp, nil); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("re-saved checkpoint differs from the file it was loaded from")
	}
}

// TestCheckpointEncodingCampaign: the checkpoint a real campaign leaves
// behind — shard encodings made concurrently by two workers — equals
// the reference encoding of its own decoded contents.
func TestCheckpointEncodingCampaign(t *testing.T) {
	cfg := shardedCfg(t, 2000, 5)
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
	_, err := RunShardedOpts(cfg, ShardedOptions{
		Workers: 2, CheckpointPath: path, Interrupt: interrupt,
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := loadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for _, rep := range cp.Shards {
		if rep != nil {
			done++
		}
	}
	if done == 0 {
		t.Fatal("checkpoint holds no completed shard")
	}
	if want := referenceCheckpoint(t, cp); !bytes.Equal(got, want) {
		t.Fatal("campaign checkpoint differs from the reference encoding of its contents")
	}
}

// TestCheckpointEncodingPrefixSum: the resumable checksum equals FNV-1a
// over the concatenated pieces through a sequence of saves that grow,
// change a middle piece, shrink, and repeat unchanged.
func TestCheckpointEncodingPrefixSum(t *testing.T) {
	p := func(s string) []byte { return []byte(s) }
	seqs := [][][]byte{
		{p(`{"a":`), p("["), jsonNull, jsonComma, jsonNull, p("]}")},
		{p(`{"a":`), p("["), p(`{"x":1}`), jsonComma, jsonNull, p("]}")},
		{p(`{"a":`), p("["), p(`{"x":1}`), jsonComma, p(`{"y":2}`), p("]}")},
		{p(`{"a":`), p("["), p(`{"x":1}`), jsonComma, p(`{"y":2}`), p("]}")},
		{p(`{"a":`), p("["), p(`{"x":3}`), jsonComma, p(`{"y":2}`), p("]}")},
		{p(`{"b":`), p("["), p("]}")},
		{},
		{p(`{"b":`), p("[]}")},
	}
	var ps prefixSum
	for i, pieces := range seqs {
		want := fnv.New64a()
		for _, piece := range pieces {
			want.Write(piece)
		}
		if got := ps.sum(pieces); got != want.Sum64() {
			t.Fatalf("save %d: checksum %016x, want %016x", i, got, want.Sum64())
		}
	}
}

// BenchmarkCheckpointSave measures the last save of a 100-shard
// campaign: every shard complete, each carrying a real 200-case monetdb
// shard report with reduction on, encodings cached as the workers leave
// them, and — as in a campaign — only the newest shard unseen by the
// previous save (two variants of shard 99 alternate). One op is one full
// save: splice, checksum, write, fsync, rotate, rename.
func BenchmarkCheckpointSave(b *testing.B) {
	runner, err := New(Config{
		Dialect: dialect.MustGet("monetdb"), Mode: Adaptive,
		TestCases: 200, Seed: 1, ReduceBugs: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	rep, err := runner.Run()
	if err != nil {
		b.Fatal(err)
	}
	const shards = 100
	cp := &checkpointFile{
		Fingerprint: "bench",
		TotalShards: shards,
		Seeds:       make([]int64, shards),
		Shards:      make([]*Report, shards),
	}
	for i := range cp.Shards {
		cp.Seeds[i] = int64(i)
		cp.Shards[i] = rep
	}
	cacheEncodings(b, cp)
	retried := *rep
	retried.ShardRetries = 1
	last := [2]*Report{rep, &retried}
	var lastEnc [2][]byte
	for i, r := range last {
		if lastEnc[i], err = json.Marshal(r); err != nil {
			b.Fatal(err)
		}
	}
	path := filepath.Join(b.TempDir(), "bench.ckpt")
	b.SetBytes(int64(len(referenceCheckpoint(b, cp))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp.Shards[shards-1], cp.encoded[shards-1] = last[i%2], lastEnc[i%2]
		if err := saveCheckpoint(path, cp, nil); err != nil {
			b.Fatal(err)
		}
	}
}
