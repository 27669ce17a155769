package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"sqlancerpp/internal/chaos"
	"sqlancerpp/internal/par"
)

// ErrInterrupted reports that RunShardedOpts stopped at a shard boundary
// because the Interrupt channel closed. Completed shards are already
// checkpointed (when a checkpoint path is configured); a later Resume
// run continues exactly where this one stopped and produces a final
// report byte-identical to an uninterrupted run.
var ErrInterrupted = errors.New("campaign: interrupted")

// Supervisor defaults: a transient shard failure gets two more chances,
// spaced by a doubling backoff capped at 8x the base.
const (
	DefaultShardRetries = 2
	DefaultRetryBackoff = 50 * time.Millisecond
	maxBackoffFactor    = 8
)

// ShardedOptions parameterizes RunShardedOpts.
type ShardedOptions struct {
	// Workers bounds concurrent shard execution and the reduction pass
	// after the merge (minimum 1). The worker count never affects the
	// merged report, only wall-clock time.
	Workers int
	// CheckpointPath, when set, persists campaign progress: after every
	// completed shard the per-shard reports (each carrying its tracker's
	// feedback state) and the shard seed table are written atomically
	// (unique temp file + fsync + rename, with the previous generation
	// rotated to CheckpointPath+".bak") to this path. Each shard's report
	// is JSON-encoded once, by its worker and outside the checkpoint lock;
	// every save splices the cached encodings and resumes the checksum
	// from the previous save's, so a campaign's encoding and hashing
	// cost is linear in its shard count (each save still writes and
	// fsyncs every finished shard's bytes). Write failures degrade the
	// campaign (counted in Report.CheckpointWriteFailures) instead of
	// aborting it. Both generations are removed once the campaign
	// completes.
	CheckpointPath string
	// Resume loads CheckpointPath before running and skips the shards it
	// already holds. The checkpoint's configuration fingerprint must
	// match the resolved configuration; a missing file starts fresh, and
	// a corrupt file falls back to the ".bak" last-known-good generation
	// (or a fresh start) instead of refusing to resume.
	Resume bool
	// Interrupt, when closed, stops the run at the next shard boundary
	// with ErrInterrupted. Shards already in flight finish and are
	// checkpointed; shards not yet started never start.
	Interrupt <-chan struct{}
	// MaxShardRetries is how many times the supervisor re-runs a shard
	// whose attempt failed (error or recovered panic) before
	// quarantining it: 0 selects DefaultShardRetries, negative disables
	// retries. A quarantined shard contributes an explicit placeholder
	// to the merge — the campaign completes degraded, never aborts on a
	// shard failure.
	MaxShardRetries int
	// RetryBackoff is the base delay between attempts of one shard
	// (doubling per retry, capped at 8x): 0 selects DefaultRetryBackoff,
	// negative disables the delay (tests).
	RetryBackoff time.Duration
}

// checkpointVersion is bumped whenever the checkpoint layout or the
// shard partitioning scheme changes incompatibly. Version 2 wraps the
// payload in a checksummed envelope and adds the ".bak" generation.
// Version 3 shard reports carry the reducer's input (BugCase.Carrier)
// instead of its output: reduction runs once, after the merge.
const checkpointVersion = 3

// checkpointEnvelope is the on-disk frame around the checkpoint payload:
// a version and an FNV-1a content checksum that makes every checkpoint
// self-verifying. A torn or bit-flipped file fails the checksum and is
// treated as corrupt (salvageable), while a version or fingerprint
// mismatch inside an *intact* file stays a hard error — corruption and
// misuse must not be confused.
type checkpointEnvelope struct {
	Version  int
	Checksum string
	Payload  json.RawMessage
}

// checkpointFile is the serialized campaign progress: which shards have
// completed and their full reports. Reports round-trip losslessly
// through JSON (every field is exported; FeedbackState is base64), which
// is what makes a resumed merge byte-identical to an uninterrupted one.
type checkpointFile struct {
	// Fingerprint pins the resolved configuration (including an FNV-1a
	// hash of the warm-start feedback state) so a checkpoint cannot be
	// resumed under a different campaign setup.
	Fingerprint string
	TotalShards int
	// Seeds holds each shard's derived seed — the next-seed cursor in
	// table form, doubling as a guard against partitioning drift.
	Seeds []int64
	// Shards is indexed by shard ordinal; nil marks an incomplete shard.
	Shards []*Report
	// encoded caches each shard's JSON encoding, indexed like Shards: set
	// by the worker that ran the shard, or kept verbatim from the file a
	// resume restored it from. Unexported, so the JSON shape is unchanged.
	// A nil entry under a non-nil shard is encoded at save time.
	encoded [][]byte
	// sum carries the payload checksum's state from one save to the next.
	sum prefixSum
}

// UnmarshalJSON decodes a checkpoint payload. Shards are first split out
// as raw JSON and kept in encoded, so a resumed campaign's saves splice
// the restored bytes instead of encoding those reports again.
func (cp *checkpointFile) UnmarshalJSON(data []byte) error {
	var raw struct {
		Fingerprint string
		TotalShards int
		Seeds       []int64
		Shards      []json.RawMessage
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	*cp = checkpointFile{
		Fingerprint: raw.Fingerprint,
		TotalShards: raw.TotalShards,
		Seeds:       raw.Seeds,
	}
	if raw.Shards == nil {
		return nil
	}
	cp.Shards = make([]*Report, len(raw.Shards))
	cp.encoded = make([][]byte, len(raw.Shards))
	for i, enc := range raw.Shards {
		if err := json.Unmarshal(enc, &cp.Shards[i]); err != nil {
			return err
		}
		if cp.Shards[i] != nil {
			cp.encoded[i] = enc
		}
	}
	return nil
}

// shardJSON returns shard i's encoding: the cached bytes when present,
// "null" for an incomplete shard, otherwise a fresh encoding.
func (cp *checkpointFile) shardJSON(i int) ([]byte, error) {
	if cp.Shards[i] == nil {
		return jsonNull, nil
	}
	if i < len(cp.encoded) && cp.encoded[i] != nil {
		return cp.encoded[i], nil
	}
	return json.Marshal(cp.Shards[i])
}

var (
	jsonNull  = []byte("null")
	jsonComma = []byte(",")
)

// payloadPieces returns cp's JSON encoding as byte slices whose
// concatenation is exactly json.Marshal(cp): a header with the
// fingerprint, shard count and seed table, then each shard's encoding.
// No piece is copied; the cached shard encodings are spliced in place.
func (cp *checkpointFile) payloadPieces() ([][]byte, error) {
	fp, err := json.Marshal(cp.Fingerprint)
	if err != nil {
		return nil, err
	}
	seeds, err := json.Marshal(cp.Seeds)
	if err != nil {
		return nil, err
	}
	head := append([]byte(`{"Fingerprint":`), fp...)
	head = append(head, `,"TotalShards":`...)
	head = strconv.AppendInt(head, int64(cp.TotalShards), 10)
	head = append(head, `,"Seeds":`...)
	head = append(head, seeds...)
	head = append(head, `,"Shards":`...)
	if cp.Shards == nil {
		return [][]byte{append(head, "null}"...)}, nil
	}
	pieces := make([][]byte, 0, 2*len(cp.Shards)+2)
	pieces = append(pieces, append(head, '['))
	for i := range cp.Shards {
		if i > 0 {
			pieces = append(pieces, jsonComma)
		}
		enc, err := cp.shardJSON(i)
		if err != nil {
			return nil, err
		}
		pieces = append(pieces, enc)
	}
	return append(pieces, []byte("]}")), nil
}

// errCkptCorrupt marks a checkpoint generation that cannot be trusted:
// unreadable, unparseable, or failing its checksum. loadCheckpoint
// responds by salvaging the previous generation, never by aborting.
var errCkptCorrupt = errors.New("campaign: checkpoint corrupt")

// errInjected is the error chaos-injected infrastructure faults surface.
var errInjected = errors.New("injected chaos fault")

// fingerprintExcluded declares, next to the code it governs, the Config
// fields deliberately NOT rendered by fingerprint(), keyed by field name
// with the reason each exclusion is sound. The sqlint fingerprint
// analyzer (internal/analysis) reads this declaration and fails `go vet`
// whenever a Config field is neither rendered in fingerprint() nor
// listed here — so a new knob can skew -resume only after being argued
// about in review, never by being forgotten.
var fingerprintExcluded = map[string]string{
	"Policy":      "behavior value, unrenderable: checkpointed runs must configure via Mode (which is fingerprinted)",
	"BatchSize":   "execution is observationally identical at every batch width (columnar parity contract)",
	"CaseTimeout": "wall-clock watchdog is host-dependent infrastructure; hangs never feed reports or validity",
	"Chaos":       "injected infrastructure faults must be survivable — including by a chaos-free -resume",
	"Coverage":    "observer sink: records engine coverage and never feeds generation or the report",
}

// Compile-time guard for the exclusion list: every excluded field must
// still exist on Config under exactly these names, so a rename breaks
// this keyed literal before the analyzer even runs. (The analyzer
// separately rejects stale or contradictory entries.)
var _ = Config{
	Policy:      nil,
	BatchSize:   0,
	CaseTimeout: 0,
	Chaos:       nil,
	Coverage:    nil,
}

// fingerprint renders the resolved configuration fields that determine a
// campaign's behavior; fingerprintExcluded declares (with reasons) the
// fields deliberately left out, and the sqlint fingerprint analyzer
// holds the two views exhaustive over Config.
func fingerprint(cfg Config) string {
	h := fnv.New64a()
	h.Write(cfg.FeedbackState)
	ph := fnv.New64a()
	ph.Write(cfg.PlanPairState)
	return fmt.Sprintf("d=%s m=%d tc=%d ss=%d cpd=%d se=%d seed=%d or=%v tco=%t rp=%g ef=%v th=%g cf=%g ui=%d df=%d sd=%d md=%d di=%d mp=%d nps=%t rb=%t pcl=%d budget=%d kac=%t fs=%x pps=%x",
		cfg.Dialect.Name, cfg.Mode, cfg.TestCases, cfg.SetupStmts,
		cfg.CasesPerDB, cfg.SmokeEvery, cfg.Seed, cfg.Oracles,
		cfg.TypeCorrect, cfg.RiskyProb, cfg.ExtraFunctions,
		cfg.Threshold, cfg.Confidence, cfg.UpdateInterval,
		cfg.DDLMaxFailures, cfg.StartDepth, cfg.MaxDepth,
		cfg.DepthInterval, cfg.MaxPlansPerQuery, cfg.NoPlanPairSched,
		cfg.ReduceBugs, cfg.PerfCostLimit, cfg.RowBudget,
		cfg.KeepAllCases, h.Sum64(), ph.Sum64())
}

// RunShardedOpts is RunSharded with supervision, checkpoint/resume, and
// interruption support. Progress is saved at shard granularity: each
// completed shard's report is written to the checkpoint before the next
// one is merged in, so an interrupted campaign loses at most the shards
// that were in flight. Shard failures are retried and then quarantined
// (see ShardedOptions.MaxShardRetries); checkpoint write failures are
// counted, not fatal. Only configuration errors and interruption abort
// the run.
//
// Shards do not reduce their bugs. With Config.ReduceBugs, the merged
// report's prioritized bugs are reduced once, after the merge, over the
// same worker count: bugs the global prioritizer drops are never reduced.
func RunShardedOpts(cfg Config, opts ShardedOptions) (*Report, error) {
	if cfg.Dialect == nil {
		return nil, fmt.Errorf("campaign: no dialect configured")
	}
	cfg = cfg.withDefaults()
	shards := shardConfigs(cfg)
	nShards := len(shards)
	workers := max(opts.Workers, 1)
	maxRetries := opts.MaxShardRetries
	if maxRetries == 0 {
		maxRetries = DefaultShardRetries
	} else if maxRetries < 0 {
		maxRetries = 0
	}
	backoff := opts.RetryBackoff
	if backoff == 0 {
		backoff = DefaultRetryBackoff
	} else if backoff < 0 {
		backoff = 0
	}

	cp := &checkpointFile{
		Fingerprint: fingerprint(cfg),
		TotalShards: nShards,
		Seeds:       make([]int64, nShards),
		Shards:      make([]*Report, nShards),
		encoded:     make([][]byte, nShards),
	}
	for i, sc := range shards {
		cp.Seeds[i] = sc.Seed
	}
	if opts.Resume && opts.CheckpointPath != "" {
		if err := loadCheckpoint(opts.CheckpointPath, cp); err != nil {
			return nil, err
		}
	}

	var mu sync.Mutex
	ckptFailures := 0
	err := par.ForEach(nShards, workers, func(i int) error {
		if cp.Shards[i] != nil {
			return nil // restored from the checkpoint
		}
		select {
		case <-opts.Interrupt:
			return ErrInterrupted
		default:
		}
		rep, err := runShardSupervised(shards[i], i, maxRetries, backoff)
		if err != nil {
			return err
		}
		var enc []byte
		if opts.CheckpointPath != "" {
			// Encode once, off the lock: every later save splices these
			// bytes. On an encoding error enc stays nil and each save
			// re-encodes the shard, failing and counting like any other
			// checkpoint write failure.
			enc, _ = json.Marshal(rep)
		}
		mu.Lock()
		defer mu.Unlock()
		cp.Shards[i], cp.encoded[i] = rep, enc
		if opts.CheckpointPath != "" {
			if serr := saveCheckpoint(opts.CheckpointPath, cp, cfg.Chaos); serr != nil {
				// Degrade, don't abort: the campaign keeps running and
				// only risks redoing this generation's shards on a crash.
				ckptFailures++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged, err := mergeReports(cfg, cp.Shards)
	if err != nil {
		return nil, err
	}
	merged.CheckpointWriteFailures += ckptFailures
	if err := reduceBugs(cfg, merged.Bugs, workers); err != nil {
		return nil, err
	}
	if opts.CheckpointPath != "" {
		// Campaign complete; nothing to resume. A failed removal is a real
		// error — a stale checkpoint would resurrect this run's shards
		// into the next campaign that reuses the path.
		for _, p := range []string{opts.CheckpointPath, opts.CheckpointPath + ".bak"} {
			if rerr := os.Remove(p); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
				return nil, fmt.Errorf("campaign: removing completed checkpoint: %w", rerr)
			}
		}
	}
	return merged, nil
}

// runShardSupervised runs one shard under the supervisor's retry policy:
// a failed attempt (error or recovered panic) is retried with doubling
// capped backoff; when every attempt fails the shard is quarantined —
// the returned placeholder report carries the failure and contributes
// nothing else to the merge. Configuration errors are fatal immediately:
// they would fail identically on every retry and on every other shard.
func runShardSupervised(sc Config, shard, maxRetries int, backoff time.Duration) (*Report, error) {
	var lastErr error
	for attempt := 1; attempt <= maxRetries+1; attempt++ {
		if attempt > 1 && backoff > 0 {
			d := backoff << (attempt - 2)
			if d > maxBackoffFactor*backoff {
				d = maxBackoffFactor * backoff
			}
			time.Sleep(d)
		}
		rep, fatal, err := runShardAttempt(sc, shard, attempt)
		if err == nil {
			rep.ShardRetries = attempt - 1
			return rep, nil
		}
		if fatal {
			return nil, err
		}
		lastErr = err
	}
	return &Report{
		Quarantined:   true,
		QuarantineErr: lastErr.Error(),
		ShardRetries:  maxRetries,
	}, nil
}

// runShardAttempt executes one attempt at one shard behind a recovery
// boundary: a panic anywhere in the shard's runner becomes a retryable
// error with a deterministic message (no stack — retry accounting must
// not vary with scheduling). fatal marks configuration errors, which
// retrying cannot fix.
func runShardAttempt(sc Config, shard, attempt int) (rep *Report, fatal bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			rep, fatal, err = nil, false,
				fmt.Errorf("campaign: shard %d attempt %d panicked: %v", shard, attempt, p)
		}
	}()
	switch sc.Chaos.ShardFault(shard, attempt) {
	case chaos.ShardFailError:
		return nil, false, fmt.Errorf("campaign: shard %d attempt %d: %w", shard, attempt, errInjected)
	case chaos.ShardFailPanic:
		panic(fmt.Sprintf("%v (shard %d attempt %d)", errInjected, shard, attempt))
	}
	runner, err := New(sc)
	if err != nil {
		return nil, true, err
	}
	return runner.run(), false, nil
}

// loadCheckpoint restores completed shards from path into cp after
// validating that the checkpoint belongs to this exact campaign. A
// missing file is not an error (the run starts from scratch), and a
// corrupt primary falls back to the ".bak" last-known-good generation —
// then to a fresh start — instead of refusing to resume. Version,
// fingerprint, and shard-layout mismatches in an intact file remain hard
// errors: they mean the checkpoint is someone else's, not that it is
// damaged.
func loadCheckpoint(path string, cp *checkpointFile) error {
	old, err := loadCheckpointFile(path)
	switch {
	case err == nil:
	case errors.Is(err, os.ErrNotExist):
		return nil
	case errors.Is(err, errCkptCorrupt):
		bak, bakErr := loadCheckpointFile(path + ".bak")
		switch {
		case bakErr == nil:
			old = bak
		case errors.Is(bakErr, os.ErrNotExist), errors.Is(bakErr, errCkptCorrupt):
			return nil // both generations unusable: start fresh
		default:
			return bakErr
		}
	default:
		return err
	}
	if old.Fingerprint != cp.Fingerprint {
		return fmt.Errorf("campaign: checkpoint %s was recorded for a different configuration", path)
	}
	if old.TotalShards != cp.TotalShards ||
		len(old.Shards) != cp.TotalShards || len(old.Seeds) != cp.TotalShards {
		return fmt.Errorf("campaign: checkpoint %s shard layout does not match", path)
	}
	for i, s := range old.Seeds {
		if s != cp.Seeds[i] {
			return fmt.Errorf("campaign: checkpoint %s shard %d seed mismatch", path, i)
		}
	}
	copy(cp.Shards, old.Shards)
	cp.encoded = old.encoded
	return nil
}

// loadCheckpointFile reads and verifies one checkpoint generation.
// Unreadable bytes, a broken envelope, a failed checksum, or an
// undecodable payload all report errCkptCorrupt (salvageable); an intact
// envelope with the wrong version is a hard error.
func loadCheckpointFile(path string) (*checkpointFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: reading %s: %v", errCkptCorrupt, path, err)
	}
	var env checkpointEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%w: parsing %s: %v", errCkptCorrupt, path, err)
	}
	if env.Version != checkpointVersion {
		return nil, fmt.Errorf("campaign: checkpoint %s has version %d, want %d",
			path, env.Version, checkpointVersion)
	}
	if env.Checksum != ckptChecksum(env.Payload) {
		return nil, fmt.Errorf("%w: %s checksum mismatch", errCkptCorrupt, path)
	}
	var cf checkpointFile
	if err := json.Unmarshal(env.Payload, &cf); err != nil {
		return nil, fmt.Errorf("%w: decoding %s payload: %v", errCkptCorrupt, path, err)
	}
	return &cf, nil
}

// ckptChecksum is the envelope's content checksum: FNV-1a-64 over the
// payload bytes, hex-rendered. Not cryptographic — it defends against
// torn writes and bit rot, not adversaries.
func ckptChecksum(payload []byte) string {
	h := fnv.New64a()
	h.Write(payload)
	return fmt.Sprintf("%016x", h.Sum64())
}

// FNV-1a-64 parameters, for prefixSum's resumable form of ckptChecksum.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// prefixSum computes ckptChecksum's FNV-1a-64 over a payload given as
// pieces, resumably across calls: the hash state after the longest run
// of leading pieces equal to the previous call's is reused, so a save
// that adds one shard rehashes only from that shard on. Shards finish in
// roughly ordinal order, which keeps the rehashed suffix short and a
// campaign's total hashing about linear in its checkpoint size.
type prefixSum struct {
	pieces [][]byte // the previous call's pieces
	states []uint64 // states[k]: the hash state after pieces[:k+1]
}

func (ps *prefixSum) sum(pieces [][]byte) uint64 {
	k := 0
	for k < len(pieces) && k < len(ps.pieces) && bytes.Equal(pieces[k], ps.pieces[k]) {
		k++
	}
	h := uint64(fnvOffset64)
	if k > 0 {
		h = ps.states[k-1]
	}
	ps.states = ps.states[:k]
	for _, p := range pieces[k:] {
		for _, c := range p {
			h ^= uint64(c)
			h *= fnvPrime64
		}
		ps.states = append(ps.states, h)
	}
	ps.pieces = append(ps.pieces[:0], pieces...)
	return h
}

// saveCheckpoint writes cp to path atomically and durably: the
// checksummed envelope goes to a unique O_EXCL temp file in the same
// directory (concurrent campaigns sharing a path can no longer clobber
// each other's temp), is fsynced, and replaces the checkpoint via
// rename — with the previous generation first rotated to path+".bak" as
// the salvage target for torn-write recovery. The file holds exactly
// json.Marshal(checkpointEnvelope{Payload: json.Marshal(cp)}), but the
// payload is never assembled: its pieces are hashed in place (resuming
// from the previous save's state over the unchanged leading pieces),
// then the envelope head and the pieces stream through a buffered
// writer. The inj sites fault each stage deterministically under chaos
// testing; inj is nil in production.
func saveCheckpoint(path string, cp *checkpointFile, inj *chaos.Injector) error {
	if inj.CheckpointFault(chaos.CheckpointMarshal) {
		return fmt.Errorf("campaign: encoding checkpoint: %w", errInjected)
	}
	payload, err := cp.payloadPieces()
	if err != nil {
		return fmt.Errorf("campaign: encoding checkpoint: %w", err)
	}
	// The envelope's fields are an int and a hex string, so its head is
	// already in json.Marshal's form; the payload is compact and
	// HTML-escaped, which re-marshalling a json.RawMessage leaves as is.
	head := fmt.Appendf(nil, `{"Version":%d,"Checksum":"%016x","Payload":`,
		checkpointVersion, cp.sum.sum(payload))
	parts := append([][]byte{head}, payload...)
	parts = append(parts, []byte("}"))
	limit := 0
	for _, p := range parts {
		limit += len(p)
	}
	if inj.CheckpointFault(chaos.CheckpointTorn) {
		// A torn write that still commits: half the bytes reach the final
		// rename. The checksum catches it on load and the .bak generation
		// salvages the resume.
		limit /= 2
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("campaign: creating checkpoint temp file: %w", err)
	}
	tmp := f.Name()
	w := bufio.NewWriterSize(f, 64<<10)
	for _, p := range parts {
		if len(p) > limit {
			p = p[:limit]
		}
		limit -= len(p)
		if _, err = w.Write(p); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil && inj.CheckpointFault(chaos.CheckpointWrite) {
		err = errInjected
	}
	if err == nil {
		// fsync before rename: the rename must never become visible ahead
		// of the data it points at.
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("campaign: writing checkpoint: %w", err)
	}
	// Rotate the current generation to last-known-good. Between this
	// rename and the next, path does not exist — a crash in that window
	// resumes from .bak, which is exactly what .bak is for.
	if err := os.Rename(path, path+".bak"); err != nil && !errors.Is(err, os.ErrNotExist) {
		os.Remove(tmp)
		return fmt.Errorf("campaign: rotating checkpoint generation: %w", err)
	}
	if inj.CheckpointFault(chaos.CheckpointRename) {
		os.Remove(tmp)
		return fmt.Errorf("campaign: committing checkpoint: %w", errInjected)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("campaign: committing checkpoint: %w", err)
	}
	return nil
}
