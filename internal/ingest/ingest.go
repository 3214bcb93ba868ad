// Package ingest is the sharded, durable ingestion subsystem of the Loki
// backend: a store.Store implementation built for sustained concurrent
// response submission at platform scale.
//
// Responses are hash-partitioned by survey ID across N shards. Each
// shard owns a segmented write-ahead log and a single committer
// goroutine: concurrent appends coalesce into one group commit — one
// buffered write and one fsync per batch — so the fsync cost amortizes
// across every caller waiting in the same commit window, and
// independent shards commit in parallel. AppendResponses hands each
// shard a batch's records for it at once, so a batch costs one group
// commit per shard it touches, not one per record. Segments rotate at a
// bounded size; once enough sealed segments accumulate, the shard folds
// them into a snapshot and deletes them, so recovery replays only the
// WAL tail instead of the whole history.
//
// Durability guarantee: when AppendResponse or PutSurvey returns nil,
// the record has been written and fsynced (and, for files just created,
// the directory entry synced); when AppendResponses returns, every
// record of the prefix it reports has. A crash at any point loses no
// acknowledged record; a torn trailing record from an unacknowledged
// append is detected and truncated on reopen.
//
// Surveys are low-volume metadata and live in a single shared JSON-lines
// log (meta.jsonl) synced on every publish.
//
// Layout of an ingest directory:
//
//	dir/
//	  meta.jsonl            survey definitions
//	  shard-000/
//	    wal-<seq>.seg       response segments (blockio binary blocks, or JSON lines)
//	    snap-<seq>.snap     snapshot covering segments <= seq (same codecs)
//	  shard-001/
//	    ...
//
// Segments and snapshots are written in the configured codec (binary by
// default) but replayed by sniffing each file's magic, so a directory
// written under the old JSON-lines codec — or a mix, mid-migration —
// reopens in place and converts as new files are written.
package ingest

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"loki/internal/blockio"
	"loki/internal/store"
	"loki/internal/survey"
)

// Config tunes the sharded ingest store. The zero value selects sane
// defaults via Open.
type Config struct {
	// Shards is the number of hash partitions (default 8). Submission
	// throughput scales with shards until fsync bandwidth saturates.
	Shards int
	// CommitInterval is how long a shard's committer waits for
	// latecomers after the first request of a batch (default 0). Zero
	// commits as soon as the committer is free: batching then arises
	// naturally from requests queueing while the previous fsync runs. A
	// positive window trades latency for fewer, larger commits.
	CommitInterval time.Duration
	// MaxBatch bounds how many records one group commit may carry
	// (default 512). A batch's group for one shard that is larger splits
	// across consecutive commits.
	MaxBatch int
	// SegmentBytes is the rotation threshold for WAL segments (default
	// 16 MiB). A segment may exceed it by at most one commit batch.
	SegmentBytes int64
	// CompactSegments is how many sealed segments accumulate before the
	// shard folds them into a snapshot (default 4).
	CompactSegments int
	// IdleCompact is how long a shard may sit idle (no commits) before
	// its committer folds the WAL tail — active segment included — into
	// a snapshot. Without it, a shard that goes quiet never compacts,
	// since ordinary compaction only runs on segment rotation. Default
	// 1 minute; negative disables idle compaction.
	IdleCompact time.Duration
	// Codec selects the encoding of new segments and snapshots:
	// blockio.CodecBinary (the default) writes compressed, checksummed,
	// block-indexed files; blockio.CodecJSON writes readable JSON lines.
	// Replay autodetects per file, so the codec may change between opens
	// of the same directory.
	Codec string
}

func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = 8
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 512
	}
	if c.SegmentBytes == 0 {
		c.SegmentBytes = 16 << 20
	}
	if c.CompactSegments == 0 {
		c.CompactSegments = 4
	}
	if c.IdleCompact == 0 {
		c.IdleCompact = time.Minute
	}
	if c.Codec == "" {
		c.Codec = blockio.CodecBinary
	}
	return c
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.Shards < 1 || c.Shards > 1024 {
		return fmt.Errorf("ingest: shard count %d outside [1, 1024]", c.Shards)
	}
	if c.MaxBatch < 1 {
		return fmt.Errorf("ingest: max batch %d < 1", c.MaxBatch)
	}
	if c.SegmentBytes < 4096 {
		return fmt.Errorf("ingest: segment size %d < 4096", c.SegmentBytes)
	}
	if c.CompactSegments < 1 {
		return fmt.Errorf("ingest: compact threshold %d < 1", c.CompactSegments)
	}
	if c.CommitInterval < 0 {
		return fmt.Errorf("ingest: negative commit interval %v", c.CommitInterval)
	}
	if !blockio.ValidCodec(c.Codec) {
		return fmt.Errorf("ingest: unknown codec %q", c.Codec)
	}
	return nil
}

// Sharded is the sharded ingest store. It implements store.Store, so the
// server, platform and public API can adopt it wherever a store.Mem or
// store.File is used today.
type Sharded struct {
	cfg Config
	dir string

	// mu guards the survey index and the meta log writer.
	mu      sync.RWMutex
	surveys map[string]*survey.Survey
	// history is each survey's publish-event log (definition
	// fingerprints with timestamps), rebuilt from the meta log on open.
	history map[string][]store.SurveyVersion
	metaF   *os.File
	metaW   *bufio.Writer
	// metaErr is the first meta-log I/O failure, sticky like the shard
	// commit path: after a failed write/fsync the buffered tail may
	// surface in a later flush, so retrying a publish could duplicate
	// the record on disk and poison the next replay.
	metaErr error

	shards []*shard

	// failed holds the first append commit error: from then on the
	// store fails stop (see AppendResponses).
	failed atomic.Pointer[error]

	closed atomic.Bool
	// closeGate is read-held for the duration of every append; Close
	// write-acquires it after setting closed, which both waits out
	// in-flight appends and is safe against appends racing the close
	// (unlike a WaitGroup, whose Add may not race Wait at zero).
	closeGate sync.RWMutex
}

const (
	metaName   = "meta.jsonl"
	layoutName = "layout.json"
)

// layout is the store's on-disk identity, written atomically (tmp +
// rename) before any shard directory exists. It — not the set of
// shard-NNN directories, which a crashed first Open can leave partial —
// is what fixes the shard count.
type layout struct {
	Format int `json:"format"`
	Shards int `json:"shards"`
}

// Open recovers (or initialises) a sharded ingest store rooted at dir.
// The shard count is fixed at first open: reopening an existing directory
// with a different cfg.Shards is an error, because responses are placed
// by hash modulo the shard count.
func Open(dir string, cfg Config) (*Sharded, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: mkdir %s: %w", dir, err)
	}
	if err := checkLayout(dir, cfg.Shards); err != nil {
		return nil, err
	}
	s := &Sharded{
		cfg:     cfg,
		dir:     dir,
		surveys: make(map[string]*survey.Survey),
		history: make(map[string][]store.SurveyVersion),
	}
	if err := s.openMeta(); err != nil {
		return nil, err
	}
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		sh, err := openShard(i, filepath.Join(dir, shardDirName(i)), cfg)
		if err != nil {
			s.metaF.Close()
			for _, prev := range s.shards[:i] {
				prev.close()
			}
			return nil, err
		}
		s.shards[i] = sh
	}
	return s, nil
}

func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// checkLayout validates the store's shard count against the layout
// marker, writing the marker first on a fresh store. Because the marker
// is published atomically before any shard directory is created, a crash
// mid-Open never leaves a directory that refuses its own shard count.
func checkLayout(dir string, shards int) error {
	path := filepath.Join(dir, layoutName)
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		var l layout
		if jerr := json.Unmarshal(b, &l); jerr != nil {
			return fmt.Errorf("ingest: corrupt %s: %w", path, jerr)
		}
		if l.Format != 1 {
			return fmt.Errorf("ingest: %s format %d not supported by this version", path, l.Format)
		}
		if l.Shards != shards {
			return fmt.Errorf("ingest: %s holds %d shards, config wants %d (shard count is fixed at first open)",
				dir, l.Shards, shards)
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		b, err := json.Marshal(layout{Format: 1, Shards: shards})
		if err != nil {
			return fmt.Errorf("ingest: marshal layout: %w", err)
		}
		tmp := path + tmpSuffix
		f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("ingest: create %s: %w", tmp, err)
		}
		_, werr := f.Write(append(b, '\n'))
		if werr == nil {
			werr = f.Sync() // the rename must never publish torn content
		}
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			os.Remove(tmp)
			return fmt.Errorf("ingest: write %s: %w", tmp, werr)
		}
		if err := os.Rename(tmp, path); err != nil {
			return fmt.Errorf("ingest: publish %s: %w", path, err)
		}
		return syncDir(dir)
	default:
		return fmt.Errorf("ingest: read %s: %w", path, err)
	}
}

// metaRecord is one meta-log line: the survey definition with the
// publish timestamp alongside. Logs written before the timestamp
// existed are plain survey JSON; they decode with a zero timestamp.
type metaRecord struct {
	survey.Survey
	PublishedUnixNano int64 `json:"published_unix_nano,omitempty"`
}

// openMeta replays the survey log (truncating a torn tail) and positions
// it for appends.
func (s *Sharded) openMeta() error {
	path := filepath.Join(s.dir, metaName)
	err := store.ReplayLines(path, true, func(line []byte) error {
		var rec metaRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("corrupt survey record: %w", err)
		}
		if rec.ID == "" {
			return errors.New("survey record without ID")
		}
		// Later records supersede earlier ones: a republish appends the
		// new definition and replay applies the log in order.
		sv := rec.Survey
		s.surveys[sv.ID] = &sv
		s.recordVersion(&sv, rec.PublishedUnixNano)
		return nil
	})
	if errors.Is(err, os.ErrNotExist) {
		err = nil
	}
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("ingest: open %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("ingest: seek %s: %w", path, err)
	}
	s.metaF = f
	s.metaW = bufio.NewWriter(f)
	return nil
}

// shardFor places a survey's response stream on a shard. All responses
// of one survey land on the same shard, which preserves per-survey
// append order.
func (s *Sharded) shardFor(surveyID string) *shard {
	h := fnv.New32a()
	io.WriteString(h, surveyID)
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

// PutSurvey implements store.Store. Surveys are immutable once
// published; the definition is fsynced before the call returns.
func (s *Sharded) PutSurvey(sv *survey.Survey) error {
	if err := sv.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return errors.New("ingest: use after close")
	}
	if s.metaErr != nil {
		return s.metaErr
	}
	if _, dup := s.surveys[sv.ID]; dup {
		return fmt.Errorf("ingest: survey %q: %w", sv.ID, store.ErrExists)
	}
	return s.appendMeta(sv)
}

// ReplaceSurvey implements store.Store: the republish path. The new
// definition is appended to the meta log (replay is last-wins per
// survey ID) and fsynced before it becomes visible.
func (s *Sharded) ReplaceSurvey(sv *survey.Survey) error {
	if err := sv.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return errors.New("ingest: use after close")
	}
	if s.metaErr != nil {
		return s.metaErr
	}
	return s.appendMeta(sv)
}

// recordVersion appends a publish event to the survey's history unless
// the definition is unchanged (an idempotent republish is not a new
// version). The caller holds mu (or is single-threaded replay).
func (s *Sharded) recordVersion(sv *survey.Survey, ts int64) {
	fp := sv.Fingerprint()
	h := s.history[sv.ID]
	if len(h) > 0 && h[len(h)-1].Fingerprint == fp {
		return
	}
	s.history[sv.ID] = append(h, store.SurveyVersion{Fingerprint: fp, PublishedUnixNano: ts})
}

// SurveyHistory implements store.Historian: publish events replayed
// from the meta log, with their logged timestamps.
func (s *Sharded) SurveyHistory(surveyID string) []store.SurveyVersion {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]store.SurveyVersion(nil), s.history[surveyID]...)
}

// appendMeta durably appends one survey definition to meta.jsonl and
// publishes it to the index. The caller holds mu and has cleared the
// closed/metaErr gates.
func (s *Sharded) appendMeta(sv *survey.Survey) error {
	cp := *sv
	ts := time.Now().UnixNano()
	b, err := json.Marshal(&metaRecord{Survey: cp, PublishedUnixNano: ts})
	if err != nil {
		return fmt.Errorf("ingest: marshal survey: %w", err)
	}
	werr := func() error {
		if _, err := s.metaW.Write(append(b, '\n')); err != nil {
			return fmt.Errorf("ingest: write %s: %w", metaName, err)
		}
		if err := s.metaW.Flush(); err != nil {
			return fmt.Errorf("ingest: flush %s: %w", metaName, err)
		}
		if err := s.metaF.Sync(); err != nil {
			return fmt.Errorf("ingest: sync %s: %w", metaName, err)
		}
		return nil
	}()
	if werr != nil {
		s.metaErr = werr
		return werr
	}
	s.surveys[cp.ID] = &cp
	s.recordVersion(&cp, ts)
	return nil
}

// Survey implements store.Store. It returns a deep copy so callers
// cannot mutate the published definition through interior pointers.
func (s *Sharded) Survey(id string) (*survey.Survey, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sv, ok := s.surveys[id]
	if !ok {
		return nil, fmt.Errorf("ingest: survey %q: %w", id, store.ErrNotFound)
	}
	return sv.Clone(), nil
}

// Surveys implements store.Store (deep copies; see Survey).
func (s *Sharded) Surveys() ([]*survey.Survey, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*survey.Survey, 0, len(s.surveys))
	for _, sv := range s.surveys {
		out = append(out, sv.Clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// AppendResponse implements store.Store: a one-record AppendResponses.
func (s *Sharded) AppendResponse(r *survey.Response) error {
	_, err := s.AppendResponses([]survey.Response{*r})
	return err
}

// AppendResponses implements store.BatchAppender. Every record
// validates and marshals before any is enqueued, so a rejected batch
// writes nothing. The records are grouped by shard, in input order, and
// every group is handed to its shard's committer before the call waits
// on any: the shards commit in parallel, and a batch costs one group
// commit per shard it touches (more only when a group exceeds
// MaxBatch). Each returned count is the per-survey seq the committer
// assigned at index append.
//
// Shards commit independently, so a failure can leave a batch durable
// on one shard and not on another. Any commit error therefore fails the
// store stop: the call returns the durable prefix of rs with the error,
// and every later append is refused. Records past the prefix may
// survive on disk and reappear on reopen — the same window as
// store.File's poison path — but an acknowledged record is never lost.
func (s *Sharded) AppendResponses(rs []survey.Response) ([]int, error) {
	s.closeGate.RLock()
	defer s.closeGate.RUnlock()
	if s.closed.Load() {
		return nil, errors.New("ingest: use after close")
	}
	if err := s.failed.Load(); err != nil {
		return nil, *err
	}
	recs, err := s.prepare(rs)
	if err != nil {
		return nil, err
	}
	groups := make([][]*walRecord, len(s.shards))
	for i := range recs {
		sh := s.shardFor(recs[i].resp.SurveyID)
		groups[sh.id] = append(groups[sh.id], &recs[i])
	}
	var reqs []*appendReq
	for id, g := range groups {
		for len(g) > 0 {
			n := min(len(g), s.cfg.MaxBatch)
			req := &appendReq{recs: g[:n], errc: make(chan error, 1)}
			s.shards[id].reqCh <- req
			reqs = append(reqs, req)
			g = g[n:]
		}
	}
	var first error
	for _, req := range reqs {
		if err := <-req.errc; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		s.failed.CompareAndSwap(nil, &first)
	}
	counts := make([]int, 0, len(recs))
	for i := range recs {
		if recs[i].seq == 0 {
			break
		}
		counts = append(counts, recs[i].seq)
	}
	return counts, first
}

// prepare validates every record against its survey and marshals a
// private copy of it. Only the survey lookups hold mu: a published
// definition is never mutated, so validation can run unlocked.
func (s *Sharded) prepare(rs []survey.Response) ([]walRecord, error) {
	svs := make([]*survey.Survey, len(rs))
	s.mu.RLock()
	for i := range rs {
		svs[i] = s.surveys[rs[i].SurveyID]
	}
	s.mu.RUnlock()
	recs := make([]walRecord, len(rs))
	for i := range rs {
		if svs[i] == nil {
			return nil, fmt.Errorf("ingest: response for unknown survey %q: %w", rs[i].SurveyID, store.ErrNotFound)
		}
		if err := rs[i].Validate(svs[i]); err != nil {
			return nil, err
		}
		recs[i].resp = rs[i]
		b, err := json.Marshal(&recs[i].resp)
		if err != nil {
			return nil, fmt.Errorf("ingest: marshal response: %w", err)
		}
		recs[i].payload = b
	}
	return recs, nil
}

// ScanResponses implements store.Store. A survey's whole stream lives
// on one shard (placement is by survey ID), so per-survey sequence
// numbers are simply positions in that shard's append-ordered history —
// stable across restarts because recovery replays snapshot + WAL tail
// in the original order.
func (s *Sharded) ScanResponses(surveyID string, fromSeq uint64, fn func(seq uint64, r *survey.Response) error) error {
	s.mu.RLock()
	_, ok := s.surveys[surveyID]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("ingest: survey %q: %w", surveyID, store.ErrNotFound)
	}
	return s.shardFor(surveyID).scan(surveyID, fromSeq, fn)
}

// Responses implements store.Store as a wrapper over ScanResponses.
func (s *Sharded) Responses(surveyID string) ([]survey.Response, error) {
	return store.CollectResponses(s, surveyID)
}

// ResponseCount implements store.Store.
func (s *Sharded) ResponseCount(surveyID string) int {
	return s.shardFor(surveyID).responseCount(surveyID)
}

// Close implements store.Store: it refuses new appends, waits for
// in-flight ones to commit, stops every committer and seals the logs.
func (s *Sharded) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	// In-flight appenders hold closeGate read locks until their commit
	// is acknowledged; acquiring the write lock waits them out while the
	// committers are still running to serve them. Appenders arriving
	// after observe the closed flag and bail.
	s.closeGate.Lock()
	//lint:ignore SA2001 barrier, not a critical section — the empty lock/unlock pair waits out in-flight appenders
	s.closeGate.Unlock()
	var first error
	for _, sh := range s.shards {
		if err := sh.close(); err != nil && first == nil {
			first = err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	flushErr := s.metaErr
	if flushErr == nil {
		flushErr = s.metaW.Flush()
	}
	if flushErr == nil {
		flushErr = s.metaF.Sync()
	}
	closeErr := s.metaF.Close()
	if first != nil {
		return first
	}
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// Stats reports cumulative ingest counters, summed across shards. The
// commit count equals the number of append-path fsyncs, so
// Appends/Commits is the achieved group-commit batch size.
type Stats struct {
	Appends   int64 `json:"appends"`
	Commits   int64 `json:"commits"`
	Rotations int64 `json:"rotations"`
	Snapshots int64 `json:"snapshots"`
}

// Stats returns current counters.
func (s *Sharded) Stats() Stats {
	var st Stats
	for _, sh := range s.shards {
		st.Appends += sh.appends.Load()
		st.Commits += sh.commits.Load()
		st.Rotations += sh.rotations.Load()
		st.Snapshots += sh.snapshots.Load()
	}
	return st
}

// ShardStats is one shard's observability snapshot for the admin
// surface: WAL shape (sealed segment count, snapshot coverage), when it
// last compacted, and its cumulative counters.
type ShardStats struct {
	ID int `json:"id"`
	// SealedSegments is the number of rotated-but-uncompacted WAL
	// segments (the active segment is not counted).
	SealedSegments int `json:"sealed_segments"`
	// SnapshotSeq is the highest segment sequence the current snapshot
	// covers (0 when the shard has never compacted).
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// LastCompaction is when the shard last folded segments into a
	// snapshot; zero if never.
	LastCompaction time.Time `json:"last_compaction,omitzero"`
	Appends        int64     `json:"appends"`
	Commits        int64     `json:"commits"`
	Rotations      int64     `json:"rotations"`
	Snapshots      int64     `json:"snapshots"`
	// IdleCompactions counts snapshots triggered by the idle timer
	// rather than by segment rotation.
	IdleCompactions int64 `json:"idle_compactions"`
}

// ShardStats reports every shard's current state, in shard order.
func (s *Sharded) ShardStats() []ShardStats {
	out := make([]ShardStats, len(s.shards))
	for i, sh := range s.shards {
		st := ShardStats{
			ID:              sh.id,
			SealedSegments:  int(sh.sealedSegs.Load()),
			SnapshotSeq:     sh.snapSeqSeen.Load(),
			Appends:         sh.appends.Load(),
			Commits:         sh.commits.Load(),
			Rotations:       sh.rotations.Load(),
			Snapshots:       sh.snapshots.Load(),
			IdleCompactions: sh.idleCompactions.Load(),
		}
		if ns := sh.lastCompactNano.Load(); ns != 0 {
			st.LastCompaction = time.Unix(0, ns)
		}
		out[i] = st
	}
	return out
}

var (
	_ store.Store         = (*Sharded)(nil)
	_ store.BatchAppender = (*Sharded)(nil)
)
