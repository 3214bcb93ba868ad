package ingest

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"loki/internal/blockio"
	"loki/internal/store"
	"loki/internal/survey"
)

// walRecord is one response on its way into a WAL shard.
type walRecord struct {
	resp    survey.Response // validated private copy
	payload []byte          // marshaled JSON record; the codec frames it
	// seq is the survey's response count right after this record's
	// index append (its per-survey sequence number), set by the
	// committer under mu; 0 while the record is not committed.
	seq int
}

// appendReq is one caller's group of records for one shard, at most
// MaxBatch of them, committed together and in order. The committer
// replies on errc exactly once: nil after every record is durable
// (written and fsynced), visible to reads and numbered, or the commit
// error.
type appendReq struct {
	recs []*walRecord
	errc chan error
}

// shard owns one hash partition of the response stream: a segmented WAL
// on disk, an in-memory index for reads, and a single committer goroutine
// that batches concurrent appends into group commits (one buffered write
// and one fsync per batch).
type shard struct {
	id  int
	dir string
	cfg Config

	reqCh chan *appendReq
	quit  chan struct{}
	done  chan struct{}

	// mu guards index for readers; the committer is the only writer.
	mu    sync.RWMutex
	index map[string][]survey.Response

	// Committer-owned state (no locking: single goroutine).
	seg       segAppender
	segSeq    uint64   // active segment sequence number
	segBytes  int64    // bytes appended to the active segment
	completed []uint64 // sealed segments not yet covered by a snapshot
	snapSeq   uint64   // highest segment seq covered by the latest snapshot
	tailBytes int64    // WAL bytes not yet folded into a snapshot
	snapBytes int64    // size of the current snapshot file
	failed    error    // sticky fatal I/O error; set only by the committer

	// Counters for observability and benchmarks.
	appends   atomic.Int64 // responses durably committed
	commits   atomic.Int64 // group commits (== fsyncs on the append path)
	rotations atomic.Int64
	snapshots atomic.Int64
	// Admin-surface mirrors of committer-owned state, readable without
	// the committer's cooperation.
	idleCompactions atomic.Int64
	sealedSegs      atomic.Int64  // len(completed)
	snapSeqSeen     atomic.Uint64 // == snapSeq
	lastCompactNano atomic.Int64  // unix nanos of the last snapshot, 0 if never
}

// openShard recovers a shard from its directory (snapshot + WAL tail
// replay) and starts its committer.
func openShard(id int, dir string, cfg Config) (*shard, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: mkdir %s: %w", dir, err)
	}
	sh := &shard{
		id:    id,
		dir:   dir,
		cfg:   cfg,
		reqCh: make(chan *appendReq, cfg.MaxBatch),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
		index: make(map[string][]survey.Response),
	}
	if err := removeTmp(dir); err != nil {
		return nil, err
	}
	if err := sh.loadSnapshot(); err != nil {
		return nil, err
	}
	segs, err := listSeqs(dir, segPrefix, segSuffix)
	if err != nil {
		return nil, err
	}
	maxSeq := sh.snapSeq
	for i, seq := range segs {
		if seq > maxSeq {
			maxSeq = seq
		}
		if seq <= sh.snapSeq {
			// Covered by the snapshot; a crash raced compaction's removal.
			if err := os.Remove(filepath.Join(dir, segName(seq))); err != nil {
				return nil, fmt.Errorf("ingest: drop covered segment: %w", err)
			}
			continue
		}
		// Only the newest segment may have a torn tail; older ones were
		// sealed with an fsync before their successor was created.
		tornOK := i == len(segs)-1
		if err := sh.replaySegment(seq, tornOK); err != nil {
			return nil, err
		}
		sh.completed = append(sh.completed, seq)
		if fi, err := os.Stat(filepath.Join(dir, segName(seq))); err == nil {
			sh.tailBytes += fi.Size()
		}
	}
	// Always start appends in a fresh segment: reopening a replayed tail
	// for append would complicate torn-tail truncation for no benefit.
	sh.sealedSegs.Store(int64(len(sh.completed)))
	sh.segSeq = maxSeq + 1
	if err := sh.openSegment(); err != nil {
		return nil, err
	}
	go sh.run()
	return sh, nil
}

// replaySegment loads every complete response record of one segment into
// the index, truncating a torn tail when tornOK. The codec is sniffed
// per file, so a directory written under the other codec (or a mix,
// mid-migration) replays transparently.
func (sh *shard) replaySegment(seq uint64, tornOK bool) error {
	path := filepath.Join(sh.dir, segName(seq))
	apply := func(rec []byte) error {
		var r survey.Response
		if err := json.Unmarshal(rec, &r); err != nil {
			return fmt.Errorf("corrupt response record: %w", err)
		}
		sh.index[r.SurveyID] = append(sh.index[r.SurveyID], r)
		return nil
	}
	bin, err := blockio.Sniff(path)
	if err != nil {
		return fmt.Errorf("ingest: sniff segment %s: %w", path, err)
	}
	if bin {
		_, err := blockio.Replay(path, tornOK, func(_ uint64, payload []byte) error {
			return apply(payload)
		})
		return err
	}
	return store.ReplayLines(path, tornOK, apply)
}

// openSegment creates the active segment file for sh.segSeq and makes its
// directory entry durable.
func (sh *shard) openSegment() error {
	path := filepath.Join(sh.dir, segName(sh.segSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("ingest: create segment %s: %w", path, err)
	}
	seg, err := newSegAppender(sh.cfg.Codec, f)
	if err != nil {
		f.Close()
		return err
	}
	if err := syncDir(sh.dir); err != nil {
		f.Close()
		return err
	}
	sh.seg = seg
	sh.segBytes = 0
	return nil
}

// run is the committer loop: take the first waiting request, gather
// everything else already queued (plus, optionally, a commit window of
// latecomers), and commit the batch with a single write + fsync. A
// shard that stays quiet for IdleCompact gets its WAL tail folded into
// a snapshot — without this, compaction (which otherwise runs only on
// segment rotation) would never reclaim the tail of an idle shard.
func (sh *shard) run() {
	defer close(sh.done)
	var idleC <-chan time.Time
	var idleT *time.Timer
	if sh.cfg.IdleCompact > 0 {
		idleT = time.NewTimer(sh.cfg.IdleCompact)
		defer idleT.Stop()
		idleC = idleT.C
	}
	for {
		select {
		case req := <-sh.reqCh:
			sh.serve(req)
			if idleT != nil {
				// Go 1.23+ timer semantics: Reset discards a pending
				// fire, no drain needed.
				idleT.Reset(sh.cfg.IdleCompact)
			}
		case <-idleC:
			sh.idleCompact()
			idleT.Reset(sh.cfg.IdleCompact)
		case <-sh.quit:
			// Serve whatever was enqueued before shutdown, then exit.
			for {
				select {
				case req := <-sh.reqCh:
					sh.serve(req)
				default:
					return
				}
			}
		}
	}
}

// shouldIdleCompact bounds idle compaction's write amplification: a
// snapshot rewrites the shard's whole history, so folding a tiny tail
// into a huge snapshot over and over would turn trickle writes into
// full-history rewrites. Requiring the unfolded tail to be at least 1/8
// of the current snapshot caps the amplification while still folding
// promptly when there is no snapshot yet (or a small one).
func shouldIdleCompact(tailBytes, snapBytes int64) bool {
	if tailBytes == 0 {
		return false
	}
	return tailBytes*8 >= snapBytes
}

// idleCompact folds a quiet shard's WAL tail into a snapshot: seal the
// active segment if it holds data, then compact every sealed segment.
// Runs on the committer goroutine, so it owns the segment state
// exclusively, exactly like the rotation-triggered path.
func (sh *shard) idleCompact() {
	if sh.failed != nil {
		return
	}
	if sh.segBytes == 0 && len(sh.completed) == 0 {
		return // nothing to fold
	}
	if !shouldIdleCompact(sh.tailBytes, sh.snapBytes) {
		return // tail too small to be worth rewriting the snapshot
	}
	if sh.segBytes > 0 {
		if err := sh.rotate(); err != nil {
			sh.failed = err
			return
		}
	}
	if len(sh.completed) == 0 {
		return
	}
	if err := sh.snapshot(); err != nil {
		sh.failed = err
		return
	}
	sh.idleCompactions.Add(1)
}

// serve commits req, then every request held over from a full batch,
// until none is left waiting on the committer.
func (sh *shard) serve(req *appendReq) {
	for req != nil {
		var batch []*appendReq
		batch, req = sh.collect(req)
		sh.commit(batch)
	}
}

// collect builds a group-commit batch of at most MaxBatch records. It
// first drains every request already queued (batching arises naturally
// while the previous commit's fsync runs), then — if a commit window is
// configured — waits up to CommitInterval for more, trading latency for
// fewer fsyncs. A request that would push the batch past MaxBatch is
// returned as next, to open the following commit.
func (sh *shard) collect(first *appendReq) (batch []*appendReq, next *appendReq) {
	batch = append(make([]*appendReq, 0, 16), first)
	n := len(first.recs)
	// add takes r into the batch, or holds it over when it does not fit.
	add := func(r *appendReq) bool {
		if n+len(r.recs) > sh.cfg.MaxBatch {
			next = r
			return false
		}
		batch = append(batch, r)
		n += len(r.recs)
		return true
	}
drain:
	for n < sh.cfg.MaxBatch {
		select {
		case r := <-sh.reqCh:
			if !add(r) {
				return batch, next
			}
		default:
			break drain
		}
	}
	if sh.cfg.CommitInterval <= 0 || n >= sh.cfg.MaxBatch {
		return batch, nil
	}
	t := time.NewTimer(sh.cfg.CommitInterval)
	defer t.Stop()
	for n < sh.cfg.MaxBatch {
		select {
		case r := <-sh.reqCh:
			if !add(r) {
				return batch, next
			}
		case <-t.C:
			return batch, nil
		}
	}
	return batch, nil
}

// commit makes a batch durable and visible: one buffered write of every
// record (one block under the binary codec), one flush, one fsync, then
// an index update that numbers each record and replies to every
// waiter. On an I/O error the shard fails sticky — durability code must
// not guess at the on-disk state after a failed write.
func (sh *shard) commit(batch []*appendReq) {
	reply := func(err error) {
		for _, r := range batch {
			r.errc <- err
		}
	}
	if sh.failed != nil {
		reply(sh.failed)
		return
	}
	before := sh.seg.offset()
	var werr error
write:
	for _, r := range batch {
		for _, rec := range r.recs {
			if err := sh.seg.append(rec.payload); err != nil {
				werr = err
				break write
			}
		}
	}
	if werr == nil {
		werr = sh.seg.flush()
	}
	if werr == nil {
		werr = sh.seg.sync()
	}
	if werr != nil {
		sh.failed = fmt.Errorf("ingest: shard %d segment %d: %w", sh.id, sh.segSeq, werr)
		reply(sh.failed)
		return
	}
	// Framed (binary: compressed) bytes, measured after the flush so the
	// rotation threshold tracks the on-disk size, not the logical one.
	n := sh.seg.offset() - before
	sh.segBytes += n
	sh.tailBytes += n
	records := 0
	sh.mu.Lock()
	for _, r := range batch {
		for _, rec := range r.recs {
			id := rec.resp.SurveyID
			sh.index[id] = append(sh.index[id], rec.resp)
			rec.seq = len(sh.index[id])
		}
		records += len(r.recs)
	}
	sh.mu.Unlock()
	sh.appends.Add(int64(records))
	sh.commits.Add(1)
	reply(nil)
	if sh.segBytes >= sh.cfg.SegmentBytes {
		sh.maintain()
	}
}

// maintain runs between commits: seal the full active segment, open the
// next one, and compact once enough sealed segments accumulate. Errors
// fail the shard sticky; in-flight data is already durable, only future
// appends are refused.
func (sh *shard) maintain() {
	if err := sh.rotate(); err != nil {
		sh.failed = err
		return
	}
	if len(sh.completed) >= sh.cfg.CompactSegments {
		if err := sh.snapshot(); err != nil {
			sh.failed = err
		}
	}
}

// rotate seals the active segment (record data already fsynced by the
// last commit; the binary codec appends and fsyncs its block index here)
// and opens its successor. Only rotation seals: the active segment stays
// unsealed so a crash mid-append truncates cleanly on replay.
func (sh *shard) rotate() error {
	if err := sh.seg.seal(); err != nil {
		return fmt.Errorf("ingest: seal segment %d: %w", sh.segSeq, err)
	}
	if err := sh.seg.close(); err != nil {
		return fmt.Errorf("ingest: seal segment %d: %w", sh.segSeq, err)
	}
	sh.completed = append(sh.completed, sh.segSeq)
	sh.sealedSegs.Store(int64(len(sh.completed)))
	sh.segSeq++
	sh.rotations.Add(1)
	return sh.openSegment()
}

// close stops the committer (serving everything already enqueued) and
// closes the active segment — flushed and fsynced but deliberately NOT
// sealed, so the next open can keep treating it as a repairable tail.
// Callers must guarantee no new appends are in flight.
func (sh *shard) close() error {
	close(sh.quit)
	<-sh.done
	if sh.seg == nil {
		return sh.failed
	}
	flushErr := sh.seg.flush()
	if flushErr == nil {
		flushErr = sh.seg.sync()
	}
	closeErr := sh.seg.close()
	sh.seg = nil
	if sh.failed != nil {
		return sh.failed
	}
	if flushErr != nil {
		return fmt.Errorf("ingest: close shard %d: %w", sh.id, flushErr)
	}
	if closeErr != nil {
		return fmt.Errorf("ingest: close shard %d: %w", sh.id, closeErr)
	}
	return nil
}

// scan streams the shard's responses for one survey from fromSeq
// onwards, without materializing a copy: the index is the recovered
// snapshot + WAL tail and is append-only per survey, so the slice
// header captured under the read lock is a consistent snapshot the
// iteration can walk lock-free (the committer only ever writes beyond
// the captured length).
func (sh *shard) scan(surveyID string, fromSeq uint64, fn func(seq uint64, r *survey.Response) error) error {
	sh.mu.RLock()
	rs := sh.index[surveyID]
	sh.mu.RUnlock()
	return store.ScanSlice(rs, fromSeq, fn)
}

// responseCount returns the shard's response count for one survey.
func (sh *shard) responseCount(surveyID string) int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.index[surveyID])
}
