package store

// recover.go: opening a durable store. Open maps, per shard, the
// newest segment file that validates end-to-end (magic, footer,
// whole-file CRC) and replays only the WAL generations at or after it
// into the memtable, truncating a torn tail off the active WAL
// segment. Mapping a segment is O(1) in the document count — no JSON
// is parsed and no posting list rebuilt — so open time is governed by
// the WAL tail alone. The layout under Options.DataDir:
//
//	MANIFEST.json            format version + shard count + index depth
//	shard-0000/
//	  seg-0000000003.seg     state at the instant wal-3 started (mmap'd)
//	  wal-0000000003.log     mutations since that instant (active tail)
//
// Generation g's segment pairs with generation g's WAL: seg-g is the
// state at the moment wal-g began, so recovery is map(seg-G) then
// replay wal-G, wal-G+1, … for the greatest valid G. Failed segment
// builds leave extra WAL generations behind (a rotation happens
// before the segment is written); they replay in order like any
// other. A shard directory still holding a snap-*.snap file from the
// retired pre-segment snapshot format is refused: the WAL tail alone
// would silently miss every document that snapshot held.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jsonlogic/internal/jsontree"
)

// manifest pins the on-disk format, the shard count and the index
// depth bound. The shard count is authoritative: document IDs are
// routed to shard files by hash, so reopening with a different count
// would scatter replay across the wrong directories. The depth bound
// is authoritative for the same reason one level up: segment posting
// lists are depth-bounded at write time, so reopening with a larger
// bound would have the planner probe terms the segments never indexed
// and silently miss matches. A manifest written before the field
// existed adopts the configured depth and is rewritten.
type manifest struct {
	Version  int `json:"version"`
	Shards   int `json:"shards"`
	MaxDepth int `json:"max_index_depth,omitempty"`
}

const manifestVersion = 1

// durability is the durable half of a Store: one WAL per shard plus
// the snapshotter/flusher state. Nil on in-memory stores.
type durability struct {
	dir           string
	fs            VFS
	policy        FsyncPolicy
	interval      time.Duration
	snapshotEvery int
	retryBase     time.Duration // initial heal/snapshot-retry backoff

	wals     []*shardWAL
	recovery RecoveryStats
	lock     *os.File // flock'd LOCK file; held until Close

	snapMu         sync.Mutex    // serializes snapshots (manual and background)
	snapshots      atomic.Uint64 // segment builds (merge + swap) completed
	snapshotErrors atomic.Uint64

	// Degraded-mode telemetry: heal attempts on degraded shards and
	// heals that completed (fresh WAL generation + reconciling
	// segment, writes re-enabled).
	walRetries atomic.Uint64
	walHeals   atomic.Uint64

	stop chan struct{}
	done chan struct{}

	// closeOnce runs the shutdown sequence exactly once (Close or
	// crashForTest); closedCh is closed after closeErr is final, so
	// concurrent Close calls block until the result exists instead of
	// racing the first closer's writes.
	closeOnce sync.Once
	closedCh  chan struct{}
	closeErr  error
}

func (d *durability) shardDir(i int) string {
	return filepath.Join(d.dir, fmt.Sprintf("shard-%04d", i))
}

// RecoveryStats reports what Open found and repaired.
type RecoveryStats struct {
	// SegmentsMapped counts shards restored by mapping a segment file;
	// SegmentDocs the documents those segments hold.
	SegmentsMapped int `json:"segments_mapped"`
	SegmentDocs    int `json:"segment_docs"`
	// InvalidSegments counts segment files that failed end-to-end
	// validation (torn footer, CRC mismatch, implausible structure) and
	// were skipped in favor of an older generation — the torn-segment
	// recovery counter /metrics exposes.
	InvalidSegments int `json:"invalid_segments"`
	// WALSegments and WALRecordsReplayed cover the replayed log tail.
	WALSegments        int `json:"wal_segments"`
	WALRecordsReplayed int `json:"wal_records_replayed"`
	// TornTails counts active segments that ended mid-record and were
	// truncated back to the last whole record; TruncatedBytes is the
	// total amount cut.
	TornTails      int   `json:"torn_tails"`
	TruncatedBytes int64 `json:"truncated_bytes"`
	// StaleTempFiles counts leftover segment temp files removed.
	StaleTempFiles int `json:"stale_temp_files"`
}

// Open opens (creating if necessary) a durable Store rooted at
// opts.DataDir, recovering whatever a previous process made durable:
// the latest valid segment per shard plus the replayed WAL tail. A
// torn write at the end of an active segment — the fingerprint of a
// crash mid-append — is truncated away; corruption anywhere else is an
// error, never a silent gap. The recovered store's inverted path index
// is rebuilt en route, and RecoveryStats (via Stats) reports what was
// found. See New for the in-memory variant.
func Open(opts Options) (*Store, error) {
	if opts.DataDir == "" {
		return nil, errors.New("store: Open requires Options.DataDir; use New for an in-memory store")
	}
	opts = normalizeOptions(opts)
	fs := opts.VFS
	if err := fs.MkdirAll(opts.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	// One owner per data directory: concurrent processes would
	// interleave independent buffered flushes into the same O_APPEND
	// segments and truncate each other's tails during recovery. The
	// flock dies with the process, so a crash never wedges a restart.
	lock, err := lockDataDir(opts.DataDir)
	if err != nil {
		return nil, err
	}
	locked := true
	defer func() {
		if locked {
			lock.Close()
		}
	}()
	// Sweep manifest temp files orphaned by a crash inside
	// writeFileAtomic (the shard-directory sweep below only covers
	// seg-*.tmp leftovers).
	if ents, err := fs.ReadDir(opts.DataDir); err == nil {
		for _, e := range ents {
			if !e.IsDir() && strings.HasPrefix(e.Name(), ".tmp-") {
				fs.Remove(filepath.Join(opts.DataDir, e.Name()))
			}
		}
	}
	mPath := filepath.Join(opts.DataDir, "MANIFEST.json")
	if raw, err := fs.ReadFile(mPath); err == nil {
		var m manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("store: open: %s: %w", mPath, err)
		}
		if m.Version != manifestVersion {
			return nil, fmt.Errorf("store: open: %s: format version %d, this build reads %d", mPath, m.Version, manifestVersion)
		}
		if m.Shards < 1 || m.Shards&(m.Shards-1) != 0 {
			// The shard mask arithmetic requires a power of two (New
			// rounds up; a manifest that disagrees is corrupt).
			return nil, fmt.Errorf("store: open: %s: invalid shard count %d (must be a power of two)", mPath, m.Shards)
		}
		// The manifest wins: the files on disk are laid out for its
		// shard count and their segments indexed to its depth bound.
		opts.Shards = m.Shards
		if m.MaxDepth > 0 {
			opts.MaxIndexDepth = m.MaxDepth
		} else {
			// Pre-segment manifest: adopt the configured depth (the one
			// every file so far was written under, since nothing else
			// was ever configurable) and pin it from now on.
			m.MaxDepth = opts.MaxIndexDepth
			raw, _ := json.Marshal(m)
			if err := writeFileAtomic(fs, mPath, append(raw, '\n')); err != nil {
				return nil, fmt.Errorf("store: open: write manifest: %w", err)
			}
		}
	} else if os.IsNotExist(err) {
		raw, _ := json.Marshal(manifest{Version: manifestVersion, Shards: opts.Shards, MaxDepth: opts.MaxIndexDepth})
		if err := writeFileAtomic(fs, mPath, append(raw, '\n')); err != nil {
			return nil, fmt.Errorf("store: open: write manifest: %w", err)
		}
	} else {
		return nil, fmt.Errorf("store: open: %w", err)
	}

	s := newStore(opts)
	d := &durability{
		dir:           opts.DataDir,
		fs:            fs,
		policy:        opts.Fsync,
		interval:      opts.FsyncInterval,
		snapshotEvery: opts.SnapshotEvery,
		retryBase:     opts.DegradedRetry,
		wals:          make([]*shardWAL, len(s.shards)),
		stop:          make(chan struct{}),
		done:          make(chan struct{}),
		closedCh:      make(chan struct{}),
	}
	s.dur = d

	var rs RecoveryStats
	var maxSeq uint64
	for i := range s.shards {
		if err := s.recoverShard(i, &rs, &maxSeq); err != nil {
			// Close whatever WALs are already open; the store is not
			// returned.
			for _, w := range d.wals {
				if w != nil {
					w.close()
				}
			}
			return nil, err
		}
	}
	d.recovery = rs

	// A schema-enforcing store promises every resident document
	// conforms — the semantic planner's schema verdicts (short-circuits,
	// pruned terms) are only sound under that invariant — so recovered
	// documents are validated too. Data written without the schema (or
	// under a different one) fails the open rather than silently
	// weakening the invariant.
	if opts.Schema != nil {
		var verr error
		for _, sh := range s.shards {
			// sh.each resolves segment documents too: enforcement must
			// cover both tiers, so a schema-enforcing store trades the
			// O(1) open for the invariant (every resident doc conforms).
			eerr := sh.each(func(id string, t *jsontree.Tree) {
				if verr != nil {
					return
				}
				verr = s.validateSchema(fmt.Sprintf("recovered document %q", id), t)
			})
			if verr == nil {
				verr = eerr
			}
			if verr != nil {
				break
			}
		}
		if verr != nil {
			for _, w := range d.wals {
				w.close()
			}
			return nil, fmt.Errorf("store: open: %w", verr)
		}
	}

	// Make the shard-directory entries themselves durable (the files
	// inside were synced as they were created).
	if err := fs.SyncDir(opts.DataDir); err != nil {
		for _, w := range d.wals {
			w.close()
		}
		return nil, fmt.Errorf("store: open: sync data dir: %w", err)
	}

	// Seed the bulk-ingest ID sequence past every auto-assigned ID a
	// previous process handed out — segment footers carry the counter
	// (covering IDs deleted before the segment), replayed puts cover
	// the WAL tail — so a restart never recycles an ID a client may
	// have observed.
	s.seq.Store(maxSeq)

	d.lock = lock
	locked = false // ownership passes to the store; released in Close

	// maintain always runs on a durable store: even under FsyncAlways
	// with automatic snapshots disabled it owns the degraded-shard
	// heal probe, without which a transient disk fault would leave the
	// store read-only forever.
	go d.maintain(s)
	return s, nil
}

// lockDataDir takes the exclusive advisory lock on dir's LOCK file,
// failing fast when another live process holds it. The locking
// primitive lives in lock_unix.go / lock_other.go.
func lockDataDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	if err := flockExclusive(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: open: %s is in use by another process (%v)", dir, err)
	}
	return f, nil
}

// noteAutoID raises *maxSeq past id when id is a bulk auto-assigned
// ID ("d<number>").
func noteAutoID(id string, maxSeq *uint64) {
	if len(id) < 2 || id[0] != 'd' {
		return
	}
	if n, err := strconv.ParseUint(id[1:], 10, 64); err == nil && n+1 > *maxSeq {
		*maxSeq = n + 1
	}
}

// recoverShard restores shard i from its directory, creating it on
// first open, and leaves d.wals[i] open for appending. maxSeq is
// raised past every auto-assigned ID seen in segments (their footers
// persist the counter) and replayed WAL puts.
func (s *Store) recoverShard(i int, rs *RecoveryStats, maxSeq *uint64) error {
	d := s.dur
	dir := d.shardDir(i)
	if err := d.fs.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: recover shard %d: %w", i, err)
	}
	entries, err := d.fs.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: recover shard %d: %w", i, err)
	}
	var segGens, walGens []uint64
	for _, e := range entries {
		name := e.Name()
		switch gen, kind := parseGenName(name); kind {
		case "wal":
			walGens = append(walGens, gen)
		case "seg":
			segGens = append(segGens, gen)
		case "snap":
			// The retired pre-segment snapshot format. This build cannot
			// read it, and replaying the WAL tail alone would silently
			// drop every document the snapshot holds.
			return fmt.Errorf("store: recover shard %d: %s is a legacy snapshot, a format this build no longer reads; refusing to open from the WAL tail alone", i, filepath.Join(dir, name))
		}
		if filepath.Ext(name) == ".tmp" {
			// A segment build that never reached its rename; the WAL
			// covering it is still intact.
			d.fs.Remove(filepath.Join(dir, name))
			rs.StaleTempFiles++
		}
	}
	sort.Slice(segGens, func(a, b int) bool { return segGens[a] > segGens[b] }) // descending
	sort.Slice(walGens, func(a, b int) bool { return walGens[a] < walGens[b] }) // ascending

	// Latest segment that validates end-to-end wins; invalid ones are
	// skipped (never partially applied) in favor of older generations.
	// A segment is mapped, not loaded: O(1) in its document count.
	sh := s.shards[i]
	baseGen := uint64(0)
	for _, gen := range segGens {
		sr, err := openSegment(d.fs, segFilePath(dir, gen), gen, s.opts.SegmentNoMmap)
		if err != nil {
			rs.InvalidSegments++
			continue
		}
		sh.seg = sr
		sh.segDead = newBitmap(sr.n)
		sh.segLive = sr.n
		if sr.seq > *maxSeq {
			*maxSeq = sr.seq
		}
		baseGen = gen
		rs.SegmentsMapped++
		rs.SegmentDocs += sr.n
		break
	}

	// Replay every WAL generation from the base on, in order. The set
	// must be contiguous — a missing middle segment would silently drop
	// a window of mutations, so it is an error, not a skip.
	replay := walGens[:0]
	for _, g := range walGens {
		if g >= baseGen {
			replay = append(replay, g)
		}
	}
	// The first replayed generation must be the base itself: segments
	// obsolete — and delete — everything before their generation, so a later start means the covering base failed to
	// validate and the records bridging the gap are gone. Refuse to
	// resurrect a partial history.
	if len(replay) > 0 && replay[0] != baseGen {
		return fmt.Errorf("store: recover shard %d: no usable segment for generation %d (WAL starts there, base is %d): unrecoverable gap", i, replay[0], baseGen)
	}
	activeGen := baseGen
	activeSegRecords := uint64(0)
	for k, g := range replay {
		if k > 0 && g != replay[k-1]+1 {
			return fmt.Errorf("store: recover shard %d: WAL generation gap: %d then %d", i, replay[k-1], g)
		}
		last := k == len(replay)-1
		records, torn, cut, err := s.replayWAL(walPath(dir, g), last, maxSeq)
		if err != nil {
			return fmt.Errorf("store: recover shard %d: %w", i, err)
		}
		if torn && !last {
			// Rotation seals (flushes + fsyncs) a segment before its
			// successor exists, so a torn non-final segment means the
			// disk lost synced data: refuse to guess. replayWAL left
			// the file untouched in this case, so the refusal holds
			// across restarts instead of destroying its own evidence.
			return fmt.Errorf("store: recover shard %d: %s is torn but newer generations exist", i, walPath(dir, g))
		}
		if torn {
			rs.TornTails++
			rs.TruncatedBytes += cut
		}
		rs.WALSegments++
		rs.WALRecordsReplayed += records
		activeGen = g
		activeSegRecords = uint64(records)
	}

	w, err := openShardWAL(d.fs, i, dir, activeGen, d.policy, activeSegRecords)
	if err != nil {
		return err
	}
	d.wals[i] = w
	return nil
}

// parseGenName classifies a shard-directory entry as a WAL segment
// ("wal"), an index segment file ("seg"), a retired legacy snapshot
// ("snap", which recovery refuses) or neither (""), returning its
// generation number.
func parseGenName(name string) (gen uint64, kind string) {
	cut := func(prefix, suffix string) (string, bool) {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) && len(name) > len(prefix)+len(suffix) {
			return name[len(prefix) : len(name)-len(suffix)], true
		}
		return "", false
	}
	if mid, ok := cut("wal-", ".log"); ok {
		if g, err := strconv.ParseUint(mid, 10, 64); err == nil {
			return g, "wal"
		}
	}
	if mid, ok := cut("seg-", ".seg"); ok {
		if g, err := strconv.ParseUint(mid, 10, 64); err == nil {
			return g, "seg"
		}
	}
	if mid, ok := cut("snap-", ".snap"); ok {
		if g, err := strconv.ParseUint(mid, 10, 64); err == nil {
			return g, "snap"
		}
	}
	return 0, ""
}

// replayWAL applies one segment's records to the in-memory store,
// raising *maxSeq past replayed auto-assigned IDs (puts of since-
// deleted documents included). A torn tail of the active (last)
// segment is truncated off the file so it can be appended to again;
// a torn non-last segment is reported but left untouched — the caller
// refuses recovery, and the evidence must survive for the next
// attempt to refuse too. records is the count applied, cut the bytes
// past the last whole record.
func (s *Store) replayWAL(path string, last bool, maxSeq *uint64) (records int, torn bool, cut int64, err error) {
	fs := s.dur.fs
	f, err := fs.Open(path)
	if err != nil {
		return 0, false, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, false, 0, err
	}
	size := st.Size()
	br := bufio.NewReaderSize(f, walBufSize)

	truncateAt := func(off int64) error {
		f.Close()
		if !last {
			return nil // leave the evidence; the caller refuses recovery
		}
		if err := fs.Truncate(path, off); err != nil {
			return fmt.Errorf("%s: truncate torn tail: %w", path, err)
		}
		return nil
	}

	magic := make([]byte, len(walMagic))
	if n, rerr := io.ReadFull(br, magic); rerr != nil || string(magic) != walMagic {
		if n == 0 && rerr == io.EOF {
			// Empty file: a segment created but never flushed.
			f.Close()
			return 0, false, 0, nil
		}
		// A torn header: nothing in the file is trustworthy.
		return 0, true, size, truncateAt(0)
	}
	offset := int64(len(walMagic))
	for {
		rec, n, rerr := readRecord(br)
		if rerr == io.EOF {
			f.Close()
			return records, false, 0, nil
		}
		if errors.Is(rerr, errTorn) {
			return records, true, size - offset, truncateAt(offset)
		}
		if rerr != nil {
			f.Close()
			return records, false, 0, fmt.Errorf("%s: %w", path, rerr)
		}
		switch rec.op {
		case opPut:
			t, perr := jsontree.Parse(rec.doc)
			if perr != nil {
				// The CRC passed but the payload is not a document we
				// ever wrote: format corruption, not a torn write.
				f.Close()
				return records, false, 0, fmt.Errorf("%s: record %d: %w", path, records, perr)
			}
			s.memPut(rec.id, t)
			noteAutoID(rec.id, maxSeq)
		case opDelete:
			s.memDelete(rec.id)
		default:
			f.Close()
			return records, false, 0, fmt.Errorf("%s: record %d: unknown op %d", path, records, rec.op)
		}
		records++
		offset += n
	}
}

// maintain is the background loop of a durable store: the periodic
// flush that implements FsyncInterval (and bounds the buffered tail
// under FsyncOff), the snapshot trigger that rolls a shard's WAL into
// a segment once it accumulates SnapshotEvery records (failures are
// logged and retried with per-shard exponential backoff, never
// dropped), and the heal probe that retries degraded shards until the
// disk recovers.
func (d *durability) maintain(s *Store) {
	defer close(d.done)
	// Under FsyncAlways every commit already syncs; don't wake 10×/s
	// for a no-op. A nil channel blocks forever in select.
	var flushC <-chan time.Time
	if d.policy == FsyncInterval || d.policy == FsyncOff {
		flush := time.NewTicker(d.interval)
		defer flush.Stop()
		flushC = flush.C
	}
	snap := time.NewTicker(snapshotPoll)
	defer snap.Stop()
	probe := time.NewTicker(degradedPoll)
	defer probe.Stop()
	// Per-shard retry state, owned by this goroutine: when the next
	// attempt may run and the current backoff. The ticker fires often;
	// these gates are what implement "exponential backoff".
	healAt := make([]time.Time, len(d.wals))
	healBackoff := make([]time.Duration, len(d.wals))
	snapAt := make([]time.Time, len(d.wals))
	snapBackoff := make([]time.Duration, len(d.wals))
	for {
		select {
		case <-d.stop:
			return
		case <-flushC:
			switch d.policy {
			case FsyncInterval:
				for _, w := range d.wals {
					w.syncNow() // sticky errors surface via Stats/Close
				}
			case FsyncOff:
				for _, w := range d.wals {
					w.flushOnly()
				}
			}
		case <-snap.C:
			if d.snapshotEvery <= 0 {
				continue
			}
			now := time.Now()
			d.snapMu.Lock()
			for i, w := range d.wals {
				// A degraded shard is healShard's problem (its heal ends
				// in exactly this snapshot); a failed shard that is not
				// yet degraded cannot rotate anyway.
				if w.degraded.Load() || now.Before(snapAt[i]) {
					continue
				}
				if w.segmentRecords() >= uint64(d.snapshotEvery) {
					if err := s.snapshotShard(i); err != nil {
						snapBackoff[i] = nextBackoff(snapBackoff[i], d.retryBase)
						snapAt[i] = now.Add(snapBackoff[i])
						slog.Warn("store: background snapshot failed; retrying",
							"shard", i, "backoff", snapBackoff[i], "err", err)
					} else {
						snapBackoff[i] = 0
					}
				}
			}
			d.snapMu.Unlock()
		case <-probe.C:
			now := time.Now()
			for i, w := range d.wals {
				if !w.degraded.Load() || now.Before(healAt[i]) {
					continue
				}
				d.walRetries.Add(1)
				if err := s.healShard(i); err != nil {
					healBackoff[i] = nextBackoff(healBackoff[i], d.retryBase)
					healAt[i] = now.Add(healBackoff[i])
					slog.Warn("store: degraded shard heal failed; backing off",
						"shard", i, "backoff", healBackoff[i], "err", err)
				} else {
					healBackoff[i] = 0
					d.walHeals.Add(1)
					slog.Info("store: shard healed; writes re-enabled", "shard", i)
				}
			}
		}
	}
}

// healShard brings a degraded shard back to writable: reset abandons
// the failed WAL generation and opens a fresh one, and a snapshot
// folds the shard's full in-memory state into a new segment — records
// the broken WAL dropped from its buffer were never acknowledged, but
// they were applied in memory, and the segment re-captures them so
// disk and memory reconverge. Only after both steps does the shard
// accept writes again. Each step is idempotent: if reset succeeds and
// the snapshot fails, the next probe finds a healthy WAL (reset
// no-ops) and retries just the snapshot.
func (s *Store) healShard(i int) error {
	d := s.dur
	w := d.wals[i]
	if err := w.reset(); err != nil {
		return err
	}
	d.snapMu.Lock()
	err := s.snapshotShard(i)
	d.snapMu.Unlock()
	if err != nil {
		return err
	}
	w.degraded.Store(false)
	return nil
}

// nextBackoff doubles cur within [base, maxRetryBackoff].
func nextBackoff(cur, base time.Duration) time.Duration {
	if cur <= 0 {
		return base
	}
	if cur *= 2; cur > maxRetryBackoff {
		cur = maxRetryBackoff
	}
	return cur
}

// snapshotPoll is how often the background snapshotter checks segment
// sizes against Options.SnapshotEvery.
const snapshotPoll = 500 * time.Millisecond

// degradedPoll is how often the heal probe scans for degraded shards.
// The scan is a per-shard atomic load when healthy, so it can afford
// to be frequent; actual heal attempts are paced by the exponential
// backoff (Options.DegradedRetry up to maxRetryBackoff).
const degradedPoll = 50 * time.Millisecond

// maxRetryBackoff caps the heal and snapshot-retry backoff.
const maxRetryBackoff = 30 * time.Second

// Close flushes and fsyncs every shard's WAL (whatever the fsync
// policy — a clean shutdown loses nothing), stops the background
// flusher and snapshotter, and closes the log files. Further writes
// fail. Close is idempotent and safe to call concurrently — every
// caller returns the one true result after the shutdown finished; on
// an in-memory store it is a no-op.
func (s *Store) Close() error {
	if s.dur == nil {
		return nil
	}
	d := s.dur
	d.closeOnce.Do(func() {
		defer close(d.closedCh)
		close(d.stop)
		<-d.done
		for _, w := range d.wals {
			if err := w.close(); err != nil && d.closeErr == nil {
				d.closeErr = err
			}
		}
		d.lock.Close() // releases the flock
	})
	<-d.closedCh
	return d.closeErr
}

// crashForTest simulates an unclean process death: background loops
// stop and every WAL descriptor is closed with its user-space buffer
// discarded and no final fsync. What the store looks like after this
// is exactly what the fsync policy promised — tests reopen the
// directory and check.
func (s *Store) crashForTest() {
	d := s.dur
	if d == nil {
		return
	}
	d.closeOnce.Do(func() {
		defer close(d.closedCh)
		close(d.stop)
		<-d.done
		for _, w := range d.wals {
			w.crashForTest()
		}
		// A real process death releases the flock with the process;
		// closing the fd is the in-process equivalent.
		d.lock.Close()
		d.closeErr = errWALClosed
	})
	<-d.closedCh
}

// writeFileAtomic writes data via a temp file and rename, fsyncing
// both the file and its directory.
func writeFileAtomic(fs VFS, path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := fs.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	} else {
		tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fs.Remove(name)
		return err
	}
	if err := fs.Rename(name, path); err != nil {
		fs.Remove(name)
		return err
	}
	return fs.SyncDir(dir)
}
