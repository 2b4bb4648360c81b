package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"semstm/internal/core"
)

// SyncPolicy selects how a committed frame becomes durable.
type SyncPolicy uint8

const (
	// SyncAlways fsyncs every group-commit batch before any committer in it
	// returns: a committed transaction survives any crash.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs off the commit path: committers return once their
	// frame is written, and a background flusher fsyncs the log at most once
	// per Interval while it is dirty, so a crash loses at most the unsynced
	// window — the classic group-commit trade (the walwriter design). The
	// fsync stall lands on the flusher, not on any committer.
	SyncInterval
	// SyncNone never fsyncs on the commit path (only on segment roll and
	// Close): durability is whatever the OS page cache survives.
	SyncNone
)

// String returns the stable label used by the bench schema and flags.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return "invalid"
	}
}

// ParseSyncPolicy parses the stable labels.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q", s)
}

// Options configures a log set.
type Options struct {
	// Policy is the fsync policy; Interval is its window for SyncInterval.
	// When unset it defaults to 2ms scaled by the shard count: every shard
	// log runs its own background flusher against the same device, so a
	// fixed window would multiply the set-wide fsync rate by the shard
	// count — the scaled default keeps it constant (~500 fsyncs/s) however
	// the log is partitioned.
	Policy   SyncPolicy
	Interval time.Duration
	// SegmentBytes is the roll threshold (default 4 MiB). Segments roll only
	// at batch boundaries, so a batch may overshoot the threshold.
	SegmentBytes int64
	// Plan arms deterministic crash injection (core.FaultPlan.WithCrash) on
	// the write path; nil runs crash-free.
	Plan *core.FaultPlan
}

func (o *Options) fill(nshards int) {
	if o.Interval <= 0 {
		if nshards < 1 {
			nshards = 1
		}
		o.Interval = time.Duration(nshards) * 2 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
}

// Log is one shard's segmented redo log with a group-commit batcher.
//
// Concurrency protocol: committers append their encoded frame to the pending
// buffer under mu (sequence number, CRC, and chain value are assigned there,
// so the chain is linear no matter how batches form) and note the batch
// generation that will carry it (gen+1). The first committer to find no
// flush in progress becomes the leader: it takes the whole pending buffer as
// batch gen+1, drops mu, writes the batch with one Write call (rolling the
// segment first if needed), fsyncs per policy, re-acquires mu, publishes
// writtenGen/syncedGen, and broadcasts. Followers wait on the condition
// variable until their generation is written (and synced, under SyncAlways).
// One fsync thus covers every commit that arrived during the previous
// batch's write — the batcher amortization of the SNIPPETS.md audit-log
// exemplar, applied to fsync instead of ledger round-trips.
type Log struct {
	dir   string
	shard int
	opt   Options

	mu   sync.Mutex
	cond *sync.Cond
	f    *os.File

	segIndex  uint64 // index of the open segment
	fileOff   int64  // append offset in f (leader-only outside mu)
	syncedOff int64  // offset covered by the last fsync of f (leader-only)

	seq        uint64   // next frame sequence number
	chain      chainVal // chain value after the last encoded frame
	takenChain chainVal // chain value after the last frame handed to a batch

	pending     []byte // encoded frames awaiting a leader
	pendingOffs []int  // frame start offsets within pending
	spare       []byte // recycled batch buffer
	spareOffs   []int

	gen        uint64 // generation of the last batch taken by a leader
	writtenGen uint64 // last generation fully written
	syncedGen  uint64 // last generation fsynced
	flushing   bool
	closed     bool
	stop       chan struct{} // stops the SyncInterval background flusher
	err        error         // latched terminal failure (I/O error or *CrashedError)

	// group-commit statistics, under mu
	frames  uint64
	batches uint64
	fsyncs  uint64
}

// newLog opens shard s's log for appending, starting a fresh segment that
// continues the recovered chain (segIndex is the next free index, seq and
// prev the scan's end state).
func newLog(dir string, shard int, segIndex, seq uint64, prev chainVal, opt Options) (*Log, error) {
	l := &Log{
		dir:        dir,
		shard:      shard,
		opt:        opt,
		segIndex:   segIndex,
		seq:        seq,
		chain:      prev,
		takenChain: prev,
		stop:       make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	if err := l.openSegment(segIndex, seq, prev); err != nil {
		return nil, err
	}
	if opt.Policy == SyncInterval {
		go l.syncLoop()
	}
	return l, nil
}

// openSegment creates segment segIndex, writes and fsyncs its header, and
// fsyncs the directory so the file itself survives a crash.
func (l *Log) openSegment(segIndex, startSeq uint64, prev chainVal) error {
	path := filepath.Join(l.dir, segName(segIndex))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(encodeSegHeader(segIndex, startSeq, prev)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.fileOff = segHeaderBytes
	l.syncedOff = segHeaderBytes
	return nil
}

func segName(i uint64) string { return fmt.Sprintf("seg-%08d.wal", i) }

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Append logs one frame and blocks until it is durable per the policy
// (written for interval/none, written+fsynced for always). It returns the
// latched error if the log has failed or crashed.
func (l *Log) Append(crossID uint64, parts []int, recs []Record) error {
	l.mu.Lock()
	if site, dead := l.opt.Plan.CrashedAt(); dead && l.err == nil {
		// The simulated process died — on another shard's log, or at the
		// commit pipeline's post-fsync point. Nothing later may reach any
		// log: the dying commit's locks are released so the test process
		// stays usable, and a straggler that then read its unpublished
		// pre-state must not log absolute writes after its frame.
		l.err = &CrashedError{Site: site}
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	start := len(l.pending)
	l.pending = appendFrame(l.pending, l.seq, crossID, parts, recs)
	l.seq++
	l.chain = chainNext(l.chain, l.pending[start:])
	l.pendingOffs = append(l.pendingOffs, start)
	myGen := l.gen + 1
	for {
		if l.err != nil {
			err := l.err
			l.mu.Unlock()
			return err
		}
		if l.writtenGen >= myGen && (l.opt.Policy != SyncAlways || l.syncedGen >= myGen) {
			l.mu.Unlock()
			return nil
		}
		if !l.flushing && l.gen < myGen {
			l.flush()
			continue
		}
		l.cond.Wait()
	}
}

// flush runs one batch as leader. Called and returns with mu held.
func (l *Log) flush() {
	l.flushing = true
	l.gen++
	g := l.gen
	buf, offs := l.pending, l.pendingOffs
	l.pending, l.pendingOffs = l.spare[:0], l.spareOffs[:0]
	l.spare, l.spareOffs = nil, nil
	prevChain := l.takenChain
	l.takenChain = l.chain
	startSeq := l.seq - uint64(len(offs))
	sync := l.opt.Policy == SyncAlways
	l.batches++
	l.frames += uint64(len(offs))

	l.mu.Unlock()
	synced, err := l.writeBatch(buf, offs, sync, prevChain, startSeq)
	l.mu.Lock()

	if err != nil {
		if l.err == nil {
			l.err = err
		}
	} else {
		l.writtenGen = g
		if synced {
			l.syncedGen = g
			l.fsyncs++
		}
		l.spare, l.spareOffs = buf, offs // recycle
	}
	l.flushing = false
	l.cond.Broadcast()
}

// syncLoop is the SyncInterval background flusher: at most once per Interval
// it fsyncs the log if any written batch is not yet durable. It borrows the
// flushing flag as its critical section — no leader writes or rolls while an
// fsync is in flight, which is what makes fileOff/syncedOff stable under it —
// so a committer that arrives mid-fsync queues for the next batch exactly as
// it would behind another committer's write.
func (l *Log) syncLoop() {
	t := time.NewTicker(l.opt.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
		}
		l.mu.Lock()
		for l.flushing {
			l.cond.Wait()
		}
		if l.closed || l.err != nil || l.f == nil {
			l.mu.Unlock()
			return
		}
		if l.syncedGen >= l.writtenGen {
			l.mu.Unlock()
			continue
		}
		l.flushing = true
		g := l.writtenGen
		f := l.f
		l.mu.Unlock()
		err := f.Sync()
		l.mu.Lock()
		if err != nil {
			if l.err == nil {
				l.err = err
			}
		} else {
			l.syncedGen = g
			l.syncedOff = l.fileOff
			l.fsyncs++
		}
		l.flushing = false
		l.cond.Broadcast()
		l.mu.Unlock()
		if err != nil {
			return
		}
	}
}

// writeBatch performs the leader's I/O: roll if the segment is full, then
// one Write (or a torn prefix of it, under crash injection), then the fsync
// the policy asked for. Only the current leader touches fileOff/syncedOff.
func (l *Log) writeBatch(buf []byte, offs []int, sync bool, prevChain chainVal, startSeq uint64) (bool, error) {
	if l.fileOff+int64(len(buf)) > l.opt.SegmentBytes && l.fileOff > segHeaderBytes {
		if err := l.roll(prevChain, startSeq); err != nil {
			return false, err
		}
	}
	plan := l.opt.Plan
	if plan != nil && plan.CrashHit(core.CrashTornWrite) {
		// Simulated death mid-write: a strict prefix of the batch reaches
		// the disk, cutting the last frame in half, and even that prefix is
		// made durable — the worst torn tail recovery can face.
		cut := offs[len(offs)-1] + (len(buf)-offs[len(offs)-1])/2
		if cut >= len(buf) {
			cut = len(buf) - 1
		}
		l.f.Write(buf[:cut])
		l.f.Sync()
		return false, &CrashedError{Site: core.CrashTornWrite}
	}
	if _, err := l.f.Write(buf); err != nil {
		return false, err
	}
	l.fileOff += int64(len(buf))
	if plan != nil && plan.CrashHit(core.CrashPreFsync) {
		// Simulated death before the fsync: everything the page cache held
		// since the last fsync evaporates. Model it by truncating back to
		// the last synced offset — committers past syncedOff were told
		// "written", never "durable" (interval/none policies admit this).
		l.f.Truncate(l.syncedOff)
		l.f.Sync()
		return false, &CrashedError{Site: core.CrashPreFsync}
	}
	if sync {
		if err := l.f.Sync(); err != nil {
			return false, err
		}
		l.syncedOff = l.fileOff
		return true, nil
	}
	return false, nil
}

// roll seals the open segment (fsync regardless of policy — rolls are rare)
// and opens the next one.
func (l *Log) roll(prevChain chainVal, startSeq uint64) error {
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.segIndex++
	return l.openSegment(l.segIndex, startSeq, prevChain)
}

// fail latches err as the log's terminal state (test hook for the degrade
// path; real I/O errors latch through the same field).
func (l *Log) fail(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// close fsyncs and closes the open segment. Pending frames have necessarily
// been flushed — every Append waits for its batch — so close only seals,
// after stopping the background flusher and waiting out any fsync it (or a
// straggling leader) has in flight.
func (l *Log) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushing {
		l.cond.Wait()
	}
	if !l.closed {
		l.closed = true
		close(l.stop)
	}
	if l.f == nil {
		return nil
	}
	f := l.f
	l.f = nil
	if l.err == nil {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// snapshotStats returns (frames, batches, fsyncs).
func (l *Log) snapshotStats() (uint64, uint64, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.frames, l.batches, l.fsyncs
}
