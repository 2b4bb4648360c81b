package wal

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"semstm/internal/core"
)

func openT(t *testing.T, dir string, nshards int, opt Options) *Set {
	t.Helper()
	s, err := Open(dir, nshards, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// TestRoundTrip logs writes and increments across two shards and
// replays them: writes anchor absolute values, bare increments stay deltas
// resolved against the caller's initial value.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 2, Options{Policy: SyncAlways})
	if err := s.LogSingle(0, []Record{
		{Op: OpWrite, Key: 1, Val: 100},
		{Op: OpInc, Key: 1, Val: 5},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.LogSingle(1, []Record{{Op: OpInc, Key: 2, Val: -7}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rs, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rs.Frames != 2 || rs.TornShards != 0 || rs.CutFrames != 0 {
		t.Fatalf("accounting: %+v", rs)
	}
	if got := rs.Resolve(1, 0); got != 105 {
		t.Fatalf("key 1: got %d, want 105", got)
	}
	if got := rs.Resolve(2, 1000); got != 993 {
		t.Fatalf("key 2: got %d, want 993 (initial+delta)", got)
	}
	if got := rs.Resolve(3, 42); got != 42 {
		t.Fatalf("unlogged key: got %d, want 42", got)
	}
}

// TestReopenExtendsChain closes and reopens the set twice; each generation
// appends into a fresh segment that must extend the verified chain.
func TestReopenExtendsChain(t *testing.T) {
	dir := t.TempDir()
	for round := int64(0); round < 3; round++ {
		s := openT(t, dir, 1, Options{Policy: SyncAlways})
		if err := s.LogSingle(0, []Record{{Op: OpInc, Key: 9, Val: 1}}); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := rs.Resolve(9, 0); got != 3 {
		t.Fatalf("key 9: got %d, want 3", got)
	}
	if rs.Frames != 3 {
		t.Fatalf("frames: %d, want 3", rs.Frames)
	}
}

// TestGroupCommit hammers one shard from many goroutines and checks every
// frame survives and the batcher actually grouped (batches < frames would
// be flaky to assert under scheduling, so only durability is required; the
// stats must at least be consistent).
func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 1, Options{Policy: SyncAlways})
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := s.LogSingle(0, []Record{{Op: OpInc, Key: 7, Val: 1}}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Appends != workers*per || st.Batches == 0 || st.Batches > st.Appends {
		t.Fatalf("stats: %+v", st)
	}
	if st.Fsyncs != st.Batches {
		t.Fatalf("always policy must fsync per batch: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rs, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := rs.Resolve(7, 0); got != workers*per {
		t.Fatalf("key 7: got %d, want %d", got, workers*per)
	}
}

// TestSegmentRoll forces many tiny segments and checks the chain verifies
// across all of them.
func TestSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 1, Options{Policy: SyncNone, SegmentBytes: 256})
	for i := 0; i < 100; i++ {
		if err := s.LogSingle(0, []Record{{Op: OpInc, Key: 3, Val: 2}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := os.ReadDir(shardDir(dir, 0))
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	rs, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := rs.Resolve(3, 0); got != 200 {
		t.Fatalf("key 3: got %d, want 200", got)
	}
}

// lastSegment returns the path of the shard's newest segment file.
func lastSegment(t *testing.T, dir string, shard int) string {
	t.Helper()
	ents, err := os.ReadDir(shardDir(dir, shard))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("no segments")
	}
	return filepath.Join(shardDir(dir, shard), ents[len(ents)-1].Name())
}

// TestTornTailTruncated hand-tears the last frame and checks recovery drops
// exactly it, and that a repairing reopen can append beyond the scar.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 1, Options{Policy: SyncAlways})
	for i := int64(1); i <= 3; i++ {
		if err := s.LogSingle(0, []Record{{Op: OpWrite, Key: 4, Val: i}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, dir, 0)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	rs, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rs.TornShards != 1 || rs.Frames != 2 {
		t.Fatalf("accounting: %+v", rs)
	}
	if got := rs.Resolve(4, 0); got != 2 {
		t.Fatalf("key 4: got %d, want 2 (third write torn)", got)
	}
	// Reopen repairs and extends.
	s = openT(t, dir, 1, Options{Policy: SyncAlways})
	if got := s.Recovered().Resolve(4, 0); got != 2 {
		t.Fatalf("reopen: got %d, want 2", got)
	}
	if err := s.LogSingle(0, []Record{{Op: OpWrite, Key: 4, Val: 9}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rs, err = Recover(dir)
	if err != nil {
		t.Fatalf("Recover after repair: %v", err)
	}
	if got := rs.Resolve(4, 0); got != 9 {
		t.Fatalf("key 4 after repair: got %d, want 9", got)
	}
}

// TestInteriorCorruptionRefused flips a byte inside a sealed (non-final)
// segment: that can never be a torn tail — tears only happen at the very
// end of the log — so recovery must refuse rather than truncate committed
// history. (A flipped byte in the final segment is indistinguishable from a
// torn write and is truncated as one; TestTornTailTruncated covers it.)
func TestInteriorCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 1, Options{Policy: SyncAlways})
	for i := int64(0); i < 4; i++ {
		if err := s.LogSingle(0, []Record{{Op: OpWrite, Key: 5, Val: i}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen once so a second segment exists and the first is interior.
	s = openT(t, dir, 1, Options{Policy: SyncAlways})
	if err := s.LogSingle(0, []Record{{Op: OpWrite, Key: 5, Val: 9}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(shardDir(dir, 0), segName(0))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[segHeaderBytes+frameHdrBytes+10] ^= 0xFF // first frame's payload
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

// TestCrossCommitComplete logs a proper cross-shard commit and checks both
// subsets replay.
func TestCrossCommitComplete(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 2, Options{Policy: SyncAlways})
	err := s.LogCross([]int{0, 1}, [][]Record{
		{{Op: OpInc, Key: 10, Val: -3}},
		{{Op: OpInc, Key: 20, Val: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rs, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rs.CrossApplied != 1 || rs.CutFrames != 0 {
		t.Fatalf("accounting: %+v", rs)
	}
	if rs.Resolve(10, 100)+rs.Resolve(20, 100) != 200 {
		t.Fatalf("cross transfer not conserved: %+v", rs.Vals)
	}
}

// TestCrossCommitIncompleteCut writes a cross frame to only one participant
// (as a crash between the per-shard appends would) and checks the fixpoint
// cut discards it and everything after it on that shard.
func TestCrossCommitIncompleteCut(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 2, Options{Policy: SyncAlways})
	// A good single-shard frame first, then the orphaned cross frame, then
	// another single-shard frame that must be cut with it.
	if err := s.LogSingle(0, []Record{{Op: OpWrite, Key: 30, Val: 1}}); err != nil {
		t.Fatal(err)
	}
	id := s.crossCtr.Add(1)
	if err := s.logs[0].Append(id, []int{0, 1}, []Record{{Op: OpWrite, Key: 30, Val: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.LogSingle(0, []Record{{Op: OpWrite, Key: 30, Val: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rs, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rs.CutFrames != 2 {
		t.Fatalf("cut frames: %d, want 2 (orphan + dependent suffix)", rs.CutFrames)
	}
	if got := rs.Resolve(30, 0); got != 1 {
		t.Fatalf("key 30: got %d, want 1 (pre-orphan prefix)", got)
	}
	// The repairing reopen must land on the same prefix and keep appending.
	s = openT(t, dir, 2, Options{Policy: SyncAlways})
	if got := s.Recovered().Resolve(30, 0); got != 1 {
		t.Fatalf("reopen: got %d, want 1", got)
	}
	if err := s.LogSingle(0, []Record{{Op: OpWrite, Key: 30, Val: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if rs, err = Recover(dir); err != nil || rs.Resolve(30, 0) != 4 {
		t.Fatalf("after repair: val=%d err=%v", rs.Resolve(30, 0), err)
	}
}

// TestCrashTornWrite arms the torn-write crash: the dying batch persists a
// strict prefix, the log refuses further appends with CrashedError, and
// recovery truncates to the last whole frame.
func TestCrashTornWrite(t *testing.T) {
	dir := t.TempDir()
	plan := core.NewFaultPlan(1).WithCrash(core.CrashTornWrite, 3)
	s := openT(t, dir, 1, Options{Policy: SyncAlways, Plan: plan})
	var crashed int
	for i := int64(1); i <= 5; i++ {
		err := s.LogSingle(0, []Record{{Op: OpWrite, Key: 40, Val: i}})
		var ce *CrashedError
		if errors.As(err, &ce) {
			if ce.Site != core.CrashTornWrite {
				t.Fatalf("crash site: %v", ce.Site)
			}
			crashed++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if crashed != 3 || !plan.Crashed() {
		t.Fatalf("crashed appends: %d, want 3 (batch 3 and everything after)", crashed)
	}
	rs, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rs.TornShards != 1 || rs.Frames != 2 {
		t.Fatalf("accounting: %+v", rs)
	}
	if got := rs.Resolve(40, 0); got != 2 {
		t.Fatalf("key 40: got %d, want 2", got)
	}
}

// TestCrashPreFsync arms the pre-fsync crash under the interval policy with
// a huge interval: no batch ever fsyncs, so the crash loses everything back
// to the segment header — and recovery must still verify cleanly.
func TestCrashPreFsync(t *testing.T) {
	dir := t.TempDir()
	plan := core.NewFaultPlan(1).WithCrash(core.CrashPreFsync, 3)
	s := openT(t, dir, 1, Options{Policy: SyncInterval, Interval: 1 << 40, Plan: plan})
	var crashed bool
	for i := int64(1); i <= 5; i++ {
		err := s.LogSingle(0, []Record{{Op: OpWrite, Key: 50, Val: i}})
		var ce *CrashedError
		if errors.As(err, &ce) {
			crashed = true
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !crashed {
		t.Fatal("crash never fired")
	}
	rs, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rs.Frames != 0 {
		t.Fatalf("frames: %d, want 0 (nothing was ever fsynced)", rs.Frames)
	}
	if got := rs.Resolve(50, 7); got != 7 {
		t.Fatalf("key 50: got %d, want initial", got)
	}
}

// TestCrashFreezesEveryLog: a crash that fires outside a log — at the commit
// pipeline's post-fsync point — is still process death, so every shard's log
// refuses later appends, and recovery sees only what was logged before it.
func TestCrashFreezesEveryLog(t *testing.T) {
	dir := t.TempDir()
	plan := core.NewFaultPlan(1).WithCrash(core.CrashPostFsyncPrePublish, 1)
	s := openT(t, dir, 2, Options{Policy: SyncAlways, Plan: plan})
	if err := s.LogSingle(1, []Record{{Op: OpWrite, Key: 60, Val: 1}}); err != nil {
		t.Fatal(err)
	}
	if !plan.CrashHit(core.CrashPostFsyncPrePublish) {
		t.Fatal("armed crash did not fire")
	}
	for shard := 0; shard < 2; shard++ {
		err := s.LogSingle(shard, []Record{{Op: OpWrite, Key: 60, Val: 2}})
		var ce *CrashedError
		if !errors.As(err, &ce) || ce.Site != core.CrashPostFsyncPrePublish {
			t.Fatalf("shard %d: append after the crash returned %v", shard, err)
		}
	}
	rs, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := rs.Resolve(60, 0); got != 1 {
		t.Fatalf("key 60: got %d, want the pre-crash 1", got)
	}
}

// TestInjectedFailureLatches checks the degrade hook: after InjectFailure
// every append returns the latched error.
func TestInjectedFailureLatches(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 2, Options{Policy: SyncNone})
	boom := errors.New("disk on fire")
	s.InjectFailure(boom)
	if err := s.LogSingle(0, []Record{{Op: OpInc, Key: 1, Val: 1}}); !errors.Is(err, boom) {
		t.Fatalf("want latched error, got %v", err)
	}
	if err := s.LogCross([]int{0, 1}, [][]Record{{}, {}}); !errors.Is(err, boom) {
		t.Fatalf("cross: want latched error, got %v", err)
	}
	s.Close()
}

// TestManifestMismatch pins the shard count.
func TestManifestMismatch(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 2, Options{})
	s.Close()
	if _, err := Open(dir, 4, Options{}); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("want ErrShardMismatch, got %v", err)
	}
}

// TestUnknownOpcodeRefused hand-crafts logs whose frames pass the CRC and
// chain checks but carry an opcode replay does not know — 2 (the retired
// fact record) and 0xFF: replay must refuse them as corruption rather than
// skip the record.
func TestUnknownOpcodeRefused(t *testing.T) {
	for _, op := range []Op{2, 0xFF} {
		dir := t.TempDir()
		s := openT(t, dir, 1, Options{Policy: SyncAlways})
		if err := s.LogSingle(0, []Record{
			{Op: OpWrite, Key: 60, Val: 10},
			{Op: op, Key: 60, Val: 100},
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := Recover(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("opcode %d: want ErrCorrupt, got %v", op, err)
		}
	}
}
