package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// RecoveredVal is one variable's replayed state. Anchored means an OpWrite
// fixed the absolute value; an unanchored value is a pure increment delta —
// the log never read the variable, so recovery cannot know its base — and
// the application adds it to the initial value it re-supplies (Resolve).
type RecoveredVal struct {
	Val      int64
	Anchored bool
}

// RecoveredState is the outcome of replaying a log directory: the state of
// every logged variable plus the accounting the chaos suites assert on.
type RecoveredState struct {
	Shards int
	Vals   map[uint64]RecoveredVal

	Frames       uint64 // frames applied across all shards
	CrossApplied uint64 // distinct cross-shard commits applied
	TornShards   int    // shards whose tail was truncated mid-frame
	CutFrames    uint64 // intact frames discarded by the cross-completeness cut
}

// Resolve returns key's recovered value given the initial value the
// application would have used on a fresh start: the replayed absolute value
// if a write anchored the key, initial plus the replayed delta if only
// increments touched it, and initial when the log never saw the key.
func (rs *RecoveredState) Resolve(key uint64, initial int64) int64 {
	rv, ok := rs.Vals[key]
	switch {
	case !ok:
		return initial
	case rv.Anchored:
		return rv.Val
	default:
		return initial + rv.Val
	}
}

// scannedFrame is one intact frame with its physical location (for the
// repairing scan's exact-offset truncation) and the chain value after it
// (so a cross-cut can rewind the reopen state to any frame boundary).
type scannedFrame struct {
	frame
	seg        uint64
	path       string
	off        int64
	chainAfter chainVal
}

// shardScan is one shard's scan result: the intact frame prefix and the end
// state a reopened log continues from.
type shardScan struct {
	frames  []scannedFrame
	nextSeg uint64   // next free segment index
	nextSeq uint64   // next frame sequence number
	chain   chainVal // chain value after the last surviving frame
	torn    bool     // tail was truncated mid-frame

	// Cross-cut position, when crossCut discarded a suffix.
	cutValid bool
	cutPath  string
	cutOff   int64
	cutSeg   uint64
}

// scanShard reads shard dir's segments in order, verifying the header chain,
// per-frame CRCs, and sequence density. A bad frame at the very tail of the
// last segment is a torn tail; anything else is ErrCorrupt. With repair set,
// the torn bytes are physically truncated (and a last segment with a
// mangled header is removed) so the log can be reopened for appending.
func scanShard(dir string, repair bool) (*shardScan, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return &shardScan{}, nil
		}
		return nil, err
	}
	var segs []string
	for _, e := range ents {
		if !e.IsDir() {
			segs = append(segs, e.Name())
		}
	}
	sort.Strings(segs)
	sc := &shardScan{}
	for si, name := range segs {
		last := si == len(segs)-1
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		segIndex, startSeq, prev, ok := parseSegHeader(data)
		if !ok {
			if !last {
				return nil, fmt.Errorf("%w: %s: bad segment header", ErrCorrupt, path)
			}
			// A crash during segment roll can leave a partial header with
			// no frames; drop the file and end the scan one segment early.
			sc.torn = true
			if repair {
				if err := os.Remove(path); err != nil {
					return nil, err
				}
			}
			break
		}
		if segIndex != sc.nextSeg || startSeq != sc.nextSeq || prev != sc.chain {
			return nil, fmt.Errorf("%w: %s: segment header disagrees with chain", ErrCorrupt, path)
		}
		sc.nextSeg = segIndex + 1
		off := int64(segHeaderBytes)
		rest := data[segHeaderBytes:]
		for len(rest) > 0 {
			f, n, ok := parseFrame(rest)
			if !ok {
				if !last {
					return nil, fmt.Errorf("%w: %s: bad frame at offset %d", ErrCorrupt, path, off)
				}
				sc.torn = true
				if repair {
					if err := os.Truncate(path, off); err != nil {
						return nil, err
					}
				}
				rest = nil
				break
			}
			if f.seq != sc.nextSeq {
				return nil, fmt.Errorf("%w: %s: frame seq %d, want %d", ErrCorrupt, path, f.seq, sc.nextSeq)
			}
			sc.chain = chainNext(sc.chain, rest[:n])
			sc.nextSeq++
			sc.frames = append(sc.frames, scannedFrame{
				frame: f, seg: segIndex, path: path, off: off, chainAfter: sc.chain,
			})
			off += int64(n)
			rest = rest[n:]
		}
	}
	return sc, nil
}

// crossCut enforces cross-shard atomicity: a cross-shard commit is applied
// only if its frame is present in every participant's intact prefix. Each
// shard's frame list is cut at its first incomplete cross frame — everything
// after it might have serially depended on the lost commit, so the whole
// suffix goes, keeping the recovered state reachable by a serial prefix of
// committed transactions. Cutting can orphan further cross frames on other
// shards, so the cut iterates to a fixpoint (monotone, hence terminating).
// Returns the number of intact frames discarded.
func crossCut(scans []*shardScan) uint64 {
	var cut uint64
	for {
		// Which shards currently hold each cross commit?
		have := make(map[uint64]map[int]bool)
		for s, sc := range scans {
			for _, f := range sc.frames {
				if f.crossID != 0 {
					m := have[f.crossID]
					if m == nil {
						m = make(map[int]bool)
						have[f.crossID] = m
					}
					m[s] = true
				}
			}
		}
		changed := false
		for _, sc := range scans {
			for i, f := range sc.frames {
				if f.crossID == 0 {
					continue
				}
				complete := true
				for _, p := range f.parts {
					if p < 0 || p >= len(scans) || !have[f.crossID][p] {
						complete = false
						break
					}
				}
				if !complete {
					cut += uint64(len(sc.frames) - i)
					sc.frames = sc.frames[:i]
					sc.cutValid = true
					sc.cutPath, sc.cutOff, sc.cutSeg = f.path, f.off, f.seg
					changed = true
					break
				}
			}
		}
		if !changed {
			return cut
		}
	}
}

// repairCut physically truncates a shard's log at the recorded cross-cut
// position, removes any later segments, and rewinds the reopen state (next
// segment/sequence and chain value) to the surviving prefix.
func (sc *shardScan) repairCut(dir string) error {
	if !sc.cutValid {
		return nil
	}
	if err := os.Truncate(sc.cutPath, sc.cutOff); err != nil {
		return err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	keep := filepath.Base(sc.cutPath)
	for _, e := range ents {
		if !e.IsDir() && e.Name() > keep {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	sc.nextSeg = sc.cutSeg + 1
	if n := len(sc.frames); n > 0 {
		last := sc.frames[n-1]
		sc.nextSeq = last.seq + 1
		sc.chain = last.chainAfter
	} else {
		sc.nextSeq = 0
		sc.chain = chainVal{}
	}
	return nil
}

// replay folds every surviving frame into the value map, refusing any
// opcode it does not know. Shards replay independently:
// each variable lives on exactly one shard, so all records touching it sit
// in that shard's log in serial commit order; cross-shard frames carry only
// their shard's record subset.
func replay(scans []*shardScan, rs *RecoveredState) error {
	crossSeen := make(map[uint64]bool)
	for s, sc := range scans {
		for _, f := range sc.frames {
			rs.Frames++
			if f.crossID != 0 && !crossSeen[f.crossID] {
				crossSeen[f.crossID] = true
				rs.CrossApplied++
			}
			for _, r := range f.recs {
				switch r.Op {
				case OpWrite:
					rs.Vals[r.Key] = RecoveredVal{Val: r.Val, Anchored: true}
				case OpInc:
					rv := rs.Vals[r.Key]
					rv.Val += r.Val
					rs.Vals[r.Key] = rv
				default:
					return fmt.Errorf("%w: shard %d seq %d: unknown opcode %d", ErrCorrupt, s, f.seq, r.Op)
				}
			}
		}
	}
	return nil
}

// recoverScan is the shared engine of Recover (read-only) and Open
// (repairing): scan every shard, cut incomplete cross commits, replay.
func recoverScan(dir string, repair bool) ([]*shardScan, *RecoveredState, error) {
	nshards, err := readManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	scans := make([]*shardScan, nshards)
	for s := range scans {
		sc, err := scanShard(shardDir(dir, s), repair)
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", s, err)
		}
		scans[s] = sc
	}
	rs := &RecoveredState{Shards: nshards, Vals: make(map[uint64]RecoveredVal)}
	for _, sc := range scans {
		if sc.torn {
			rs.TornShards++
		}
	}
	rs.CutFrames = crossCut(scans)
	if repair {
		for s, sc := range scans {
			if err := sc.repairCut(shardDir(dir, s)); err != nil {
				return nil, nil, fmt.Errorf("shard %d: %w", s, err)
			}
		}
	}
	if err := replay(scans, rs); err != nil {
		return nil, nil, err
	}
	return scans, rs, nil
}

// Recover replays the log directory read-only and returns the recovered
// state without modifying any file (the inspection entry point; Open is the
// repairing one).
func Recover(dir string) (*RecoveredState, error) {
	_, rs, err := recoverScan(dir, false)
	return rs, err
}

func shardDir(dir string, s int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", s))
}
