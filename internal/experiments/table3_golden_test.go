package experiments

import (
	"fmt"
	"sort"
	"testing"

	"semstm/internal/apps"
	"semstm/internal/core"
	"semstm/internal/harness"
	"semstm/internal/htm"
	"semstm/internal/stamp"
	"semstm/stm"
)

// goldenCell is the exact operation mix of one engine x workload cell.
type goldenCell struct {
	Commits, Aborts                         uint64
	Reads, Writes, Compares, Incs, Promotes uint64
	HWFast, HWMiddle                        uint64
	// Reasons is the abort-reason histogram; nil when nothing aborted.
	Reasons map[string]uint64
}

// String renders the cell as the Go literal the golden table uses.
func (c goldenCell) String() string {
	reasons := "nil"
	if len(c.Reasons) > 0 {
		keys := make([]string, 0, len(c.Reasons))
		for k := range c.Reasons {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		reasons = "map[string]uint64{"
		for i, k := range keys {
			if i > 0 {
				reasons += ", "
			}
			reasons += fmt.Sprintf("%q: %d", k, c.Reasons[k])
		}
		reasons += "}"
	}
	return fmt.Sprintf("{Commits: %d, Aborts: %d, Reads: %d, Writes: %d, Compares: %d, Incs: %d, Promotes: %d, HWFast: %d, HWMiddle: %d, Reasons: %s}",
		c.Commits, c.Aborts, c.Reads, c.Writes, c.Compares, c.Incs, c.Promotes, c.HWFast, c.HWMiddle, reasons)
}

// table3Golden holds the single-worker counts of every concrete engine on four
// Table 3 workloads. One worker means no concurrency, so each count is a
// deterministic function of the engine's barrier and commit code (the HTM
// family's aborts are its capacity and demotion policy, spurious failures are
// off). A change to an engine that moves any count changed what the engine
// does, not how fast it does it.
var table3Golden = map[string]goldenCell{
	"NOrec/Hashtable":    {Commits: 400, Aborts: 0, Reads: 21424, Writes: 1651, Compares: 0, Incs: 0, Promotes: 0, HWFast: 0, HWMiddle: 0, Reasons: nil},
	"NOrec/Bank":         {Commits: 400, Aborts: 0, Reads: 6531, Writes: 4354, Compares: 0, Incs: 0, Promotes: 0, HWFast: 0, HWMiddle: 0, Reasons: nil},
	"NOrec/LRU":          {Commits: 400, Aborts: 0, Reads: 14397, Writes: 683, Compares: 0, Incs: 0, Promotes: 0, HWFast: 0, HWMiddle: 0, Reasons: nil},
	"NOrec/Kmeans":       {Commits: 800, Aborts: 0, Reads: 7200, Writes: 7200, Compares: 0, Incs: 0, Promotes: 0, HWFast: 0, HWMiddle: 0, Reasons: nil},
	"S-NOrec/Hashtable":  {Commits: 400, Aborts: 0, Reads: 0, Writes: 527, Compares: 20300, Incs: 1124, Promotes: 4, HWFast: 0, HWMiddle: 0, Reasons: nil},
	"S-NOrec/Bank":       {Commits: 400, Aborts: 0, Reads: 0, Writes: 0, Compares: 2177, Incs: 4354, Promotes: 15, HWFast: 0, HWMiddle: 0, Reasons: nil},
	"S-NOrec/LRU":        {Commits: 400, Aborts: 0, Reads: 2216, Writes: 554, Compares: 12052, Incs: 129, Promotes: 0, HWFast: 0, HWMiddle: 0, Reasons: nil},
	"S-NOrec/Kmeans":     {Commits: 800, Aborts: 0, Reads: 0, Writes: 0, Compares: 0, Incs: 7200, Promotes: 0, HWFast: 0, HWMiddle: 0, Reasons: nil},
	"TL2/Hashtable":      {Commits: 400, Aborts: 0, Reads: 21424, Writes: 1651, Compares: 0, Incs: 0, Promotes: 0, HWFast: 0, HWMiddle: 0, Reasons: nil},
	"TL2/Bank":           {Commits: 400, Aborts: 0, Reads: 6531, Writes: 4354, Compares: 0, Incs: 0, Promotes: 0, HWFast: 0, HWMiddle: 0, Reasons: nil},
	"TL2/LRU":            {Commits: 400, Aborts: 0, Reads: 14397, Writes: 683, Compares: 0, Incs: 0, Promotes: 0, HWFast: 0, HWMiddle: 0, Reasons: nil},
	"TL2/Kmeans":         {Commits: 800, Aborts: 0, Reads: 7200, Writes: 7200, Compares: 0, Incs: 0, Promotes: 0, HWFast: 0, HWMiddle: 0, Reasons: nil},
	"S-TL2/Hashtable":    {Commits: 400, Aborts: 0, Reads: 0, Writes: 527, Compares: 20300, Incs: 1124, Promotes: 4, HWFast: 0, HWMiddle: 0, Reasons: nil},
	"S-TL2/Bank":         {Commits: 400, Aborts: 0, Reads: 0, Writes: 0, Compares: 2177, Incs: 4354, Promotes: 15, HWFast: 0, HWMiddle: 0, Reasons: nil},
	"S-TL2/LRU":          {Commits: 400, Aborts: 0, Reads: 2216, Writes: 554, Compares: 12052, Incs: 129, Promotes: 0, HWFast: 0, HWMiddle: 0, Reasons: nil},
	"S-TL2/Kmeans":       {Commits: 800, Aborts: 0, Reads: 0, Writes: 0, Compares: 0, Incs: 7200, Promotes: 0, HWFast: 0, HWMiddle: 0, Reasons: nil},
	"SGL/Hashtable":      {Commits: 400, Aborts: 0, Reads: 0, Writes: 527, Compares: 20300, Incs: 1124, Promotes: 0, HWFast: 0, HWMiddle: 0, Reasons: nil},
	"SGL/Bank":           {Commits: 400, Aborts: 0, Reads: 0, Writes: 0, Compares: 2177, Incs: 4354, Promotes: 0, HWFast: 0, HWMiddle: 0, Reasons: nil},
	"SGL/LRU":            {Commits: 400, Aborts: 0, Reads: 2216, Writes: 554, Compares: 12052, Incs: 129, Promotes: 0, HWFast: 0, HWMiddle: 0, Reasons: nil},
	"SGL/Kmeans":         {Commits: 800, Aborts: 0, Reads: 0, Writes: 0, Compares: 0, Incs: 7200, Promotes: 0, HWFast: 0, HWMiddle: 0, Reasons: nil},
	"HTM/Hashtable":      {Commits: 400, Aborts: 470, Reads: 50569, Writes: 3076, Compares: 0, Incs: 0, Promotes: 0, HWFast: 0, HWMiddle: 0, Reasons: map[string]uint64{"capacity": 470}},
	"HTM/Bank":           {Commits: 400, Aborts: 0, Reads: 6531, Writes: 4354, Compares: 0, Incs: 0, Promotes: 0, HWFast: 0, HWMiddle: 0, Reasons: nil},
	"HTM/LRU":            {Commits: 400, Aborts: 0, Reads: 14397, Writes: 683, Compares: 0, Incs: 0, Promotes: 0, HWFast: 0, HWMiddle: 0, Reasons: nil},
	"HTM/Kmeans":         {Commits: 800, Aborts: 0, Reads: 7200, Writes: 7200, Compares: 0, Incs: 0, Promotes: 0, HWFast: 0, HWMiddle: 0, Reasons: nil},
	"S-HTM/Hashtable":    {Commits: 400, Aborts: 415, Reads: 0, Writes: 947, Compares: 46035, Incs: 1954, Promotes: 11, HWFast: 0, HWMiddle: 0, Reasons: map[string]uint64{"capacity": 415}},
	"S-HTM/Bank":         {Commits: 400, Aborts: 0, Reads: 0, Writes: 0, Compares: 2177, Incs: 4354, Promotes: 15, HWFast: 0, HWMiddle: 0, Reasons: nil},
	"S-HTM/LRU":          {Commits: 400, Aborts: 0, Reads: 2216, Writes: 554, Compares: 12052, Incs: 129, Promotes: 0, HWFast: 0, HWMiddle: 0, Reasons: nil},
	"S-HTM/Kmeans":       {Commits: 800, Aborts: 0, Reads: 0, Writes: 0, Compares: 0, Incs: 7200, Promotes: 0, HWFast: 0, HWMiddle: 0, Reasons: nil},
	"HyTM/Hashtable":     {Commits: 400, Aborts: 54, Reads: 19805, Writes: 575, Compares: 4661, Incs: 1254, Promotes: 8, HWFast: 373, HWMiddle: 0, Reasons: map[string]uint64{"hw-capacity": 54}},
	"HyTM/Bank":          {Commits: 400, Aborts: 0, Reads: 2177, Writes: 0, Compares: 0, Incs: 4354, Promotes: 15, HWFast: 400, HWMiddle: 0, Reasons: nil},
	"HyTM/LRU":           {Commits: 400, Aborts: 0, Reads: 14268, Writes: 554, Compares: 0, Incs: 129, Promotes: 0, HWFast: 400, HWMiddle: 0, Reasons: nil},
	"HyTM/Kmeans":        {Commits: 800, Aborts: 0, Reads: 0, Writes: 0, Compares: 0, Incs: 7200, Promotes: 0, HWFast: 800, HWMiddle: 0, Reasons: nil},
	"HyTM-mid/Hashtable": {Commits: 400, Aborts: 83, Reads: 0, Writes: 611, Compares: 25447, Incs: 1290, Promotes: 6, HWFast: 0, HWMiddle: 317, Reasons: map[string]uint64{"hw-capacity": 83}},
	"HyTM-mid/Bank":      {Commits: 400, Aborts: 0, Reads: 0, Writes: 0, Compares: 2177, Incs: 4354, Promotes: 15, HWFast: 0, HWMiddle: 400, Reasons: nil},
	"HyTM-mid/LRU":       {Commits: 400, Aborts: 0, Reads: 2216, Writes: 554, Compares: 12052, Incs: 129, Promotes: 0, HWFast: 0, HWMiddle: 400, Reasons: nil},
	"HyTM-mid/Kmeans":    {Commits: 800, Aborts: 0, Reads: 0, Writes: 0, Compares: 0, Incs: 7200, Promotes: 0, HWFast: 0, HWMiddle: 800, Reasons: nil},
}

// TestTable3Golden is the oracle for refactors of the engine packages: every
// concrete registered engine runs the fixed single-worker cells and must
// reproduce table3Golden exactly.
func TestTable3Golden(t *testing.T) {
	workloads := []struct {
		name  string
		build harness.Builder
		ops   int
	}{
		{"Hashtable", func(rt *stm.Runtime) harness.Workload { return apps.NewHashtable(rt, 2048) }, 400},
		{"Bank", func(rt *stm.Runtime) harness.Workload { return apps.NewBank(rt, 1024, 1000) }, 400},
		{"LRU", func(rt *stm.Runtime) harness.Workload { return apps.NewLRUCache(rt, 64, 8) }, 400},
		{"Kmeans", func(rt *stm.Runtime) harness.Workload { return stamp.NewKmeans(rt, 16, 8) }, 200},
	}
	cells := 0
	for _, algo := range stm.Algorithms() {
		if d, _ := core.EngineFor(algo); d.Composite {
			continue
		}
		for _, wl := range workloads {
			key := algo.String() + "/" + wl.name
			rt := stm.New(algo)
			rt.ConfigureHTM(htm.DefaultCapacity, htm.DefaultMaxHWRetries, 0)
			res, err := harness.RunFixed(rt, wl.build(rt), 1, wl.ops)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			s := res.Stats
			got := goldenCell{
				Commits: s.Commits, Aborts: s.Aborts,
				Reads: s.Reads, Writes: s.Writes, Compares: s.Compares, Incs: s.Incs, Promotes: s.Promotes,
				HWFast: s.HWFastCommits, HWMiddle: s.HWMiddleCommits,
				Reasons: s.ReasonCounts(),
			}
			cells++
			want, ok := table3Golden[key]
			if !ok {
				t.Errorf("no golden cell for %s; got\n\t%q: %v,", key, key, got)
				continue
			}
			if got.String() != want.String() {
				t.Errorf("%s:\n\tgot  %v\n\twant %v", key, got, want)
			}
		}
	}
	if cells != len(table3Golden) {
		t.Errorf("ran %d cells, golden table holds %d", cells, len(table3Golden))
	}
}
