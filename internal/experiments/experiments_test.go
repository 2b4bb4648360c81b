package experiments

import (
	"regexp"
	"strings"
	"testing"
	"time"
)

// tinyCfg keeps test runs to a couple of seconds per experiment.
var tinyCfg = Config{
	Threads:  []int{2},
	Duration: 50 * time.Millisecond,
	TotalOps: 60,
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Panels == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	// One experiment per figure pair plus Table 3 plus the extension:
	// 8 RSTM panels + 2 GCC panels + table3 + ext-htm.
	if len(ids) != 12 {
		t.Fatalf("registry holds %d experiments, want 12", len(ids))
	}
}

// TestGatesRun measures every gate once at a tiny duration: each must run
// without error and report a line carrying measured figures. Whether the bar
// is met is not asserted — that is scripts/check.sh's job at the table's own
// durations.
func TestGatesRun(t *testing.T) {
	figure := regexp.MustCompile(`\d+\.\d+`)
	names := map[string]bool{}
	for _, g := range Gates() {
		if g.Name == "" || g.Bar == "" || g.Dur <= 0 || g.Reps <= 0 || g.Run == nil {
			t.Fatalf("incomplete gate %+v", g)
		}
		if names[g.Name] {
			t.Fatalf("duplicate gate %s", g.Name)
		}
		names[g.Name] = true
		if found, err := FindGate(g.Name); err != nil || found.Name != g.Name {
			t.Fatalf("FindGate(%s) = %+v, %v", g.Name, found, err)
		}
		line, _, err := g.Measure(Config{Duration: 5 * time.Millisecond, Reps: 1})
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if len(figure.FindAllString(line, -1)) < 3 { // both arms and the ratio, or three heap windows
			t.Fatalf("%s: report line lacks its measured figures: %q", g.Name, line)
		}
	}
	if _, err := FindGate("nope"); err == nil {
		t.Fatal("FindGate(nope) must fail")
	}
}

func TestFind(t *testing.T) {
	e, err := Find("fig1a")
	if err != nil || e.ID != "fig1a" {
		t.Fatalf("Find(fig1a) = %+v, %v", e, err)
	}
	if _, err := Find("nope"); err == nil {
		t.Fatal("Find(nope) must fail")
	}
}

func TestMicroExperimentsRun(t *testing.T) {
	for _, id := range []string{"fig1a", "fig1c", "fig1e"} {
		e, _ := Find(id)
		out, err := e.Run(tinyCfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, col := range []string{"NOrec", "S-NOrec", "TL2", "S-TL2"} {
			if !strings.Contains(out, col) {
				t.Fatalf("%s output missing column %s:\n%s", id, col, out)
			}
		}
		if !strings.Contains(out, "throughput") || !strings.Contains(out, "aborts") {
			t.Fatalf("%s output missing panels:\n%s", id, out)
		}
	}
}

func TestStampExperimentsRun(t *testing.T) {
	for _, id := range []string{"fig1g", "fig1i", "fig1k", "fig1m", "fig1o"} {
		e, _ := Find(id)
		out, err := e.Run(tinyCfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(out, "time (s)") || !strings.Contains(out, "aborts") {
			t.Fatalf("%s output missing panels:\n%s", id, out)
		}
	}
}

func TestGCCExperimentsRun(t *testing.T) {
	for _, id := range []string{"fig2a", "fig2c"} {
		e, _ := Find(id)
		out, err := e.Run(tinyCfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, col := range []string{"NOrec", "Modified-GCC", "S-NOrec"} {
			if !strings.Contains(out, col) {
				t.Fatalf("%s output missing column %s:\n%s", id, col, out)
			}
		}
	}
}

func TestExtensionExperimentsRun(t *testing.T) {
	e, _ := Find("ext-htm")
	out, err := e.Run(tinyCfg)
	if err != nil {
		t.Fatalf("ext-htm: %v", err)
	}
	if !strings.Contains(out, "S-HTM") {
		t.Fatalf("ext-htm missing column:\n%s", out)
	}
}

func TestTable3Run(t *testing.T) {
	e, _ := Find("table3")
	out, err := e.Run(Config{TotalOps: 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Hashtable", "Bank", "LRU", "Vacation", "Kmeans",
		"Labyrinth", "Yada", "SSCA2", "Genome", "Intruder"} {
		if !strings.Contains(out, name) {
			t.Fatalf("table3 missing %s:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "semantic") || !strings.Contains(out, "base") {
		t.Fatalf("table3 missing build rows:\n%s", out)
	}
}
