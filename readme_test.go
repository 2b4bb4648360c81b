package semstm

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"semstm/stm"
)

// TestReadmeEngineTable ties README's "| `stm.Algorithm` | Name |" table to
// the engine registry: its Name column must list exactly the registered
// engines, in display order, so adding or removing an engine without fixing
// the table fails here.
func TestReadmeEngineTable(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	inTable := false
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "| `stm.Algorithm` | Name |") {
			inTable = true
			continue
		}
		if !inTable {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(line, "|")
		if name := strings.TrimSpace(cells[2]); !strings.HasPrefix(name, "---") {
			documented = append(documented, name)
		}
	}
	var registered []string
	for _, a := range stm.Algorithms() {
		registered = append(registered, a.String())
	}
	if !slices.Equal(documented, registered) {
		t.Fatalf("README engine table lists %q, registry has %q", documented, registered)
	}
}

var (
	// goRunCmd matches a documented `go run ./cmd/<x>` invocation.
	goRunCmd = regexp.MustCompile(`go run (?:-C \S+ )?\./(cmd/[\w-]+)`)
	// codeSpan matches one inline code span.
	codeSpan = regexp.MustCompile("`[^`\n]+`")
	// treePath matches a repository path inside a code span; a {a,b}
	// group expands to one path per alternative.
	treePath = regexp.MustCompile(`(?:^|[^\w./-])(?:\./)?((?:cmd|internal|stm|scripts)/[\w./{},-]*)`)
)

// TestDocPathsExist holds the prose docs to the tree: every `go run
// ./cmd/<x>` command and every code-span path under cmd/, internal/, stm/
// or scripts/ must name something that exists, so deleting a command or a
// file without fixing the docs that point at it fails here.
func TestDocPathsExist(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		var paths []string
		for _, m := range goRunCmd.FindAllStringSubmatch(string(raw), -1) {
			paths = append(paths, m[1])
		}
		for _, span := range codeSpan.FindAllString(string(raw), -1) {
			for _, m := range treePath.FindAllStringSubmatch(span, -1) {
				paths = append(paths, expandBraces(strings.TrimRight(m[1], ".,"))...)
			}
		}
		for _, p := range paths {
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s names %s, which does not exist", doc, p)
			}
		}
	}
}

// expandBraces expands the first {a,b,...} group of p, recursively.
func expandBraces(p string) []string {
	open, end := strings.IndexByte(p, '{'), strings.IndexByte(p, '}')
	if open < 0 || end < open {
		return []string{p}
	}
	var out []string
	for _, alt := range strings.Split(p[open+1:end], ",") {
		out = append(out, expandBraces(p[:open]+alt+p[end+1:])...)
	}
	return out
}
