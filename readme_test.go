package semstm

import (
	"os"
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
