package stm_test

import (
	"reflect"
	"slices"
	"testing"

	"semstm/stm"
)

// testOnlyMethods are the introspection hooks export_test.go adds for this
// package's own tests; they are not part of the surface a consumer sees.
var testOnlyMethods = []string{"InjectLogFailure", "ShardClock"}

// TestExportedSurface pins the exported method sets of *Runtime and
// *Durable, so a new knob or probe shows up here as a visible diff.
func TestExportedSurface(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeFor[*stm.Runtime](), []string{
			"Algorithm", "Atomically", "AtomicallyBatch", "AtomicallyCtx",
			"AtomicallyPrivatize", "CheckQuiescent", "ConfigureHTM", "HTMStats",
			"SetBackoff", "SetEscalateAfter", "SetFaultPlan", "SetNoExtend",
			"SetYieldEvery", "ShardStats", "Shards", "Stats", "TryAtomically",
		}},
		{reflect.TypeFor[*stm.Durable](), []string{
			"Close", "Recovery", "Runtime", "Var", "Vars", "WALFailed", "WALStats",
		}},
	} {
		var got []string
		for i := range c.typ.NumMethod() {
			if name := c.typ.Method(i).Name; !slices.Contains(testOnlyMethods, name) {
				got = append(got, name)
			}
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%v methods:\n got %q\nwant %q", c.typ, got, c.want)
		}
	}
}
