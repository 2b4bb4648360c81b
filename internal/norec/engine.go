package norec

import "semstm/internal/core"

// engine adapts a NOrec Global to the core.Engine registry interface. NOrec
// and S-NOrec build the same descriptor; the baseline's semantic calls are
// delegated by the facade (core.Baseline), keyed on the registered Semantic
// flag.
type engine struct {
	g *Global
}

func (e engine) NewTx(core.TxConfig) core.TxImpl { return NewTx(e.g) }

func (e engine) Quiescent() error { return e.g.Quiescent() }

// ClockValue exposes the engine instance's sequence-lock value — the
// per-shard "clock" probe sharded runtimes use to assert that single-shard
// transactions never move another shard's commit metadata.
func (e engine) ClockValue() uint64 { return e.g.Sequence() }

func newEngine() core.Engine { return engine{g: NewGlobal()} }

func init() {
	core.RegisterEngine(core.EngineDesc{
		ID:           core.EngineNOrec,
		Name:         "NOrec",
		DisplayOrder: 0,
		TwoPhase:     true,
		New:          newEngine,
	})
	core.RegisterEngine(core.EngineDesc{
		ID:            core.EngineSNOrec,
		Name:          "S-NOrec",
		DisplayOrder:  1,
		Semantic:      true,
		ComposedFacts: true,
		TwoPhase:      true,
		New:           newEngine,
	})
}
