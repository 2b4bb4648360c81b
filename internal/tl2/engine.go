package tl2

import "semstm/internal/core"

// engine adapts a TL2 Global (clock + orec table) to the core.Engine
// registry interface. TL2 and S-TL2 build the same descriptor; the
// baseline's semantic calls are delegated by the facade (core.Baseline).
type engine struct {
	g *Global
}

func (e engine) NewTx(cfg core.TxConfig) core.TxImpl {
	tx := NewTx(e.g)
	tx.SetNoExtend(cfg.NoExtend)
	return tx
}

func (e engine) Quiescent() error { return e.g.Quiescent() }

// ClockValue exposes the engine instance's version clock — the per-shard
// "clock" probe sharded runtimes use to assert that single-shard
// transactions never move another shard's commit metadata.
func (e engine) ClockValue() uint64 { return e.g.Clock() }

func newEngine() core.Engine { return engine{g: NewGlobal()} }

func init() {
	core.RegisterEngine(core.EngineDesc{
		ID:           core.EngineTL2,
		Name:         "TL2",
		DisplayOrder: 2,
		TwoPhase:     true,
		New:          newEngine,
	})
	core.RegisterEngine(core.EngineDesc{
		ID:           core.EngineSTL2,
		Name:         "S-TL2",
		DisplayOrder: 3,
		Semantic:     true,
		// S-TL2 records each evaluated clause of CmpAny as its own fact
		// (per-orec versioning has no composed-fact representation), so
		// ComposedFacts stays false.
		TwoPhase: true,
		New:      newEngine,
	})
}
