package htm

import "semstm/internal/core"

// engine adapts a hybrid HTM Global to the core.Engine registry interface.
// HTM and S-HTM build the same descriptor; the baseline's semantic calls are
// delegated by the facade (core.Baseline). The engine also surfaces the
// fallback/hardware-abort tallies through the optional HTMReporter interface
// the stm facade probes for.
type engine struct {
	g *Global
}

func (e engine) NewTx(cfg core.TxConfig) core.TxImpl {
	tx := NewTx(e.g, cfg.Seed)
	// TxConfig values are applied literally (the facade always fills them);
	// only an entirely zero HTM tuple means the caller never configured the
	// hardware and the descriptor keeps its defaults.
	if cfg.HTMCapacity != 0 || cfg.HTMRetries != 0 || cfg.HTMSpurious != 0 {
		tx.Capacity = cfg.HTMCapacity
		tx.MaxHWRetries = cfg.HTMRetries
		tx.SpuriousPct = cfg.HTMSpurious
	}
	return tx
}

func (e engine) Quiescent() error { return e.g.Quiescent() }

// Fallbacks reports how many transactions took the software fallback.
func (e engine) Fallbacks() uint64 { return e.g.Fallbacks() }

// HWAborts reports how many hardware attempts failed.
func (e engine) HWAborts() uint64 { return e.g.HWAborts() }

// hyEngine adapts a progressive hybrid Global (hybrid.go) to the registry;
// noFast forces the instrumented middle path (the HyTM-mid ablation engine).
type hyEngine struct {
	g      *Global
	noFast bool
}

func (e hyEngine) NewTx(cfg core.TxConfig) core.TxImpl {
	tx := NewHyTx(e.g, e.noFast, cfg.Seed)
	// Same convention as engine.NewTx: only an entirely zero HTM tuple means
	// the caller never configured the hardware. The single retry knob feeds
	// every per-path budget — the ablation axis is instrumentation, not
	// retry asymmetry.
	if cfg.HTMCapacity != 0 || cfg.HTMRetries != 0 || cfg.HTMSpurious != 0 {
		tx.Capacity = cfg.HTMCapacity
		tx.FastRetries = cfg.HTMRetries
		tx.MiddleRetries = cfg.HTMRetries
		tx.SlowRetries = cfg.HTMRetries
		tx.SpuriousPct = cfg.HTMSpurious
	}
	tx.noFallback = cfg.NoIrrevocable
	return tx
}

func (e hyEngine) Quiescent() error { return e.g.Quiescent() }

// Fallbacks reports how many transactions took the irrevocable fallback.
func (e hyEngine) Fallbacks() uint64 { return e.g.Fallbacks() }

// HWAborts reports how many hardware-path attempts failed.
func (e hyEngine) HWAborts() uint64 { return e.g.HWAborts() }

// ClockValue exposes the engine instance's sequence-lock value — the
// per-shard "clock" the routing-isolation tests probe.
func (e hyEngine) ClockValue() uint64 { return e.g.Sequence() }

func newEngine() core.Engine { return engine{g: NewGlobal()} }

func init() {
	core.RegisterEngine(core.EngineDesc{
		ID:           core.EngineHTM,
		Name:         "HTM",
		DisplayOrder: 7,
		HTMBacked:    true,
		New:          newEngine,
	})
	core.RegisterEngine(core.EngineDesc{
		ID:            core.EngineSHTM,
		Name:          "S-HTM",
		DisplayOrder:  8,
		Semantic:      true,
		ComposedFacts: true,
		HTMBacked:     true,
		New:           newEngine,
	})
	core.RegisterEngine(core.EngineDesc{
		ID:             core.EngineHyTM,
		Name:           "HyTM",
		DisplayOrder:   9,
		Semantic:       true,
		ComposedFacts:  true,
		HTMBacked:      true,
		ProgressiveHTM: true,
		TwoPhase:       true,
		New:            func() core.Engine { return hyEngine{g: NewGlobal()} },
	})
	core.RegisterEngine(core.EngineDesc{
		ID:             core.EngineHyTMMid,
		Name:           "HyTM-mid",
		DisplayOrder:   10,
		Semantic:       true,
		ComposedFacts:  true,
		HTMBacked:      true,
		ProgressiveHTM: true,
		TwoPhase:       true,
		New:            func() core.Engine { return hyEngine{g: NewGlobal(), noFast: true} },
	})
}
