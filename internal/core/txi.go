package core

// TxImpl is the algorithm-facing transaction interface. Each engine family
// (NOrec, TL2, the simulated HTMs, single-global-lock) provides a
// concrete implementation; the public stm package wraps a TxImpl in a
// user-facing Tx. Engines implement the semantic primitives natively; the
// non-semantic baselines reach them only through Baseline.
//
// All methods except Commit may be called only between Start and
// Commit/abort. Methods signal an abort by panicking with the sentinel of
// Abort; the runtime retry loop recovers it.
type TxImpl interface {
	// Start begins a fresh attempt, resetting all per-attempt state.
	Start()

	// Read is the classical TM_READ barrier.
	Read(v *Var) int64

	// Write is the classical TM_WRITE barrier.
	Write(v *Var, val int64)

	// Cmp executes the semantic conditional "*v op operand" (address–value
	// form) and returns its outcome.
	Cmp(v *Var, op Op, operand int64) bool

	// CmpVars executes the address–address conditional "*a op *b"
	// (the _ITM_S2R form). Semantic algorithms record a single two-address
	// fact whose validation re-reads both sides (the "straightforward
	// extension" Section 4 of the paper describes).
	CmpVars(a *Var, op Op, b *Var) bool

	// Inc executes the semantic increment "*v += delta" (TM_INC/TM_DEC;
	// delta may be negative).
	Inc(v *Var, delta int64)

	// CmpSum evaluates the arithmetic conditional "(Σ *vars) op rhs" — the
	// complex-expression extension of the paper's technical report.
	// Algorithms without native expression support fall back to classical
	// reads (or per-clause semantics where possible).
	CmpSum(op Op, rhs int64, vars []*Var) bool

	// CmpAny evaluates the composed condition "c1 || c2 || ..." as one
	// semantic unit where supported, so clause-level changes that keep the
	// disjunction's outcome do not invalidate the transaction.
	CmpAny(conds []Cond) bool

	// Commit attempts to make the transaction's effects visible. On
	// success it returns normally; on validation failure it aborts by
	// panicking with the sentinel.
	Commit()

	// Cleanup releases any resources (e.g. orec locks) held by a failed
	// attempt. The runtime calls it after recovering an abort; it must be
	// idempotent.
	Cleanup()

	// AttemptStats exposes the per-attempt operation counters.
	AttemptStats() *TxStats

	// SetFaultPlan arms (non-nil) or disarms (nil) deterministic fault
	// injection on this descriptor's Start/Read/Cmp/Commit and validation
	// paths. The runtime disarms the plan while a transaction runs in the
	// irrevocable escalation mode, which must not abort.
	SetFaultPlan(*FaultPlan)
}

// Baseline is the non-semantic view of a descriptor, the paper's baseline
// builds: every semantic primitive runs through the classical barriers — a
// conditional reads its operands and compares locally, an increment is a
// read followed by a write. The stm facade binds a revocable engine
// registered with Semantic false through this view, so no engine carries a
// delegation branch of its own.
type Baseline struct{ TxImpl }

// Cmp reads v and evaluates the condition locally.
func (b Baseline) Cmp(v *Var, op Op, operand int64) bool { return op.Eval(b.Read(v), operand) }

// CmpVars reads both operands (right-hand side first) and compares locally.
func (b Baseline) CmpVars(a *Var, op Op, c *Var) bool {
	operand := b.Read(c)
	return op.Eval(b.Read(a), operand)
}

// CmpSum reads every addend.
func (b Baseline) CmpSum(op Op, rhs int64, vars []*Var) bool {
	var sum int64
	for _, v := range vars {
		sum += b.Read(v)
	}
	return op.Eval(sum, rhs)
}

// CmpAny reads clause by clause, short-circuiting on the first true one.
func (b Baseline) CmpAny(conds []Cond) bool {
	for _, c := range conds {
		if c.Op.Eval(b.Read(c.Var), c.Operand) {
			return true
		}
	}
	return false
}

// Inc is a read followed by a write.
func (b Baseline) Inc(v *Var, delta int64) { b.Write(v, b.Read(v)+delta) }

// TwoPhase is the decomposed commit a sharded runtime drives when one
// transaction spans several engine instances (DESIGN.md §11). A descriptor
// implementing it splits Commit into:
//
//	Prepare  — acquire this instance's commit locks (orec write locks,
//	           the seqlock) with bounded waiting, aborting via the usual
//	           panic sentinel on timeout or conflict. After Prepare returns,
//	           no other transaction can commit into this instance until
//	           Publish or Cleanup runs.
//	Validate — with every participating instance prepared (so the global
//	           write-set is locked), re-validate this instance's reads,
//	           compare-sets, and deferred-increment preconditions against
//	           its per-shard start version. Aborts via the sentinel; must
//	           leave held locks for Cleanup to release.
//	Validate may also be called while the transaction is still live (no
//	           locks held) to re-certify the instance's snapshot after a
//	           cross-shard commit elsewhere; implementations extend their
//	           snapshot where the algorithm allows it.
//	Publish  — write back, advance this instance's clock, and release the
//	           locks. Must not fail: every failure mode belongs to Prepare
//	           or Validate.
//
// A failed Prepare/Validate unwinds through the runtime, which calls Cleanup
// on every participant; Cleanup must therefore release whatever Prepare
// acquired (in addition to its usual duties).
type TwoPhase interface {
	Prepare()
	Validate()
	Publish()
}

// BatchNoter is the optional accounting hook for batch execution
// (stm.AtomicallyBatch): a descriptor implementing it is told, after each
// successful commit that folded several logical transactions into one engine
// commit, how many units the commit carried. Sharded descriptors attribute
// the units to the shards the attempt touched, making the coalescing
// amortization factor visible in ShardSnapshot.
type BatchNoter interface {
	NoteBatch(units int)
}
