// Package semstm is a Go reproduction of "Extending TM Primitives using Low
// Level Semantics" (Saad, Palmieri, Hassan, Ravindran; SPAA 2016): a software
// transactional memory library whose API includes the paper's TM-friendly
// semantic primitives (conditional operators and deferred increments), the
// S-NOrec and S-TL2 algorithms together with their classical baselines, a
// TxC-to-GIMPLE compiler with the tm_mark/tm_optimize passes, and the
// benchmark suite (micro-benchmarks plus STAMP ports) that regenerates every
// table and figure of the paper's evaluation.
//
// Start with package semstm/stm for the library API, cmd/semstm-bench for
// the experiments, and cmd/tmc for the compiler. The repository-level
// benchmarks in ablation_bench_test.go time the ablations no experiment runs.
package semstm
