//! Test-case generation strategies: Themis's load variance-guided fuzzing
//! and the four comparison methods of Section 6, plus the `Themis⁻`
//! ablation of Section 6.3.
//!
//! All strategies run under the same campaign loop and the same imbalance
//! detector (the paper grants its detector to every baseline for fairness);
//! they differ only in how the next test case is produced and how runtime
//! feedback is used.

use crate::gen::{self, OpDraw};
use crate::model::InputModel;
use crate::mutate;
use crate::seedpool::SeedPool;
use crate::spec::{Operation, Operator, TestCase};
use rand::rngs::StdRng;
use rand::RngExt;

/// Context handed to a strategy when producing the next case.
pub struct GenCtx<'a> {
    /// The shared input model (Tree_files, node lists, free space).
    pub model: &'a mut InputModel,
    /// The campaign RNG.
    pub rng: &'a mut StdRng,
    /// Maximum sequence length (`max_n`).
    pub max_len: usize,
}

/// Runtime feedback after executing a case.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecFeedback {
    /// Weighted load-variance score of the post-execution load report.
    pub variance: f64,
    /// Change in weighted load variance produced by this case (post minus
    /// pre). Positive deltas mean the case pushed nodes further apart.
    pub variance_delta: f64,
    /// Cumulative branch coverage after execution.
    pub coverage: u64,
    /// Whether this case led to a confirmed imbalance failure.
    pub found_failure: bool,
}

/// A test-case generation strategy.
pub trait Strategy {
    /// Stable strategy name (used in tables).
    fn name(&self) -> &'static str;

    /// Produces the next case to execute.
    fn next_case(&mut self, ctx: &mut GenCtx<'_>) -> TestCase;

    /// Consumes feedback for the case just executed.
    fn feedback(&mut self, case: &TestCase, fb: &ExecFeedback);

    /// Called when the DFS was reset to its initial state.
    fn on_reset(&mut self) {}
}

// ---------------------------------------------------------------------
// Themis: load variance-guided fuzzing over the unified sequence space.
// ---------------------------------------------------------------------

/// The paper's strategy: seeds whose execution increased the load variance
/// (or found a failure) are pooled and mutated.
pub struct ThemisStrategy {
    pool: SeedPool,
    /// Highest variance seen since the last reset.
    frontier: f64,
    last_case_fresh: bool,
}

impl ThemisStrategy {
    /// Creates the strategy with the default pool capacity.
    pub fn new() -> Self {
        ThemisStrategy {
            pool: SeedPool::new(64),
            frontier: 0.0,
            last_case_fresh: true,
        }
    }
}

impl Default for ThemisStrategy {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for ThemisStrategy {
    fn name(&self) -> &'static str {
        "Themis"
    }

    fn next_case(&mut self, ctx: &mut GenCtx<'_>) -> TestCase {
        // Keep a stream of fresh random cases mixed in (exploration), but
        // mostly mutate pooled high-variance seeds (exploitation).
        if self.pool.is_empty() || ctx.rng.random_bool(0.10) {
            self.last_case_fresh = true;
            gen::random_case(ctx.model, ctx.rng, ctx.max_len)
        } else {
            self.last_case_fresh = false;
            let parent = self.pool.pick(ctx.rng).expect("pool nonempty").clone();
            mutate::mutate(&parent, ctx.model, ctx.rng, ctx.max_len)
        }
    }

    fn feedback(&mut self, case: &TestCase, fb: &ExecFeedback) {
        // Admit seeds whose execution *increased* the load variance or
        // pushed the frontier, and always admit failure-triggering cases
        // (Figure 6 step 9). Scoring rewards the variance delta most: the
        // goal is sequences that keep driving nodes apart, not sequences
        // that merely ran while the cluster happened to be imbalanced.
        let interesting =
            fb.found_failure || fb.variance_delta > 1e-4 || fb.variance > self.frontier;
        if fb.variance > self.frontier {
            self.frontier = fb.variance;
        }
        if interesting && !case.is_empty() {
            let score = fb.variance
                + 5.0 * fb.variance_delta.max(0.0)
                + if fb.found_failure { 1e6 } else { 0.0 };
            self.pool.push(case.clone(), score);
        }
    }

    fn on_reset(&mut self) {
        // Accumulated load is gone; variance must be rebuilt from scratch,
        // but proven sequences stay useful as mutation parents.
        self.frontier = 0.0;
    }
}

// ---------------------------------------------------------------------
// Themis⁻: the ablation (no load variance model, random sequences).
// ---------------------------------------------------------------------

/// Themis with the load variance model disabled: operation sequences over
/// the full grammar, generated randomly with no feedback (Section 6.3).
#[derive(Debug, Default)]
pub struct ThemisMinus;

impl Strategy for ThemisMinus {
    fn name(&self) -> &'static str {
        "Themis-"
    }

    fn next_case(&mut self, ctx: &mut GenCtx<'_>) -> TestCase {
        gen::random_case(ctx.model, ctx.rng, ctx.max_len)
    }

    fn feedback(&mut self, _case: &TestCase, _fb: &ExecFeedback) {}
}

// ---------------------------------------------------------------------
// Fix_req: fixed request workload, coverage-guided configuration fuzzing
// (the CrashFuzz-style baseline).
// ---------------------------------------------------------------------

/// Fixed client workload replayed every iteration while the configuration
/// input space is fuzzed with coverage feedback.
pub struct FixReq {
    pool: SeedPool,
    last_coverage: u64,
}

impl FixReq {
    /// Creates the baseline.
    pub fn new() -> Self {
        FixReq {
            pool: SeedPool::new(64),
            last_coverage: 0,
        }
    }

    /// The fixed request script: a generic SmallFile-style block whose
    /// operator pattern *and data sizes* never change. File names are
    /// re-instantiated so the script stays executable as the namespace
    /// evolves, but the workload itself is fixed — the defining property of
    /// this baseline.
    fn fixed_request_block(ctx: &mut GenCtx<'_>) -> Vec<Operation> {
        use crate::spec::Operand;
        const MIB: u64 = 1024 * 1024;
        let a = ctx.model.fresh_name(ctx.rng);
        let b = ctx.model.fresh_name(ctx.rng);
        vec![
            Operation::new(
                Operator::Create,
                vec![Operand::FileName(a.clone()), Operand::Size(8 * MIB)],
            ),
            Operation::new(
                Operator::Create,
                vec![Operand::FileName(b.clone()), Operand::Size(8 * MIB)],
            ),
            Operation::new(
                Operator::Append,
                vec![Operand::FileName(a.clone()), Operand::Size(4 * MIB)],
            ),
            Operation::new(
                Operator::Overwrite,
                vec![Operand::FileName(b), Operand::Size(16 * MIB)],
            ),
            Operation::new(Operator::Open, vec![Operand::FileName(a.clone())]),
            Operation::new(Operator::Delete, vec![Operand::FileName(a)]),
        ]
    }
}

impl Default for FixReq {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for FixReq {
    fn name(&self) -> &'static str {
        "Fix_req"
    }

    fn next_case(&mut self, ctx: &mut GenCtx<'_>) -> TestCase {
        let config_part = if self.pool.is_empty() || ctx.rng.random_bool(0.3) {
            gen::config_only_case(ctx.model, ctx.rng, 4)
        } else {
            let parent = self.pool.pick(ctx.rng).expect("pool nonempty").clone();
            mutate::mutate_with(&parent, ctx.model, ctx.rng, 4, OpDraw::ConfigOnly)
        };
        let mut ops = Self::fixed_request_block(ctx);
        ops.extend(config_part.ops);
        TestCase::new(ops)
    }

    fn feedback(&mut self, case: &TestCase, fb: &ExecFeedback) {
        if fb.coverage > self.last_coverage {
            // Pool only the fuzzed (configuration) part of the case.
            let config_ops: Vec<Operation> = case
                .ops
                .iter()
                .filter(|o| o.opt.is_config_op())
                .cloned()
                .collect();
            if !config_ops.is_empty() {
                self.pool.push(
                    TestCase::new(config_ops),
                    (fb.coverage - self.last_coverage) as f64,
                );
            }
        }
        self.last_coverage = fb.coverage;
    }
}

// ---------------------------------------------------------------------
// Fix_conf: fixed configuration, coverage-guided request fuzzing
// (the SmallFile/Filebench-style baseline).
// ---------------------------------------------------------------------

/// Static cluster configuration; only the client-request space is fuzzed,
/// with coverage feedback.
pub struct FixConf {
    pool: SeedPool,
    last_coverage: u64,
}

impl FixConf {
    /// Creates the baseline.
    pub fn new() -> Self {
        FixConf {
            pool: SeedPool::new(64),
            last_coverage: 0,
        }
    }
}

impl Default for FixConf {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for FixConf {
    fn name(&self) -> &'static str {
        "Fix_conf"
    }

    fn next_case(&mut self, ctx: &mut GenCtx<'_>) -> TestCase {
        if self.pool.is_empty() || ctx.rng.random_bool(0.3) {
            gen::request_only_case(ctx.model, ctx.rng, ctx.max_len)
        } else {
            let parent = self.pool.pick(ctx.rng).expect("pool nonempty").clone();
            mutate::mutate_with(&parent, ctx.model, ctx.rng, ctx.max_len, OpDraw::FileOnly)
        }
    }

    fn feedback(&mut self, case: &TestCase, fb: &ExecFeedback) {
        if fb.coverage > self.last_coverage && !case.is_empty() {
            self.pool
                .push(case.clone(), (fb.coverage - self.last_coverage) as f64);
        }
        self.last_coverage = fb.coverage;
    }
}

// ---------------------------------------------------------------------
// Alternate: Janus-style alternation between the two input spaces.
// ---------------------------------------------------------------------

/// Alternate generation: apply a random configuration, then explore the
/// request space with coverage guidance until coverage converges (no
/// growth for `stall_limit` iterations), then pick a new configuration.
pub struct Alternate {
    pool: SeedPool,
    last_coverage: u64,
    stalled: u32,
    /// Iterations without coverage growth that end a request phase.
    stall_limit: u32,
    /// Hard cap on request-phase length: even while coverage trickles in,
    /// the phase eventually converges and a new configuration is drawn.
    phase_cap: u32,
    phase_iters: u32,
    need_config_phase: bool,
}

impl Alternate {
    /// Creates the baseline with the default convergence window.
    pub fn new() -> Self {
        Alternate {
            pool: SeedPool::new(64),
            last_coverage: 0,
            stalled: 0,
            stall_limit: 40,
            phase_cap: 120,
            phase_iters: 0,
            need_config_phase: true,
        }
    }
}

impl Default for Alternate {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for Alternate {
    fn name(&self) -> &'static str {
        "Alternate"
    }

    fn next_case(&mut self, ctx: &mut GenCtx<'_>) -> TestCase {
        if self.need_config_phase {
            self.need_config_phase = false;
            self.stalled = 0;
            self.phase_iters = 0;
            // Step 1: a fresh random configuration for the next phase.
            return gen::config_only_case(ctx.model, ctx.rng, 4);
        }
        self.phase_iters += 1;
        if self.phase_iters >= self.phase_cap {
            self.need_config_phase = true;
        }
        // Step 2: coverage-guided request exploration.
        if self.pool.is_empty() || ctx.rng.random_bool(0.3) {
            gen::request_only_case(ctx.model, ctx.rng, ctx.max_len)
        } else {
            let parent = self.pool.pick(ctx.rng).expect("pool nonempty").clone();
            mutate::mutate_with(&parent, ctx.model, ctx.rng, ctx.max_len, OpDraw::FileOnly)
        }
    }

    fn feedback(&mut self, case: &TestCase, fb: &ExecFeedback) {
        if fb.coverage > self.last_coverage {
            self.stalled = 0;
            if !case.is_empty() && case.ops.iter().all(|o| o.opt.is_file_op()) {
                self.pool
                    .push(case.clone(), (fb.coverage - self.last_coverage) as f64);
            }
        } else {
            self.stalled += 1;
            if self.stalled >= self.stall_limit {
                // Step 3: coverage converged — next iteration reconfigures.
                self.need_config_phase = true;
            }
        }
        self.last_coverage = fb.coverage;
    }
}

// ---------------------------------------------------------------------
// Concurrent: independent concurrent generation of both spaces.
// ---------------------------------------------------------------------

/// Concurrent generation: every iteration independently draws a request
/// sequence and a configuration sequence and interleaves them randomly.
/// Because the two generators are independent, runtime feedback cannot be
/// attributed and the search is unguided (Section 3.4, Method 3).
#[derive(Debug, Default)]
pub struct Concurrent;

impl Strategy for Concurrent {
    fn name(&self) -> &'static str {
        "Concurrent"
    }

    fn next_case(&mut self, ctx: &mut GenCtx<'_>) -> TestCase {
        let req = gen::request_only_case(ctx.model, ctx.rng, ctx.max_len - 2);
        let conf = gen::config_only_case(ctx.model, ctx.rng, 3);
        // Random interleaving (merge-shuffle preserving both orders).
        let mut ops = Vec::with_capacity(req.ops.len() + conf.ops.len());
        let (mut i, mut j) = (0, 0);
        while i < req.ops.len() || j < conf.ops.len() {
            let take_req = if i >= req.ops.len() {
                false
            } else if j >= conf.ops.len() {
                true
            } else {
                ctx.rng.random_bool(0.5)
            };
            if take_req {
                ops.push(req.ops[i].clone());
                i += 1;
            } else {
                ops.push(conf.ops[j].clone());
                j += 1;
            }
        }
        TestCase::new(ops)
    }

    fn feedback(&mut self, _case: &TestCase, _fb: &ExecFeedback) {}
}

/// Instantiates a strategy by table name (used by the bench harness).
pub fn by_name(name: &str) -> Option<Box<dyn Strategy>> {
    match name {
        "Themis" => Some(Box::new(ThemisStrategy::new())),
        "Themis-" => Some(Box::new(ThemisMinus)),
        "Fix_req" => Some(Box::new(FixReq::new())),
        "Fix_conf" => Some(Box::new(FixConf::new())),
        "Alternate" => Some(Box::new(Alternate::new())),
        "Concurrent" => Some(Box::new(Concurrent)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptor::NodeInventory;
    use rand::SeedableRng;

    /// The paper's five comparison strategies plus the ablation.
    const NAMES: [&str; 6] = [
        "Themis",
        "Fix_req",
        "Fix_conf",
        "Alternate",
        "Concurrent",
        "Themis-",
    ];

    fn ctx_parts() -> (InputModel, StdRng) {
        let mut m = InputModel::new();
        m.sync(&NodeInventory {
            mgmt: vec![0, 1],
            storage: vec![2, 3, 4],
            volumes: vec![10, 11],
            free_space: 1 << 30,
            files: vec!["/a".into()],
            dirs: vec![],
        });
        (m, StdRng::seed_from_u64(21))
    }

    fn run_n(strat: &mut dyn Strategy, n: usize) -> Vec<TestCase> {
        let (mut m, mut r) = ctx_parts();
        let mut out = Vec::new();
        for i in 0..n {
            let case = {
                let mut ctx = GenCtx {
                    model: &mut m,
                    rng: &mut r,
                    max_len: 8,
                };
                strat.next_case(&mut ctx)
            };
            let fb = ExecFeedback {
                variance: (i % 7) as f64 * 0.1,
                variance_delta: 0.05,
                coverage: (i * 13) as u64,
                found_failure: false,
            };
            strat.feedback(&case, &fb);
            out.push(case);
        }
        out
    }

    #[test]
    fn all_strategies_produce_well_formed_cases() {
        for name in NAMES {
            let mut s = by_name(name).expect("known strategy");
            for case in run_n(s.as_mut(), 120) {
                assert!(case.well_formed(), "{name}: {case}");
                assert!(!case.is_empty(), "{name} produced empty case");
            }
        }
    }

    #[test]
    fn fix_conf_never_emits_config_ops() {
        let mut s = FixConf::new();
        for case in run_n(&mut s, 200) {
            assert!(case.ops.iter().all(|o| o.opt.is_file_op()), "{case}");
        }
    }

    #[test]
    fn fix_req_requests_are_the_fixed_pattern() {
        let mut s = FixReq::new();
        for case in run_n(&mut s, 50) {
            let file_ops: Vec<Operator> = case
                .ops
                .iter()
                .filter(|o| o.opt.is_file_op())
                .map(|o| o.opt)
                .collect();
            assert_eq!(
                file_ops,
                vec![
                    Operator::Create,
                    Operator::Create,
                    Operator::Append,
                    Operator::Overwrite,
                    Operator::Open,
                    Operator::Delete
                ],
                "Fix_req must replay its fixed request script"
            );
            assert!(
                case.ops.iter().any(|o| o.opt.is_config_op()),
                "config part is fuzzed"
            );
        }
    }

    #[test]
    fn concurrent_mixes_both_spaces() {
        let mut s = Concurrent;
        let cases = run_n(&mut s, 100);
        let mixed = cases.iter().filter(|c| c.mixes_input_spaces()).count();
        assert!(
            mixed > 90,
            "concurrent cases should nearly always mix spaces: {mixed}"
        );
    }

    #[test]
    fn alternate_starts_with_a_config_phase() {
        let (mut m, mut r) = ctx_parts();
        let mut s = Alternate::new();
        let first = {
            let mut ctx = GenCtx {
                model: &mut m,
                rng: &mut r,
                max_len: 8,
            };
            s.next_case(&mut ctx)
        };
        assert!(first.ops.iter().all(|o| o.opt.is_config_op()));
        // Subsequent phases are request-only until coverage stalls.
        let second = {
            let mut ctx = GenCtx {
                model: &mut m,
                rng: &mut r,
                max_len: 8,
            };
            s.next_case(&mut ctx)
        };
        assert!(second.ops.iter().all(|o| o.opt.is_file_op()));
    }

    #[test]
    fn alternate_reconfigures_after_stall() {
        let (mut m, mut r) = ctx_parts();
        let mut s = Alternate::new();
        s.stall_limit = 3;
        // Config phase.
        {
            let mut ctx = GenCtx {
                model: &mut m,
                rng: &mut r,
                max_len: 8,
            };
            let _ = s.next_case(&mut ctx);
        }
        // Stall coverage for stall_limit iterations.
        for _ in 0..3 {
            let case = {
                let mut ctx = GenCtx {
                    model: &mut m,
                    rng: &mut r,
                    max_len: 8,
                };
                s.next_case(&mut ctx)
            };
            s.feedback(
                &case,
                &ExecFeedback {
                    variance: 0.0,
                    variance_delta: 0.0,
                    coverage: 0,
                    found_failure: false,
                },
            );
        }
        let next = {
            let mut ctx = GenCtx {
                model: &mut m,
                rng: &mut r,
                max_len: 8,
            };
            s.next_case(&mut ctx)
        };
        assert!(
            next.ops.iter().all(|o| o.opt.is_config_op()),
            "a stalled Alternate must start a new config phase"
        );
    }

    #[test]
    fn themis_pools_variance_frontier_cases() {
        let (mut m, mut r) = ctx_parts();
        let mut s = ThemisStrategy::new();
        let case = {
            let mut ctx = GenCtx {
                model: &mut m,
                rng: &mut r,
                max_len: 8,
            };
            s.next_case(&mut ctx)
        };
        s.feedback(
            &case,
            &ExecFeedback {
                variance: 0.5,
                variance_delta: 0.5,
                coverage: 0,
                found_failure: false,
            },
        );
        assert_eq!(s.pool.len(), 1);
        // Lower variance is not admitted once the frontier is higher.
        s.feedback(
            &case,
            &ExecFeedback {
                variance: 0.1,
                variance_delta: -0.4,
                coverage: 0,
                found_failure: false,
            },
        );
        assert_eq!(s.pool.len(), 1);
        // A failure-triggering case is always admitted.
        s.feedback(
            &case,
            &ExecFeedback {
                variance: 0.0,
                variance_delta: 0.0,
                coverage: 0,
                found_failure: true,
            },
        );
        assert_eq!(s.pool.len(), 2);
    }

    #[test]
    fn themis_reset_clears_frontier_but_keeps_seeds() {
        let (mut m, mut r) = ctx_parts();
        let mut s = ThemisStrategy::new();
        let case = {
            let mut ctx = GenCtx {
                model: &mut m,
                rng: &mut r,
                max_len: 8,
            };
            s.next_case(&mut ctx)
        };
        s.feedback(
            &case,
            &ExecFeedback {
                variance: 5.0,
                variance_delta: 5.0,
                coverage: 0,
                found_failure: false,
            },
        );
        s.on_reset();
        assert_eq!(s.frontier, 0.0);
        assert_eq!(s.pool.len(), 1);
        // Post-reset low variance is admissible again.
        s.feedback(
            &case,
            &ExecFeedback {
                variance: 0.2,
                variance_delta: 0.2,
                coverage: 0,
                found_failure: false,
            },
        );
        assert_eq!(s.pool.len(), 2);
    }

    #[test]
    fn by_name_knows_all_strategies() {
        for name in NAMES {
            assert!(by_name(name).is_some(), "{name}");
        }
        assert!(by_name("nope").is_none());
    }
}
