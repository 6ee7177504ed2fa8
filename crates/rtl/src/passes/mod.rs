//! Netlist rewriting passes: constant folding, slice/concat strength
//! reduction, common-subexpression elimination and dead-code elimination.
//!
//! All passes preserve the observable behaviour of the module (outputs as a
//! function of input history), which the workspace verifies with
//! property-based tests in `hc-sim` and design-level differential tests in
//! `tests/opt_equivalence.rs`.
//!
//! The passes rewrite the module's tables in place. What they emit is
//! pinned byte for byte against a `#[cfg(test)]` oracle (`passes::oracle`):
//! the pipeline as it stood before the in-place rewrite. A proptest there
//! requires both to give equal tables and reports on random modules, and
//! `tests/opt_equivalence.rs` pins the content hash of every shipped
//! design's optimized module.
//!
//! The standard pipeline is [`optimize`]; [`optimize_with`] takes an
//! explicit [`PassConfig`] for debugging and ablation. To bisect a
//! miscompare down to "is it the passes?", run the module through
//! `optimize_with(&mut module, &PassConfig::none())` (a no-op) and compare.

mod const_fold;
mod cse;
mod dce;
pub mod eval;
#[cfg(test)]
mod oracle;
mod strength;

pub use const_fold::const_fold;
pub use cse::cse;
pub use dce::dce;
pub use strength::strength_reduce;

use crate::Module;

/// Which passes the pipeline runs. The default is everything.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PassConfig {
    /// Constant folding and algebraic identities ([`const_fold`]).
    pub const_fold: bool,
    /// Slice/concat/extension strength reduction ([`strength_reduce`]).
    pub strength: bool,
    /// Common-subexpression elimination ([`cse`]).
    pub cse: bool,
    /// Dead node/register/memory elimination ([`dce`]).
    pub dce: bool,
}

impl Default for PassConfig {
    fn default() -> Self {
        Self::all()
    }
}

impl PassConfig {
    /// Every pass enabled (the production pipeline).
    pub fn all() -> Self {
        PassConfig {
            const_fold: true,
            strength: true,
            cse: true,
            dce: true,
        }
    }

    /// Every pass disabled; [`optimize_with`] becomes a no-op.
    pub fn none() -> Self {
        PassConfig {
            const_fold: false,
            strength: false,
            cse: false,
            dce: false,
        }
    }

    /// True when at least one pass is enabled.
    pub fn any(&self) -> bool {
        self.const_fold || self.strength || self.cse || self.dce
    }
}

/// Size accounting for one [`optimize_with`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptReport {
    /// Combinational nodes before the pipeline.
    pub nodes_before: usize,
    /// Combinational nodes after the pipeline.
    pub nodes_after: usize,
    /// Registers before the pipeline.
    pub regs_before: usize,
    /// Registers after the pipeline.
    pub regs_after: usize,
    /// Pipeline iterations until the size fixpoint.
    pub iterations: usize,
}

impl OptReport {
    /// True when the pipeline changed the node or register count.
    pub fn changed(&self) -> bool {
        self.nodes_before != self.nodes_after || self.regs_before != self.regs_after
    }

    /// Node-count shrink as a fraction of the original size (0 when the
    /// module was empty or grew).
    pub fn shrink(&self) -> f64 {
        if self.nodes_before == 0 || self.nodes_after >= self.nodes_before {
            0.0
        } else {
            (self.nodes_before - self.nodes_after) as f64 / self.nodes_before as f64
        }
    }
}

/// Runs the configured passes (fold → strength → CSE → DCE) to a fixpoint
/// of sizes and reports the before/after accounting.
///
/// This is roughly what an HDL compiler does before technology mapping, so
/// every frontend calls it before handing a module to `hc-synth` — area
/// numbers then reflect optimized logic rather than frontend verbosity.
pub fn optimize_with(module: &mut Module, config: &PassConfig) -> OptReport {
    let mut span = hc_obs::span("optimize").with("module", module.name());
    let mut report = OptReport {
        nodes_before: module.nodes().len(),
        regs_before: module.regs().len(),
        ..OptReport::default()
    };
    if config.any() {
        loop {
            let before = module.nodes().len();
            if config.const_fold {
                const_fold(module);
            }
            if config.strength {
                strength_reduce(module);
            }
            if config.cse {
                cse(module);
            }
            if config.dce {
                dce(module);
            }
            report.iterations += 1;
            if module.nodes().len() >= before {
                break;
            }
        }
    }
    report.nodes_after = module.nodes().len();
    report.regs_after = module.regs().len();
    span.attach("nodes_before", report.nodes_before);
    span.attach("nodes_after", report.nodes_after);
    span.attach("iterations", report.iterations);
    hc_obs::metrics::counter("ir.optimize_runs").inc();
    hc_obs::metrics::counter("ir.nodes_removed")
        .add(report.nodes_before.saturating_sub(report.nodes_after) as u64);
    report
}

/// Runs the standard pass pipeline: every pass ([`PassConfig::all`]).
pub fn optimize(module: &mut Module) -> OptReport {
    optimize_with(module, &PassConfig::all())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinaryOp, Node};
    use hc_bits::Bits;

    #[test]
    fn optimize_shrinks_redundant_logic() {
        let mut m = Module::new("t");
        let a = m.input("a", 8);
        let c1 = m.const_u(8, 3);
        let c2 = m.const_u(8, 4);
        let k = m.binary(BinaryOp::Add, c1, c2, 8); // folds to 7
        let s1 = m.binary(BinaryOp::Add, a, k, 8);
        let s2 = m.binary(BinaryOp::Add, a, k, 8); // CSE with s1
        let y = m.binary(BinaryOp::Xor, s1, s2, 8); // x ^ x folds to 0
        m.output("y", y);
        let before = m.nodes().len();
        let report = optimize(&mut m);
        assert!(m.nodes().len() < before);
        assert!(report.changed());
        assert_eq!(report.nodes_after, m.nodes().len());
        m.validate().unwrap();
    }

    #[test]
    fn optimize_is_idempotent() {
        let mut m = Module::new("t");
        let a = m.input("a", 8);
        let b = m.input("b", 8);
        let cat = m.concat(a, b);
        let hi = m.slice(cat, 8, 8);
        let s1 = m.binary(BinaryOp::Add, hi, b, 8);
        let s2 = m.binary(BinaryOp::Add, b, hi, 8); // commutative duplicate
        let y = m.binary(BinaryOp::Or, s1, s2, 8);
        m.output("y", y);
        optimize(&mut m);
        let nodes: Vec<_> = m.nodes().iter().map(|nd| nd.node.clone()).collect();
        let second = optimize(&mut m);
        assert!(!second.changed(), "second run must be a no-op: {second:?}");
        assert_eq!(second.iterations, 1);
        let nodes2: Vec<_> = m.nodes().iter().map(|nd| nd.node.clone()).collect();
        assert_eq!(nodes, nodes2, "second run must not reorder nodes");
    }

    /// Constant logic, a register, then input `a` declared after it; `y`
    /// reads `a` only when `use_a` is set.
    fn late_input(use_a: bool) -> Module {
        let mut m = Module::new("t");
        let c1 = m.const_u(8, 3);
        let c2 = m.const_u(8, 4);
        let k = m.binary(BinaryOp::Add, c1, c2, 8);
        let r = m.reg("r", 8, Bits::zero(8));
        let q = m.reg_out(r);
        let s = m.binary(BinaryOp::Add, q, k, 8);
        let a = m.input("a", 8);
        let y = if use_a {
            m.binary(BinaryOp::Xor, s, a, 8)
        } else {
            s
        };
        m.connect_reg(r, y);
        m.output("y", y);
        m
    }

    #[test]
    fn late_input_port_names_its_input_node_after_optimize() {
        let mut m = late_input(true);
        optimize(&mut m);
        m.validate().unwrap();
        assert_eq!(m.node(m.inputs()[0].node).node, Node::Input(0));
    }

    #[test]
    fn unused_late_input_survives_optimize() {
        let mut m = late_input(false);
        optimize(&mut m);
        m.validate().unwrap();
        assert_eq!(m.inputs().len(), 1);
        assert_eq!(m.node(m.inputs()[0].node).node, Node::Input(0));
        let input_nodes = m
            .nodes()
            .iter()
            .filter(|nd| matches!(nd.node, Node::Input(_)))
            .count();
        assert_eq!(input_nodes, 1);
    }

    #[test]
    fn disabled_config_is_a_no_op() {
        let mut m = Module::new("t");
        let a = m.input("a", 8);
        let z = m.const_u(8, 0);
        let s = m.binary(BinaryOp::Add, a, z, 8);
        m.output("y", s);
        let before = m.nodes().len();
        let report = optimize_with(&mut m, &PassConfig::none());
        assert_eq!(m.nodes().len(), before);
        assert!(!report.changed());
        assert_eq!(report.iterations, 0);
    }
}
