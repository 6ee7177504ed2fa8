//! Simulator execution profiling, behind the cheap `HC_PROFILE=1` gate.
//!
//! When profiling is enabled ([`hc_obs::Config::profile`], read once at
//! engine construction) the compiled engines keep two histograms:
//!
//! * **per-opcode execution counts** — how many times each tape opcode ran
//!   over the simulation so far, answering "where do the cycles go" for a
//!   design without a sampling profiler;
//! * **per-part activity counts** — how many times each part (see
//!   `crate::tapeopt`) was actually evaluated, the complement of the scalar
//!   engines' `parts_skipped` figure (a part with high activity is the hot
//!   path; one with zero evals after warmup is gating fuel). The batched
//!   engines re-run whole components, so they count an evaluation for
//!   every part of the component.
//!
//! The accounting pass walks the just-evaluated tape range once more and
//! only classifies opcodes — it never touches the value store — so even
//! with profiling *on* the hot eval loop itself is unchanged. With
//! profiling off (the default) the cost is one `Option` check per eval.

use std::collections::HashMap;

use hc_obs::Json;

use crate::lower::Lowered;

/// Live histograms for one engine instance.
#[derive(Debug, Default)]
pub(crate) struct ProfileState {
    opcodes: HashMap<&'static str, u64>,
    part_evals: Vec<u64>,
}

impl ProfileState {
    /// Allocated iff the active config enables profiling.
    pub fn from_config(low: &Lowered) -> Option<Box<ProfileState>> {
        hc_obs::config().profile.then(|| {
            Box::new(ProfileState {
                opcodes: HashMap::new(),
                part_evals: vec![0; low.parts.len()],
            })
        })
    }

    /// Accounts one evaluation of `tape[start..end]` as part `part`.
    pub fn record_range(&mut self, low: &Lowered, part: usize, start: usize, end: usize) {
        self.record_part(part);
        self.record_ops(low, start, end);
    }

    /// Accounts one evaluation of component `comp`: every part of it, and
    /// its tape range.
    pub fn record_comp(&mut self, low: &Lowered, comp: usize) {
        let parts = low.comps[comp];
        for k in parts.start..parts.end {
            self.record_part(k as usize);
        }
        let (start, end) = low.comp_range(comp);
        self.record_ops(low, start, end);
    }

    /// Accounts one evaluation of part `part` (the part histogram only;
    /// the native engine pairs this with [`Self::record_ops`] /
    /// [`Self::record_native_ops`] per chunk of the part).
    pub fn record_part(&mut self, part: usize) {
        if let Some(c) = self.part_evals.get_mut(part) {
            *c += 1;
        }
    }

    /// Accounts interpreter execution of `tape[start..end]` in the opcode
    /// histogram, without touching the cone histogram.
    pub fn record_ops(&mut self, low: &Lowered, start: usize, end: usize) {
        for instr in &low.tape[start..end] {
            *self.opcodes.entry(instr.opname()).or_insert(0) += 1;
        }
    }

    /// Accounts `instrs` tape instructions that ran as generated machine
    /// code and never passed through the interpreter dispatch: pooled under
    /// a single `native` pseudo-opcode instead of being re-walked per
    /// opname — re-walking would claim interpreter executions that never
    /// happened.
    pub fn record_native_ops(&mut self, instrs: u64) {
        if instrs > 0 {
            *self.opcodes.entry("native").or_insert(0) += instrs;
        }
    }

    /// Folds the histograms into the process-wide metrics registry under
    /// `<engine>.profile.*`, so `HC_PROFILE=1` runs surface per-opcode
    /// totals in the `perfsnap` metrics dump without any caller plumbing.
    /// Called from the engines' `Drop` impls.
    pub fn flush_to_metrics(&self, engine: &str) {
        for (op, n) in &self.opcodes {
            if *n > 0 {
                hc_obs::metrics::counter_named(&format!("{engine}.profile.op.{op}")).add(*n);
            }
        }
        let evals: u64 = self.part_evals.iter().sum();
        if evals > 0 {
            hc_obs::metrics::counter_named(&format!("{engine}.profile.part_evals")).add(evals);
        }
    }

    pub fn report(&self) -> ProfileReport {
        let mut opcodes: Vec<(&'static str, u64)> = self
            .opcodes
            .iter()
            .map(|(name, count)| (*name, *count))
            .collect();
        // Hottest first; name tiebreak keeps the order deterministic.
        opcodes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        ProfileReport {
            opcodes,
            part_evals: self.part_evals.clone(),
        }
    }
}

/// Snapshot of an engine's execution profile (see module docs). Returned
/// by the engines' `profile_report` accessors; `None` when `HC_PROFILE`
/// was off at construction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileReport {
    /// `(opcode, executions)` pairs, hottest first.
    pub opcodes: Vec<(&'static str, u64)>,
    /// Evaluation count per part.
    pub part_evals: Vec<u64>,
}

impl ProfileReport {
    /// Total instructions executed across all opcodes.
    pub fn total_instrs(&self) -> u64 {
        self.opcodes.iter().map(|(_, n)| n).sum()
    }

    /// Total part evaluations.
    pub fn total_part_evals(&self) -> u64 {
        self.part_evals.iter().sum()
    }

    /// Whether the profile is entirely empty (engine never stepped).
    pub fn is_empty(&self) -> bool {
        self.total_instrs() == 0 && self.total_part_evals() == 0
    }

    /// The histograms as a JSON object: `{"opcodes": {name: count, ...},
    /// "part_evals": [...]}`.
    pub fn to_json(&self) -> Json {
        let opcodes = self.opcodes.iter();
        hc_obs::jobj! {
            "opcodes" => Json::Obj(opcodes.map(|(name, n)| ((*name).to_owned(), Json::from(*n))).collect()),
            "part_evals" => self.part_evals.iter().map(|&n| Json::from(n)).collect::<Vec<_>>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use hc_bits::Bits;
    use hc_rtl::{BinaryOp, Module};

    use crate::CompiledSimulator;

    fn counter(width: u32) -> Module {
        let mut m = Module::new("counter");
        let en = m.input("en", 1);
        let r = m.reg("count", width, Bits::zero(width));
        let q = m.reg_out(r);
        let one = m.const_u(width, 1);
        let next = m.binary(BinaryOp::Add, q, one, width);
        m.connect_reg(r, next);
        m.reg_en(r, en);
        m.output("count", q);
        m
    }

    /// End-to-end `HC_PROFILE` path: an engine built while profiling is
    /// enabled keeps live histograms and its report reflects the work done.
    ///
    /// The override is process-global, so it is derived from the active
    /// snapshot (only the `profile` bit flips) and restored before the test
    /// returns; profiling never changes simulation results, so concurrent
    /// tests that race the window at worst allocate an unused histogram.
    #[test]
    fn profiling_records_opcodes_and_cone_activity() {
        let baseline = (*hc_obs::config()).clone();
        let mut on = baseline.clone();
        on.profile = true;
        hc_obs::config::set_override(on);
        let mut sim = CompiledSimulator::new(counter(8)).unwrap();
        hc_obs::config::set_override(baseline);

        assert!(
            sim.profile_report().is_some(),
            "engine built under HC_PROFILE=1 must carry profiling state"
        );
        assert!(sim.profile_report().unwrap().is_empty());

        sim.set_u64("en", 1);
        sim.run(10);
        let report = sim.profile_report().unwrap();
        assert!(!report.is_empty());
        assert!(report.total_part_evals() >= 10, "{report:?}");
        assert!(report.total_instrs() >= report.total_part_evals());
        // Hottest-first ordering with deterministic ties.
        for pair in report.opcodes.windows(2) {
            assert!(pair[0].1 >= pair[1].1, "{report:?}");
        }
        let json = report.to_json();
        let opcodes = json.get("opcodes").unwrap();
        let (name, count) = report.opcodes[0];
        assert_eq!(
            opcodes.get(name).and_then(hc_obs::Json::as_u64),
            Some(count)
        );
        let parts = json
            .get("part_evals")
            .and_then(hc_obs::Json::as_arr)
            .unwrap();
        assert_eq!(parts.len(), report.part_evals.len());
    }

    /// With profiling off (the default), engines carry no profiling state.
    #[test]
    fn profiling_off_reports_none() {
        let mut sim = CompiledSimulator::new(counter(8)).unwrap();
        sim.set_u64("en", 1);
        sim.run(4);
        if !hc_obs::config().profile {
            assert!(sim.profile_report().is_none());
        }
        assert_eq!(sim.get("count").to_u64(), 4);
    }
}
