//! Probes must survive optimization.
//!
//! `ProbeRecorder` resolves signals by port and register *name*, so a
//! probe set is meaningful across the IR pass pipeline (which rewrites
//! node identities) and the tape backend optimizer (which reshuffles
//! value slots and fuses instructions). This suite pins the resulting
//! guarantee: for every Table II design, recording the same named probes
//! under identical stimulus produces **byte-identical VCD streams** on the
//! optimized tape engine and on the interpreter oracle running the raw
//! netlist. A divergence means an optimizer changed an architecturally
//! visible value — exactly the class of bug waveform probes exist to
//! catch.

use hls_vs_hc::bits::Bits;
use hls_vs_hc::core::entries::all_tools;
use hls_vs_hc::rtl::passes::optimize;
use hls_vs_hc::rtl::Module;
use hls_vs_hc::sim::{CompiledSimulator, ProbeRecorder, SimBackend, Simulator};

/// Deterministic per-(cycle, port, word) stimulus chunk.
fn stim_word(cycle: u64, port: u64, word: u64) -> u64 {
    let mut x = cycle
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(port.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(word.wrapping_mul(0x94d0_49bb_1331_11eb));
    x ^= x >> 31;
    x.wrapping_mul(0xd6e8_feb8_6659_fd93)
}

/// Runs `module` on engine `B` for `cycles` cycles of dense deterministic
/// stimulus, recording `names` into a VCD byte stream.
fn probe_dump<B: SimBackend>(module: Module, names: &[String], cycles: u64) -> Vec<u8> {
    let mut sim = B::from_module(module).expect("validates");
    let mut buf = Vec::new();
    let mut probe = ProbeRecorder::with_signals(&sim, &mut buf, names).expect("signals resolve");
    let inputs: Vec<(String, u32)> = sim
        .module()
        .inputs()
        .iter()
        .map(|p| (p.name.clone(), p.width))
        .collect();
    for cycle in 0..cycles {
        for (pi, (name, width)) in inputs.iter().enumerate() {
            let mut value = Bits::zero(*width);
            for w in (0..*width).step_by(48) {
                let chunk = (*width - w).min(48);
                value.deposit_u64(w, chunk, stim_word(cycle, pi as u64, u64::from(w)));
            }
            sim.set(name, value);
        }
        probe.sample(&mut sim).expect("in-memory VCD write");
        sim.step();
    }
    buf
}

/// The probe set for one design: every port of `module`, plus every
/// register that exists in both `module` and `other` (dead-code
/// elimination may legitimately remove an architecturally dead register,
/// so only the shared ones can be compared).
fn shared_probes(module: &Module, other: &Module) -> Vec<String> {
    let mut names: Vec<String> = module
        .inputs()
        .iter()
        .map(|p| p.name.clone())
        .chain(module.outputs().iter().map(|o| o.name.clone()))
        .collect();
    names.extend(
        module
            .regs()
            .iter()
            .filter(|r| other.regs().iter().any(|o| o.name == r.name))
            .map(|r| r.name.clone()),
    );
    names
}

#[test]
fn probes_survive_pass_pipeline_and_tape_optimizer() {
    for tool in all_tools() {
        for design in [&tool.initial, &tool.optimized] {
            let mut optimized = design.module.clone();
            optimize(&mut optimized);
            let names = shared_probes(&design.module, &optimized);
            assert!(
                names.len() >= 2,
                "{}: expected at least two probeable signals",
                design.label
            );
            let dump_raw = probe_dump::<Simulator>(design.module.clone(), &names, 64);
            let dump_opt = probe_dump::<CompiledSimulator>(optimized, &names, 64);
            assert!(
                !dump_raw.is_empty(),
                "{}: probe recorder wrote nothing",
                design.label
            );
            assert_eq!(
                dump_raw, dump_opt,
                "{}: probed waveforms diverge between the raw oracle and the optimized tape",
                design.label
            );
        }
    }
}

/// The tape optimizer alone (no IR passes) must also preserve every
/// probed waveform of the netlist as the frontend emitted it.
#[test]
fn probes_survive_tape_optimizer_alone() {
    for tool in all_tools() {
        let design = &tool.optimized;
        let names = shared_probes(&design.module, &design.module);
        let dump_raw = probe_dump::<Simulator>(design.module.clone(), &names, 48);
        let dump_tape = probe_dump::<CompiledSimulator>(design.module.clone(), &names, 48);
        assert_eq!(
            dump_raw, dump_tape,
            "{}: tape optimizer changed a probed waveform",
            design.label
        );
    }
}
