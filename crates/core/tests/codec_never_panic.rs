//! Property: no byte string makes the store's module or synthesis-report
//! decoder panic. Store records are outside input (another process, bit
//! rot, a hand-edited segment), so `dec_module` and `dec_synth_report`
//! must answer every one with `Ok` or `Err`.
//!
//! Two generators: arbitrary bytes (mostly truncation and length errors),
//! and single-byte edits and truncations of the valid encodings of the
//! Table II designs' optimized modules and synthesis reports, which reach
//! every table of the decoder and `Module::from_parts` validation.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use hc_core::cache::front_half;
use hc_core::entries::all_tools;
use hc_store::codec::{dec_module, dec_synth_report, enc_module, enc_synth_report};
use hc_store::encode::{Dec, Enc};
use proptest::prelude::*;

/// Which decoder a byte string goes to.
#[derive(Clone, Copy, Debug)]
enum Decoder {
    Module,
    SynthReport,
}

/// Runs the decoder on `bytes`, failing the case, described by `case`,
/// if it panics.
fn decode(decoder: Decoder, bytes: &[u8], case: &dyn std::fmt::Display) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut d = Dec::new(bytes);
        match decoder {
            Decoder::Module => drop(dec_module(&mut d)),
            Decoder::SynthReport => drop(dec_synth_report(&mut d)),
        }
    }));
    assert!(outcome.is_ok(), "{decoder:?} decoder panicked on {case}");
}

/// The valid encodings: each Table II design's optimized module and its
/// default synthesis report.
fn encodings() -> &'static [(Decoder, Vec<u8>)] {
    static ENCODINGS: OnceLock<Vec<(Decoder, Vec<u8>)>> = OnceLock::new();
    ENCODINGS.get_or_init(|| {
        let mut out = Vec::new();
        for tool in all_tools() {
            for design in [tool.initial, tool.optimized] {
                let front = front_half(&design.module);
                let mut e = Enc::new();
                enc_module(&mut e, &front.module);
                out.push((Decoder::Module, e.into_bytes()));
                let mut e = Enc::new();
                enc_synth_report(&mut e, &front.full);
                out.push((Decoder::SynthReport, e.into_bytes()));
            }
        }
        out
    })
}

#[test]
fn the_valid_encodings_decode() {
    for (decoder, bytes) in encodings() {
        let mut d = Dec::new(bytes);
        let ok = match decoder {
            Decoder::Module => dec_module(&mut d).is_ok(),
            Decoder::SynthReport => dec_synth_report(&mut d).is_ok(),
        };
        assert!(ok && d.is_done(), "{decoder:?} round trip");
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        report in any::<bool>(),
    ) {
        let decoder = if report { Decoder::SynthReport } else { Decoder::Module };
        decode(decoder, &bytes, &format_args!("{bytes:?}"));
    }

    #[test]
    fn edited_encodings_never_panic(
        which in any::<usize>(),
        at in any::<usize>(),
        byte in any::<u8>(),
        truncate in any::<bool>(),
    ) {
        let all = encodings();
        let which = which % all.len();
        let (decoder, valid) = &all[which];
        let at = at % valid.len();
        let mut bytes = valid.clone();
        if truncate {
            bytes.truncate(at);
            decode(*decoder, &bytes, &format_args!("encoding {which} cut to {at} bytes"));
        } else {
            bytes[at] = byte;
            decode(*decoder, &bytes, &format_args!("encoding {which} with byte {at} set to {byte}"));
        }
    }
}
