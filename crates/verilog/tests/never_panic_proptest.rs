//! Property: no source text makes the frontend panic. Sources go through
//! `parse` and `elaborate`; whatever elaborates must also pass the pass
//! pipeline and synthesis, which is what `POST /v1/synth` runs on inline
//! Verilog.
//!
//! Three generators: raw token soups (mostly lexer and parser errors),
//! modules built from the subset's expression grammar with literals,
//! ranges and selects at and past the width limits (they reach the
//! elaborator), and those modules with a few tokens deleted, repeated or
//! replaced.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hc_rtl::passes::optimize;
use hc_synth::{synthesize, Device, SynthOptions};
use hc_verilog::{elaborate, parse};
use proptest::prelude::*;

/// Keywords, names, literals and every punctuation mark of the subset,
/// separated by blanks.
const TOKENS: &str = "module endmodule input output wire reg signed parameter localparam
    assign always posedge begin end if else case endcase default a b y t clk N
    0 1 7 8 64 4095 4096 4294967295 9223372036854775807 0'd1 1'b1 8'hff 12'sd5
    5000'd1 4097'd0 ( ) [ ] { } ; , : = <= >= == != < > + - * << >> >>> <<< ? .
    # @ @* ~ ! & | ^ && ||";

/// Numbers around the width limit (4096), the `u32` range and `i64`.
const NUMBERS: &str = "0 1 2 7 8 63 64 70 100 4095 4096 4097 1000000 4294967295 4294967296
    9223372036854775807";

/// Sized literals, valid and not.
const LITERALS: &str = "0'd1 1'b1 8'hff 12'sd5 64'd1 4096'd0 4097'd0 5000'd1";

const UNARY: &str = "- ~ ! & | ^";
const BINARY: &str = "+ - * << >> >>> & | ^ == != < <= && ||";
const CONST_BINARY: &str = "+ - * << >> & | ^";

/// Draws grammar choices from a fixed list of random picks (0 once they
/// run out, which always selects a leaf).
struct Gen<'a> {
    picks: std::slice::Iter<'a, u16>,
}

impl Gen<'_> {
    fn pick(&mut self, n: usize) -> usize {
        self.picks.next().map_or(0, |&p| usize::from(p) % n)
    }

    /// One of the blank-separated words of `from`.
    fn one(&mut self, from: &'static str) -> &'static str {
        let words: Vec<&str> = from.split_whitespace().collect();
        words[self.pick(words.len())]
    }

    /// A constant expression: a number, the parameter, or arithmetic on
    /// them.
    fn constant(&mut self, depth: usize) -> String {
        match if depth == 0 { 0 } else { self.pick(4) } {
            0 => self.one(NUMBERS).to_owned(),
            1 => "N".to_owned(),
            2 => format!(
                "( {} {} {} )",
                self.constant(depth - 1),
                self.one(CONST_BINARY),
                self.constant(depth - 1)
            ),
            _ => format!("- {}", self.constant(depth - 1)),
        }
    }

    fn expr(&mut self, depth: usize) -> String {
        let name = |g: &mut Self| g.one("a b N");
        match if depth == 0 {
            self.pick(3)
        } else {
            self.pick(11)
        } {
            0 => name(self).to_owned(),
            1 => self.one(NUMBERS).to_owned(),
            2 => self.one(LITERALS).to_owned(),
            3 => format!("{} [ {} ]", name(self), self.constant(2)),
            4 => format!(
                "{} [ {} : {} ]",
                name(self),
                self.constant(2),
                self.constant(2)
            ),
            5 => format!("{} ( {} )", self.one(UNARY), self.expr(depth - 1)),
            6 => format!(
                "( {} {} {} )",
                self.expr(depth - 1),
                self.one(BINARY),
                self.expr(depth - 1)
            ),
            7 => format!(
                "( {} ? {} : {} )",
                self.expr(depth - 1),
                self.expr(depth - 1),
                self.expr(depth - 1)
            ),
            8 => format!("{{ {} , {} }}", self.expr(depth - 1), self.expr(depth - 1)),
            9 => format!("{{ {} {{ {} }} }}", self.constant(1), self.expr(depth - 1)),
            _ => format!("a [ {} ]", self.expr(depth - 1)),
        }
    }

    /// A one-module source: soups of the grammar in the parameter, the
    /// port ranges and the right-hand side.
    fn module(&mut self) -> String {
        format!(
            "module t # ( parameter N = {} ) ( input clk , input [ {} : 0 ] a , \
             input [ 7 : 0 ] b , output [ {} : 0 ] y ) ; \
             reg [ 7 : 0 ] r ; always @ ( posedge clk ) r <= {} ; \
             assign y = {} ; endmodule",
            self.constant(2),
            self.constant(2),
            self.constant(1),
            self.expr(2),
            self.expr(4),
        )
    }
}

fn tokens() -> Vec<&'static str> {
    TOKENS.split_whitespace().collect()
}

fn soup(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    let tokens = tokens();
    proptest::collection::vec(0..tokens.len(), len).prop_map(move |picks| {
        let soup: Vec<&str> = picks.iter().map(|&i| tokens[i]).collect();
        soup.join(" ")
    })
}

fn module() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u16>(), 0..96).prop_map(|picks| {
        Gen {
            picks: picks.iter(),
        }
        .module()
    })
}

/// A generated module with up to four token edits: delete, repeat, or
/// replace with a token of [`TOKENS`].
fn edited_module() -> impl Strategy<Value = String> {
    let tokens = tokens();
    (
        module(),
        proptest::collection::vec((0u8..3, any::<usize>(), 0..tokens.len()), 1..5),
    )
        .prop_map(move |(src, edits)| {
            let mut toks: Vec<&str> = src.split_whitespace().collect();
            for (kind, at, with) in edits {
                let at = at % toks.len();
                match kind {
                    0 => {
                        toks.remove(at);
                    }
                    1 => toks.insert(at, toks[at]),
                    _ => toks[at] = tokens[with],
                }
            }
            toks.join(" ")
        })
}

/// Runs the frontend and, on success, the front half over `src`; returns
/// whether anything panicked.
fn panics(src: &str) -> bool {
    catch_unwind(AssertUnwindSafe(|| {
        let Ok(design) = parse(src) else { return };
        for vmod in &design.modules {
            if let Ok(mut module) = elaborate(&design, &vmod.name) {
                optimize(&mut module);
                let device = Device::xcvu9p();
                synthesize(&module, &device, &SynthOptions::default());
                synthesize(&module, &device, &SynthOptions::no_dsp());
            }
        }
    }))
    .is_err()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn token_soup_never_panics(src in soup(1..64)) {
        prop_assert!(!panics(&src), "panicked on {src:?}");
    }

    #[test]
    fn generated_modules_never_panic(src in module()) {
        prop_assert!(!panics(&src), "panicked on {src:?}");
    }

    #[test]
    fn edited_modules_never_panic(src in edited_module()) {
        prop_assert!(!panics(&src), "panicked on {src:?}");
    }
}
