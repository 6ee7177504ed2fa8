//! Recursive-descent parser for the Verilog subset.

use crate::ast::*;
use crate::error::VerilogError;
use crate::lexer::{lex, SpannedTok, Tok};

/// How deep the parser nests parentheses, unary operators, `?:` true arms
/// and statements: it recurses once per level, and a 20 KB run of `(` used
/// to overflow the stack and abort the process. Chains of binary operators,
/// `?:` false arms and `else if` arms are parsed in loops and cost no
/// nesting. A level costs at most 1.4 KB of stack in a release build and
/// 8.5 KB in a debug build (a parenthesis; EXPERIMENTS.md, "Verilog
/// recursion bounds"), so 64 levels take at most 0.55 MB of a 2 MiB thread.
const MAX_NESTING: usize = 64;

/// How tall a syntax tree may grow: an expression, or a statement with the
/// statements and expressions inside it. A chain like `a + a + ...`,
/// `c ? x : c ? x : ...` or `if .. else if ..` is parsed in a loop but
/// nests one level per link, and the elaborator and the tree's drop
/// recurse on that height.
const MAX_HEIGHT: usize = 256;

/// Parses a source file into a [`Design`].
///
/// # Errors
///
/// Returns a [`VerilogError`] with a line number on any lexical or
/// syntactic problem.
pub fn parse(source: &str) -> Result<Design, VerilogError> {
    let mut span = hc_obs::span("parse").with("source_bytes", source.len());
    let toks = lex(source)?;
    span.attach("tokens", toks.len());
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
        height: 0,
    };
    let mut modules = Vec::new();
    while !p.at_eof() {
        modules.push(p.module()?);
    }
    span.attach("modules", modules.len());
    Ok(Design { modules })
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    /// Nesting of the expression or statement being parsed.
    depth: usize,
    /// Height of the expression or statement tree parsed last.
    height: usize,
}

impl Parser {
    /// Runs `f` one nesting level deeper, failing past [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, VerilogError>,
    ) -> Result<T, VerilogError> {
        if self.depth >= MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let result = f(self);
        self.depth -= 1;
        result
    }

    /// Returns `node`, whose tallest child is `below` high, failing when
    /// it would be taller than [`MAX_HEIGHT`].
    fn node<T>(&mut self, below: usize, node: T) -> Result<T, VerilogError> {
        if below >= MAX_HEIGHT {
            return Err(self.err(format!("syntax tree taller than {MAX_HEIGHT} levels")));
        }
        self.height = below + 1;
        Ok(node)
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> VerilogError {
        VerilogError::at(self.line(), msg.into())
    }

    fn at_punct(&self, p: &str) -> bool {
        matches!(self.peek(), Tok::Punct(q) if *q == p)
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.at_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), VerilogError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected {p:?}, found {:?}", self.peek())))
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), VerilogError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword {kw:?}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String, VerilogError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn module(&mut self) -> Result<VModule, VerilogError> {
        let line = self.line();
        self.expect_kw("module")?;
        let name = self.ident()?;
        let mut params = Vec::new();
        if self.eat_punct("#") {
            self.expect_punct("(")?;
            loop {
                self.expect_kw("parameter")?;
                let pname = self.ident()?;
                self.expect_punct("=")?;
                params.push((pname, self.expr()?));
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        let mut ports = Vec::new();
        if self.eat_punct("(") && !self.eat_punct(")") {
            let mut dir = Dir::Input;
            let mut is_reg = false;
            let mut range: Option<(Expr, Expr)> = None;
            loop {
                // Direction/reg/range are sticky across commas.
                if self.eat_kw("input") {
                    dir = Dir::Input;
                    is_reg = false;
                    range = None;
                    self.port_mods(&mut is_reg, &mut range)?;
                } else if self.eat_kw("output") {
                    dir = Dir::Output;
                    is_reg = false;
                    range = None;
                    self.port_mods(&mut is_reg, &mut range)?;
                }
                let pname = self.ident()?;
                ports.push(PortDecl {
                    dir,
                    is_reg,
                    name: pname,
                    range: range.clone(),
                });
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        self.expect_punct(";")?;

        let mut items = Vec::new();
        while !self.eat_kw("endmodule") {
            if self.at_eof() {
                return Err(self.err("missing endmodule"));
            }
            self.item(&mut items, &mut params)?;
        }
        Ok(VModule {
            name,
            params,
            ports,
            items,
            line,
        })
    }

    fn port_mods(
        &mut self,
        is_reg: &mut bool,
        range: &mut Option<(Expr, Expr)>,
    ) -> Result<(), VerilogError> {
        if self.eat_kw("reg") {
            *is_reg = true;
        }
        self.eat_kw("signed"); // subset: everything is signed
        if self.at_punct("[") {
            *range = Some(self.range()?);
        }
        Ok(())
    }

    fn range(&mut self) -> Result<(Expr, Expr), VerilogError> {
        self.expect_punct("[")?;
        let msb = self.expr()?;
        self.expect_punct(":")?;
        let lsb = self.expr()?;
        self.expect_punct("]")?;
        Ok((msb, lsb))
    }

    fn item(
        &mut self,
        items: &mut Vec<Item>,
        params: &mut Vec<(String, Expr)>,
    ) -> Result<(), VerilogError> {
        let line = self.line();
        if self.eat_kw("parameter") || self.eat_kw("localparam") {
            loop {
                let name = self.ident()?;
                self.expect_punct("=")?;
                params.push((name, self.expr()?));
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(";")?;
            return Ok(());
        }
        if self.at_kw("wire") || self.at_kw("reg") {
            let is_reg = self.eat_kw("reg");
            if !is_reg {
                self.expect_kw("wire")?;
            }
            self.eat_kw("signed");
            let range = if self.at_punct("[") {
                Some(self.range()?)
            } else {
                None
            };
            loop {
                let name = self.ident()?;
                items.push(Item::Net {
                    is_reg,
                    name,
                    range: range.clone(),
                    line,
                });
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(";")?;
            return Ok(());
        }
        if self.eat_kw("assign") {
            let lhs = self.ident()?;
            self.expect_punct("=")?;
            let rhs = self.expr()?;
            self.expect_punct(";")?;
            items.push(Item::Assign { lhs, rhs, line });
            return Ok(());
        }
        if self.eat_kw("always") {
            if self.eat_punct("@*") {
                let body = self.stmt()?;
                items.push(Item::Always {
                    clocked: false,
                    body,
                    line,
                });
                return Ok(());
            }
            self.expect_punct("@")?;
            let clocked = if self.eat_punct("*") {
                false
            } else {
                self.expect_punct("(")?;
                let clocked = if self.eat_punct("*") {
                    false
                } else {
                    self.expect_kw("posedge")?;
                    let clk = self.ident()?;
                    if clk != "clk" {
                        return Err(self.err("subset: the clock must be named 'clk'"));
                    }
                    true
                };
                self.expect_punct(")")?;
                clocked
            };
            let body = self.stmt()?;
            items.push(Item::Always {
                clocked,
                body,
                line,
            });
            return Ok(());
        }
        // Otherwise: an instantiation `Type #(...) name (.p(e), ...);`
        let module = self.ident()?;
        let mut overrides = Vec::new();
        if self.eat_punct("#") {
            self.expect_punct("(")?;
            loop {
                self.expect_punct(".")?;
                let pname = self.ident()?;
                self.expect_punct("(")?;
                overrides.push((pname, self.expr()?));
                self.expect_punct(")")?;
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        let name = self.ident()?;
        self.expect_punct("(")?;
        let mut connections = Vec::new();
        if !self.eat_punct(")") {
            loop {
                self.expect_punct(".")?;
                let pname = self.ident()?;
                self.expect_punct("(")?;
                connections.push((pname, self.expr()?));
                self.expect_punct(")")?;
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        self.expect_punct(";")?;
        items.push(Item::Instance {
            module,
            name,
            params: overrides,
            connections,
            line,
        });
        Ok(())
    }

    fn stmt(&mut self) -> Result<Stmt, VerilogError> {
        self.nested(Self::stmt_inner)
    }

    fn stmt_inner(&mut self) -> Result<Stmt, VerilogError> {
        let line = self.line();
        if self.eat_kw("begin") {
            let mut stmts = Vec::new();
            let mut below = 0;
            while !self.eat_kw("end") {
                if self.at_eof() {
                    return Err(self.err("missing end"));
                }
                stmts.push(self.stmt()?);
                below = below.max(self.height);
            }
            return self.node(below, Stmt::Block(stmts));
        }
        if self.at_kw("if") {
            return self.if_chain();
        }
        if self.eat_kw("case") {
            self.expect_punct("(")?;
            let subject = self.expr()?;
            let mut below = self.height;
            self.expect_punct(")")?;
            let mut arms = Vec::new();
            let mut default = None;
            while !self.eat_kw("endcase") {
                if self.at_eof() {
                    return Err(self.err("missing endcase"));
                }
                if self.eat_kw("default") {
                    self.expect_punct(":")?;
                    default = Some(Box::new(self.stmt()?));
                    below = below.max(self.height);
                    continue;
                }
                let mut labels = vec![self.expr()?];
                below = below.max(self.height);
                while self.eat_punct(",") {
                    labels.push(self.expr()?);
                    below = below.max(self.height);
                }
                self.expect_punct(":")?;
                arms.push((labels, self.stmt()?));
                below = below.max(self.height);
            }
            return self.node(
                below,
                Stmt::Case {
                    subject,
                    arms,
                    default,
                },
            );
        }
        // Assignment.
        let lhs = self.ident()?;
        let blocking = if self.eat_punct("<=") {
            false
        } else {
            self.expect_punct("=")?;
            true
        };
        let rhs = self.expr()?;
        let below = self.height;
        self.expect_punct(";")?;
        self.node(
            below,
            Stmt::Assign {
                lhs,
                rhs,
                blocking,
                line,
            },
        )
    }

    /// Parses `if (c) s else if (c) s ... [else s]` in a loop, so an arm
    /// costs no nesting, and folds the arms right to left into nested
    /// [`Stmt::If`]s.
    fn if_chain(&mut self) -> Result<Stmt, VerilogError> {
        let mut arms = Vec::new();
        let mut last = None;
        while self.eat_kw("if") {
            self.expect_punct("(")?;
            let cond = self.expr()?;
            let below = self.height;
            self.expect_punct(")")?;
            let then = self.stmt()?;
            arms.push((cond, then, below.max(self.height)));
            if !self.eat_kw("else") {
                break;
            }
            if !self.at_kw("if") {
                last = Some((self.stmt()?, self.height));
                break;
            }
        }
        let (mut else_, mut height) = match last {
            Some((stmt, height)) => (Some(Box::new(stmt)), height),
            None => (None, 0),
        };
        for (cond, then, below) in arms.into_iter().rev() {
            let then = Box::new(then);
            let stmt = self.node(below.max(height), Stmt::If { cond, then, else_ })?;
            height = self.height;
            else_ = Some(Box::new(stmt));
        }
        Ok(*else_.expect("an if chain has an arm"))
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    pub(crate) fn expr(&mut self) -> Result<Expr, VerilogError> {
        self.nested(Self::ternary)
    }

    /// Parses `c ? t : c ? t : ... : f` in a loop, so a false arm costs no
    /// nesting, and folds the arms right to left into nested
    /// [`Expr::Ternary`]s.
    fn ternary(&mut self) -> Result<Expr, VerilogError> {
        let mut cond = self.binary(0)?;
        let mut height = self.height;
        let mut arms = Vec::new();
        while self.eat_punct("?") {
            let t = self.expr()?;
            arms.push((cond, t, height.max(self.height)));
            self.expect_punct(":")?;
            cond = self.binary(0)?;
            height = self.height;
        }
        // `cond` is the last false arm.
        let mut tree = cond;
        for (cond, t, below) in arms.into_iter().rev() {
            let node = Expr::Ternary(Box::new(cond), Box::new(t), Box::new(tree));
            tree = self.node(below.max(height), node)?;
            height = self.height;
        }
        Ok(tree)
    }

    /// The binary operator at the cursor and its precedence level, 0
    /// binding loosest.
    fn binop(&self) -> Option<(BinOp, usize)> {
        const TABLE: &[&[(&str, BinOp)]] = &[
            &[("||", BinOp::LogicOr)],
            &[("&&", BinOp::LogicAnd)],
            &[("|", BinOp::Or)],
            &[("^", BinOp::Xor)],
            &[("&", BinOp::And)],
            &[("==", BinOp::Eq), ("!=", BinOp::Ne)],
            &[
                ("<=", BinOp::Le),
                (">=", BinOp::Ge),
                ("<", BinOp::Lt),
                (">", BinOp::Gt),
            ],
            &[
                (">>>", BinOp::AShr),
                ("<<<", BinOp::Shl), // arithmetic and logical left shifts agree
                ("<<", BinOp::Shl),
                (">>", BinOp::Shr),
            ],
            &[("+", BinOp::Add), ("-", BinOp::Sub)],
            &[("*", BinOp::Mul)],
        ];
        TABLE.iter().enumerate().find_map(|(level, ops)| {
            ops.iter()
                .find(|(p, _)| self.at_punct(p))
                .map(|&(_, op)| (op, level))
        })
    }

    /// Parses a left-associative chain of operators at `min_level` or
    /// tighter (precedence climbing): it recurses only where a tighter
    /// operator follows, so a parenthesis costs one frame here, not one per
    /// precedence level.
    fn binary(&mut self, min_level: usize) -> Result<Expr, VerilogError> {
        let mut lhs = self.unary()?;
        while let Some((op, level)) = self.binop().filter(|&(_, level)| level >= min_level) {
            self.bump();
            let below = self.height;
            let rhs = self.binary(level + 1)?;
            let below = below.max(self.height);
            lhs = self.node(below, Expr::Binary(op, Box::new(lhs), Box::new(rhs)))?;
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, VerilogError> {
        for (p, op) in [
            ("-", UnOp::Neg),
            ("~", UnOp::Not),
            ("!", UnOp::LogicNot),
            ("|", UnOp::RedOr),
            ("&", UnOp::RedAnd),
            ("^", UnOp::RedXor),
        ] {
            if self.at_punct(p) {
                self.bump();
                let operand = self.nested(Self::unary)?;
                let below = self.height;
                return self.node(below, Expr::Unary(op, Box::new(operand)));
            }
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, VerilogError> {
        match self.bump() {
            Tok::Number { value, width } => {
                self.height = 1;
                Ok(Expr::Literal { value, width })
            }
            Tok::Ident(name) => {
                if self.eat_punct("[") {
                    let first = self.expr()?;
                    let below = self.height;
                    if self.eat_punct(":") {
                        let lsb = self.expr()?;
                        let below = below.max(self.height);
                        self.expect_punct("]")?;
                        self.node(below, Expr::Part(name, Box::new(first), Box::new(lsb)))
                    } else {
                        self.expect_punct("]")?;
                        self.node(below, Expr::Bit(name, Box::new(first)))
                    }
                } else {
                    self.height = 1;
                    Ok(Expr::Ident(name))
                }
            }
            Tok::Punct("(") => {
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Tok::Punct("{") => {
                let first = self.expr()?;
                let mut below = self.height;
                if self.eat_punct("{") {
                    // Replication: {count{value}}.
                    let value = self.expr()?;
                    let below = below.max(self.height);
                    self.expect_punct("}")?;
                    self.expect_punct("}")?;
                    return self.node(below, Expr::Repl(Box::new(first), Box::new(value)));
                }
                let mut parts = vec![first];
                while self.eat_punct(",") {
                    parts.push(self.expr()?);
                    below = below.max(self.height);
                }
                self.expect_punct("}")?;
                self.node(below, Expr::Concat(parts))
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_small_module() {
        let d = parse(
            "module m #(parameter W = 8) (input [W-1:0] a, b, output [W-1:0] y);
               assign y = a + b;
             endmodule",
        )
        .unwrap();
        let m = d.module("m").unwrap();
        assert_eq!(m.ports.len(), 3);
        assert_eq!(m.ports[1].name, "b");
        assert_eq!(m.ports[1].dir, Dir::Input);
        assert_eq!(m.ports[2].dir, Dir::Output);
        assert_eq!(m.params.len(), 1);
        assert_eq!(m.items.len(), 1);
    }

    #[test]
    fn parses_always_blocks() {
        let d = parse(
            "module m (input clk, input d, output reg q);
               always @(posedge clk) begin
                 if (d) q <= 1'b1; else q <= 1'b0;
               end
             endmodule",
        )
        .unwrap();
        let m = d.module("m").unwrap();
        assert!(matches!(m.items[0], Item::Always { clocked: true, .. }));
    }

    #[test]
    fn parses_case_and_concat() {
        let d = parse(
            "module m (input [1:0] s, input [3:0] a, output reg [7:0] y);
               always @* begin
                 case (s)
                   2'd0: y = {a, a};
                   2'd1, 2'd2: y = {4'd0, a};
                   default: y = 8'd0;
                 endcase
               end
             endmodule",
        )
        .unwrap();
        match &d.module("m").unwrap().items[0] {
            Item::Always {
                body: Stmt::Block(stmts),
                ..
            } => match &stmts[0] {
                Stmt::Case { arms, default, .. } => {
                    assert_eq!(arms.len(), 2);
                    assert_eq!(arms[1].0.len(), 2);
                    assert!(default.is_some());
                }
                other => panic!("expected case, got {other:?}"),
            },
            other => panic!("expected always, got {other:?}"),
        }
    }

    #[test]
    fn parses_instances_with_overrides() {
        let d = parse(
            "module top (input [7:0] a, output [7:0] y);
               wire [7:0] t;
               adder #(.W(8)) u0 (.a(a), .b(8'd1), .y(t));
               adder u1 (.a(t), .b(a), .y(y));
             endmodule",
        )
        .unwrap();
        let m = d.module("top").unwrap();
        let inst_count = m
            .items
            .iter()
            .filter(|i| matches!(i, Item::Instance { .. }))
            .count();
        assert_eq!(inst_count, 2);
    }

    #[test]
    fn precedence_shift_binds_tighter_than_compare() {
        let d =
            parse("module m (input [7:0] a, output y); assign y = a >> 2 < a; endmodule").unwrap();
        match &d.module("m").unwrap().items[0] {
            Item::Assign {
                rhs: Expr::Binary(BinOp::Lt, ..),
                ..
            } => {}
            other => panic!("{other:?}"),
        }
    }

    /// Each of these used to overflow the parser's (or the tree drop's)
    /// stack and abort the process. The test runs on a 2 MiB stack, the
    /// default for hc-serve's connection threads, to pin that the bounds
    /// fit one.
    #[test]
    fn hostile_nesting_is_an_error() {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(hostile_nesting_cases)
            .unwrap()
            .join()
            .unwrap_or_else(|e| std::panic::resume_unwind(e));
    }

    fn hostile_nesting_cases() {
        let wrap = |body: String| format!("module t (input a, output reg y); {body} endmodule");
        for (src, needle) in [
            (
                wrap(format!(
                    "assign y = {}a{};",
                    "(".repeat(20_000),
                    ")".repeat(20_000)
                )),
                "nesting deeper than 64 levels",
            ),
            (
                wrap(format!("assign y = {}a;", "~".repeat(20_000))),
                "nesting deeper than 64 levels",
            ),
            (
                wrap(format!("assign y = a{};", "+a".repeat(20_000))),
                "syntax tree taller than 256 levels",
            ),
            (
                wrap(format!("assign y = {}a;", "a ? a : ".repeat(20_000))),
                "syntax tree taller than 256 levels",
            ),
            (
                wrap(format!(
                    "always @* {} y = a; {}",
                    "begin ".repeat(20_000),
                    "end ".repeat(20_000)
                )),
                "nesting deeper than 64 levels",
            ),
            (
                wrap(format!("always @* {} y = a;", "if (a) ".repeat(20_000))),
                "nesting deeper than 64 levels",
            ),
            (
                wrap(format!(
                    "always @* if (a) y = a; {} else y = a;",
                    "else if (a) y = a; ".repeat(20_000)
                )),
                "syntax tree taller than 256 levels",
            ),
        ] {
            let err = parse(&src).expect_err("hostile nesting parses");
            assert!(err.to_string().contains(needle), "{err}");
        }
        // The limits leave room: 63 nested parentheses, a 255-operator
        // chain, a 255-arm `?:` chain and a 250-arm `else if` chain parse.
        parse(&wrap(format!(
            "assign y = {}a{};",
            "(".repeat(63),
            ")".repeat(63)
        )))
        .unwrap();
        parse(&wrap(format!("assign y = a{};", "+a".repeat(255)))).unwrap();
        parse(&wrap(format!("assign y = {}a;", "a ? a : ".repeat(255)))).unwrap();
        parse(&wrap(format!(
            "always @* if (a) y = a; {} else y = a;",
            "else if (a) y = a; ".repeat(250)
        )))
        .unwrap();
    }

    #[test]
    fn chains_fold_right_to_left() {
        let d = parse(
            "module m (input a, input b, output reg y, output z);
               assign z = a ? 1'd0 : b ? 1'd1 : a;
               always @* if (a) y = 1'd0; else if (b) y = 1'd1; else y = a;
             endmodule",
        )
        .unwrap();
        let items = &d.module("m").unwrap().items;
        let Item::Assign {
            rhs: Expr::Ternary(c, _, f),
            ..
        } = &items[0]
        else {
            panic!("{:?}", items[0]);
        };
        assert!(
            matches!((&**c, &**f), (Expr::Ident(a), Expr::Ternary(b, ..))
            if a == "a" && matches!(&**b, Expr::Ident(b) if b == "b"))
        );
        let Item::Always {
            body: Stmt::If { cond, else_, .. },
            ..
        } = &items[1]
        else {
            panic!("{:?}", items[1]);
        };
        assert!(matches!(cond, Expr::Ident(a) if a == "a"));
        let Some(else_) = else_ else {
            panic!("else arm dropped")
        };
        let Stmt::If { cond, else_, .. } = &**else_ else {
            panic!("{else_:?}");
        };
        assert!(matches!(cond, Expr::Ident(b) if b == "b"));
        assert!(matches!(else_.as_deref(), Some(Stmt::Assign { .. })));
    }

    #[test]
    fn error_has_line_number() {
        let err = parse("module m (input a);\n  assign = 1;\nendmodule").unwrap_err();
        assert_eq!(err.line(), Some(2));
    }
}
