//! Elaboration: AST → flat `hc-rtl` netlist.
//!
//! Demand-driven: each net's value is computed (and memoized) when first
//! read, which handles arbitrary declaration order and detects
//! combinational cycles. Hierarchy is flattened — instances elaborate
//! recursively into the same [`Module`] with hierarchical register names.

use crate::ast::*;
use crate::error::VerilogError;
use hc_bits::Bits;
use hc_rtl::{BinaryOp, Module, NodeId, RegId, UnaryOp};
// Ordered maps throughout: node/register creation order follows map
// iteration in several places, and the module's structural content hash
// (the persistent store's key) must not vary with a randomized seed.
use std::collections::{BTreeMap, BTreeSet};

/// How deep the elaborator's recursion may go. A net demanding its driver,
/// an expression operand, a statement and an instance each count one
/// level, so a hostile chain of nets or a module instantiating itself fails
/// here instead of overflowing the stack.
///
/// The bound admits any one expression or statement the parser admits (a
/// syntax tree at most 256 levels tall) with 256 more levels for the nets
/// and instances it reaches. A level costs at most 0.9 KB of stack in a
/// release build and 2.4 KB in a debug build (an instance; nets, operands
/// and statements take at most 0.45 and 1.5 KB). The deepest design the
/// bound admits, a chain of instances ending in a constant folded at the
/// parser's full height, takes 0.49 MB (release) and 1.4 MB (debug) of a
/// 2 MiB thread, the default for hc-serve's connection threads and for
/// test threads (EXPERIMENTS.md, "Verilog recursion bounds").
const MAX_DEPTH: usize = 512;

/// Elaborates `top` (and everything it instantiates) into a flat module.
///
/// # Errors
///
/// Reports undriven or multiply-driven nets, combinational cycles, unknown
/// modules/ports, and width/parameter problems, each with a source line
/// where available.
pub fn elaborate(design: &Design, top: &str) -> Result<Module, VerilogError> {
    let mut span = hc_obs::span("elaborate").with("module", top);
    let vmod = design
        .module(top)
        .ok_or_else(|| VerilogError::new(format!("no module named {top:?}")))?;
    let mut m = Module::new(top);

    // Top-level input ports become module inputs.
    let params = resolve_params(design, vmod, &BTreeMap::new())?;
    let mut bindings = BTreeMap::new();
    for port in &vmod.ports {
        if port.dir == Dir::Input {
            if port.name == "clk" {
                continue; // the IR clock is implicit
            }
            let width = range_width(&params, &port.range)?;
            let node = m.input(&port.name, width);
            bindings.insert(port.name.clone(), node);
        }
    }

    let outputs = elaborate_module(design, vmod, params, bindings, String::new(), &mut m, 0)?;
    for port in &vmod.ports {
        if port.dir == Dir::Output {
            let node = outputs
                .get(&port.name)
                .copied()
                .ok_or_else(|| VerilogError::new(format!("output {:?} undriven", port.name)))?;
            m.output(&port.name, node);
        }
    }
    m.validate()
        .map_err(|e| VerilogError::new(format!("invalid netlist: {e}")))?;
    span.attach("nodes", m.nodes().len());
    Ok(m)
}

fn resolve_params(
    _design: &Design,
    vmod: &VModule,
    overrides: &BTreeMap<String, i64>,
) -> Result<BTreeMap<String, i64>, VerilogError> {
    let mut params = BTreeMap::new();
    for (name, default) in &vmod.params {
        let value = match overrides.get(name) {
            Some(&v) => v,
            None => const_eval(&params, default)?,
        };
        params.insert(name.clone(), value);
    }
    Ok(params)
}

fn range_width(
    params: &BTreeMap<String, i64>,
    range: &Option<(Expr, Expr)>,
) -> Result<u32, VerilogError> {
    match range {
        None => Ok(1),
        Some((msb, lsb)) => {
            let msb = const_eval(params, msb)?;
            let lsb = const_eval(params, lsb)?;
            if lsb != 0 || msb < 0 {
                return Err(VerilogError::new(format!(
                    "subset: ranges must be [N:0], got [{msb}:{lsb}]"
                )));
            }
            node_width(i128::from(msb) + 1, || format!("range [{msb}:{lsb}]"))
        }
    }
}

/// `width` as a netlist node width, or an error naming `what` when it lies
/// outside `1..=Bits::MAX_WIDTH`.
fn node_width(width: i128, what: impl FnOnce() -> String) -> Result<u32, VerilogError> {
    u32::try_from(width)
        .ok()
        .filter(|w| (1..=Bits::MAX_WIDTH).contains(w))
        .ok_or_else(|| {
            VerilogError::new(format!(
                "{} is {width} bits wide, outside 1..={}",
                what(),
                Bits::MAX_WIDTH
            ))
        })
}

/// Constant-folds an expression over parameter values only. The recursion
/// runs through here, so the folding and its errors live in helpers and
/// this frame stays small.
pub(crate) fn const_eval(params: &BTreeMap<String, i64>, expr: &Expr) -> Result<i64, VerilogError> {
    match expr {
        Expr::Literal { value, .. } => Ok(*value),
        Expr::Ident(name) => const_param(params, name),
        Expr::Unary(op @ (UnOp::Neg | UnOp::Not), e) => {
            let a = const_eval(params, e)?;
            const_unary(*op, a)
        }
        Expr::Binary(op, a, b) => {
            let a = const_eval(params, a)?;
            let b = const_eval(params, b)?;
            const_binary(*op, a, b)
        }
        other => Err(VerilogError::new(format!(
            "unsupported constant expression {other:?}"
        ))),
    }
}

fn const_param(params: &BTreeMap<String, i64>, name: &str) -> Result<i64, VerilogError> {
    params
        .get(name)
        .copied()
        .ok_or_else(|| VerilogError::new(format!("{name:?} is not a parameter")))
}

fn const_unary(op: UnOp, a: i64) -> Result<i64, VerilogError> {
    match op {
        UnOp::Neg => a
            .checked_neg()
            .ok_or_else(|| VerilogError::new(format!("constant -({a}) overflows"))),
        _ => Ok(!a),
    }
}

fn const_binary(op: BinOp, a: i64, b: i64) -> Result<i64, VerilogError> {
    let shift = u32::try_from(b).ok();
    let value = match op {
        BinOp::Add => a.checked_add(b),
        BinOp::Sub => a.checked_sub(b),
        BinOp::Mul => a.checked_mul(b),
        BinOp::Shl => shift.and_then(|b| a.checked_shl(b)),
        BinOp::Shr | BinOp::AShr => shift.and_then(|b| a.checked_shr(b)),
        BinOp::And => Some(a & b),
        BinOp::Or => Some(a | b),
        BinOp::Xor => Some(a ^ b),
        other => {
            return Err(VerilogError::new(format!(
                "operator {other:?} in constant expression"
            )))
        }
    };
    value.ok_or_else(|| VerilogError::new(format!("constant {a} {op:?} {b} overflows 64 bits")))
}

#[derive(Clone)]
enum Driver<'a> {
    /// Bound from the enclosing scope (input port).
    Input(NodeId),
    /// `assign net = expr`.
    Assign(&'a Expr, u32),
    /// Combinational always block (item index).
    Comb(usize),
    /// Clocked register.
    Ff,
    /// Output of instance (item index).
    Inst(usize),
}

struct ModCtx<'a, 'm> {
    design: &'a Design,
    vmod: &'a VModule,
    m: &'m mut Module,
    prefix: String,
    params: BTreeMap<String, i64>,
    widths: BTreeMap<String, u32>,
    drivers: BTreeMap<String, Driver<'a>>,
    regs: BTreeMap<String, (RegId, NodeId)>,
    values: BTreeMap<String, NodeId>,
    in_progress: BTreeSet<String>,
    /// Instance output maps, memoized by item index.
    inst_outputs: BTreeMap<usize, BTreeMap<String, NodeId>>,
    /// Demand recursion depth, counted from the top module.
    depth: usize,
}

/// Elaborates one module instance; returns its output-port values.
fn elaborate_module(
    design: &Design,
    vmod: &VModule,
    params: BTreeMap<String, i64>,
    input_bindings: BTreeMap<String, NodeId>,
    prefix: String,
    m: &mut Module,
    depth: usize,
) -> Result<BTreeMap<String, NodeId>, VerilogError> {
    let mut ctx = ModCtx {
        design,
        vmod,
        m,
        prefix,
        params,
        widths: BTreeMap::new(),
        drivers: BTreeMap::new(),
        regs: BTreeMap::new(),
        values: BTreeMap::new(),
        in_progress: BTreeSet::new(),
        inst_outputs: BTreeMap::new(),
        depth,
    };
    ctx.collect_nets()?;
    ctx.collect_drivers(&input_bindings)?;
    ctx.create_regs()?;

    // Demand every output port.
    let mut outputs = BTreeMap::new();
    for port in &vmod.ports {
        if port.dir == Dir::Output {
            outputs.insert(port.name.clone(), ctx.net_value(&port.name)?);
        }
    }
    // Connect every clocked register (may demand further nets).
    ctx.connect_clocked()?;
    Ok(outputs)
}

impl<'a, 'm> ModCtx<'a, 'm> {
    fn full_name(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            name.to_owned()
        } else {
            format!("{}.{}", self.prefix, name)
        }
    }

    fn collect_nets(&mut self) -> Result<(), VerilogError> {
        for port in &self.vmod.ports {
            if port.name == "clk" {
                continue;
            }
            let w = range_width(&self.params, &port.range)?;
            self.widths.insert(port.name.clone(), w);
        }
        for item in &self.vmod.items {
            if let Item::Net {
                name, range, line, ..
            } = item
            {
                let w = range_width(&self.params, range)
                    .map_err(|e| VerilogError::at(*line, e.to_string()))?;
                if self.widths.insert(name.clone(), w).is_some() {
                    return Err(VerilogError::at(*line, format!("{name:?} redeclared")));
                }
            }
        }
        Ok(())
    }

    fn set_driver(&mut self, net: &str, driver: Driver<'a>, line: u32) -> Result<(), VerilogError> {
        if !self.widths.contains_key(net) {
            return Err(VerilogError::at(line, format!("{net:?} undeclared")));
        }
        if self.drivers.insert(net.to_owned(), driver).is_some() {
            return Err(VerilogError::at(line, format!("{net:?} multiply driven")));
        }
        Ok(())
    }

    fn collect_drivers(
        &mut self,
        input_bindings: &BTreeMap<String, NodeId>,
    ) -> Result<(), VerilogError> {
        for port in &self.vmod.ports {
            if port.dir == Dir::Input && port.name != "clk" {
                let node = *input_bindings.get(&port.name).ok_or_else(|| {
                    VerilogError::at(
                        self.vmod.line,
                        format!(
                            "instance of {:?} leaves input {:?} unconnected",
                            self.vmod.name, port.name
                        ),
                    )
                })?;
                let w = self.widths[&port.name];
                let node = fit(self.m, node, w);
                self.drivers.insert(port.name.clone(), Driver::Input(node));
            }
        }
        for (idx, item) in self.vmod.items.iter().enumerate() {
            match item {
                Item::Net { .. } => {}
                Item::Assign { lhs, rhs, line } => {
                    let w = *self
                        .widths
                        .get(lhs)
                        .ok_or_else(|| VerilogError::at(*line, format!("{lhs:?} undeclared")))?;
                    self.set_driver(lhs, Driver::Assign(rhs, w), *line)?;
                }
                Item::Always {
                    clocked,
                    body,
                    line,
                } => {
                    let mut assigned = Vec::new();
                    collect_assigned(body, &mut assigned);
                    for net in assigned {
                        let driver = if *clocked {
                            Driver::Ff
                        } else {
                            Driver::Comb(idx)
                        };
                        self.set_driver(&net, driver, *line)?;
                    }
                }
                Item::Instance {
                    module,
                    connections,
                    line,
                    ..
                } => {
                    let sub = self.design.module(module).ok_or_else(|| {
                        VerilogError::at(*line, format!("unknown module {module:?}"))
                    })?;
                    for (port, expr) in connections {
                        let decl = sub.ports.iter().find(|p| p.name == *port).ok_or_else(|| {
                            VerilogError::at(*line, format!("{module} has no port {port:?}"))
                        })?;
                        if decl.dir == Dir::Output {
                            match expr {
                                Expr::Ident(net) => {
                                    self.set_driver(net, Driver::Inst(idx), *line)?;
                                }
                                other => {
                                    return Err(VerilogError::at(
                                        *line,
                                        format!(
                                        "output port {port:?} must connect to a net, got {other:?}"
                                    ),
                                    ))
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn create_regs(&mut self) -> Result<(), VerilogError> {
        let names: Vec<String> = self
            .drivers
            .iter()
            .filter(|(_, d)| matches!(d, Driver::Ff))
            .map(|(n, _)| n.clone())
            .collect();
        for name in names {
            let w = self.widths[&name];
            let full = self.full_name(&name);
            let reg = self.m.reg(full, w, Bits::zero(w));
            let q = self.m.reg_out(reg);
            self.regs.insert(name, (reg, q));
        }
        Ok(())
    }

    fn net_value(&mut self, name: &str) -> Result<NodeId, VerilogError> {
        if let Some(&v) = self.values.get(name) {
            return Ok(v);
        }
        if let Some(&(_, q)) = self.regs.get(name) {
            self.values.insert(name.to_owned(), q);
            return Ok(q);
        }
        if !self.in_progress.insert(name.to_owned()) {
            return Err(VerilogError::new(format!(
                "combinational cycle through {:?}",
                self.full_name(name)
            )));
        }
        let driver = self
            .drivers
            .get(name)
            .cloned()
            .ok_or_else(|| VerilogError::new(format!("{:?} undriven", self.full_name(name))))?;
        self.enter()?;
        let value = self.drive(name, driver);
        self.depth -= 1;
        let value = value?;
        self.in_progress.remove(name);
        self.values.insert(name.to_owned(), value);
        Ok(value)
    }

    /// Evaluates `name`'s driver.
    fn drive(&mut self, name: &str, driver: Driver<'a>) -> Result<NodeId, VerilogError> {
        Ok(match driver {
            Driver::Input(node) => node,
            Driver::Ff => unreachable!("regs resolved above"),
            Driver::Assign(expr, w) => {
                let v = self.expr(expr)?;
                fit(self.m, v, w)
            }
            Driver::Comb(idx) => {
                self.exec_comb(idx)?;
                *self
                    .values
                    .get(name)
                    .expect("comb block assigns every declared driver")
            }
            Driver::Inst(idx) => {
                self.elab_instance(idx)?;
                *self.values.get(name).expect("instance outputs stored")
            }
        })
    }

    /// Executes a combinational always block, storing all assigned nets.
    fn exec_comb(&mut self, idx: usize) -> Result<(), VerilogError> {
        let Item::Always { body, .. } = &self.vmod.items[idx] else {
            unreachable!()
        };
        let mut assigned = Vec::new();
        collect_assigned(body, &mut assigned);
        // Read-before-write in a comb block yields zero (subset rule; no
        // latches).
        let mut env = BTreeMap::new();
        for net in &assigned {
            let w = self.widths[net];
            env.insert(net.clone(), self.m.constant(Bits::zero(w)));
        }
        let body = body.clone();
        let no_reads = BTreeMap::new();
        self.exec_stmt(&body, &mut env, &no_reads)?;
        for net in assigned {
            let w = self.widths[&net];
            let v = fit(self.m, env[&net], w);
            self.values.insert(net, v);
        }
        Ok(())
    }

    /// Elaborates an instance, storing its connected output nets.
    fn elab_instance(&mut self, idx: usize) -> Result<(), VerilogError> {
        if self.inst_outputs.contains_key(&idx) {
            return Ok(());
        }
        let Item::Instance {
            module,
            name,
            params,
            connections,
            line,
        } = &self.vmod.items[idx]
        else {
            unreachable!()
        };
        let sub = self
            .design
            .module(module)
            .ok_or_else(|| VerilogError::at(*line, format!("unknown module {module:?}")))?;
        let mut overrides = BTreeMap::new();
        for (pname, pexpr) in params {
            overrides.insert(pname.clone(), const_eval(&self.params, pexpr)?);
        }
        let sub_params = resolve_params(self.design, sub, &overrides)?;

        let mut bindings = BTreeMap::new();
        for (port, expr) in connections {
            let decl = sub
                .ports
                .iter()
                .find(|p| p.name == *port)
                .expect("checked in collect_drivers");
            if decl.dir == Dir::Input && port != "clk" {
                let v = self.expr(expr)?;
                bindings.insert(port.clone(), v);
            }
        }
        let sub_prefix = self.full_name(name);
        let outputs = elaborate_module(
            self.design,
            sub,
            sub_params,
            bindings,
            sub_prefix,
            self.m,
            self.depth + 1,
        )?;
        // Store connected outputs under the parent nets.
        for (port, expr) in connections {
            let decl = sub.ports.iter().find(|p| p.name == *port).expect("checked");
            if decl.dir == Dir::Output {
                let Expr::Ident(net) = expr else {
                    unreachable!("checked")
                };
                let value = *outputs
                    .get(port)
                    .ok_or_else(|| VerilogError::at(*line, format!("{module}.{port} undriven")))?;
                let w = self.widths[net];
                let v = fit(self.m, value, w);
                self.values.insert(net.clone(), v);
            }
        }
        self.inst_outputs.insert(idx, outputs);
        Ok(())
    }

    /// Connects the next-value of every clocked register.
    fn connect_clocked(&mut self) -> Result<(), VerilogError> {
        for idx in 0..self.vmod.items.len() {
            let Item::Always {
                clocked: true,
                body,
                ..
            } = &self.vmod.items[idx]
            else {
                continue;
            };
            let body = body.clone();
            let mut assigned = Vec::new();
            collect_assigned(&body, &mut assigned);
            let mut env = BTreeMap::new();
            for net in &assigned {
                env.insert(net.clone(), self.regs[net].1);
            }
            // Non-blocking semantics: every read inside the block sees the
            // pre-edge register values.
            let reads = env.clone();
            self.exec_stmt(&body, &mut env, &reads)?;
            for net in assigned {
                let (reg, _) = self.regs[&net];
                let w = self.widths[&net];
                let v = fit(self.m, env[&net], w);
                self.m.connect_reg(reg, v);
            }
        }
        Ok(())
    }

    fn exec_stmt(
        &mut self,
        stmt: &Stmt,
        env: &mut BTreeMap<String, NodeId>,
        reads: &BTreeMap<String, NodeId>,
    ) -> Result<(), VerilogError> {
        self.enter()?;
        let done = self.exec_stmt_node(stmt, env, reads);
        self.depth -= 1;
        done
    }

    /// Executes one statement node. The recursion runs through here, so
    /// each kind of statement has its own helper and this frame stays small.
    fn exec_stmt_node(
        &mut self,
        stmt: &Stmt,
        env: &mut BTreeMap<String, NodeId>,
        reads: &BTreeMap<String, NodeId>,
    ) -> Result<(), VerilogError> {
        match stmt {
            Stmt::Block(stmts) => {
                for s in stmts {
                    self.exec_stmt(s, env, reads)?;
                }
                Ok(())
            }
            Stmt::Assign { lhs, rhs, line, .. } => self.exec_assign(lhs, rhs, *line, env, reads),
            Stmt::If { cond, then, else_ } => {
                self.exec_if(cond, then, else_.as_deref(), env, reads)
            }
            Stmt::Case {
                subject,
                arms,
                default,
            } => self.exec_case(subject, arms, default.as_deref(), env, reads),
        }
    }

    fn exec_assign(
        &mut self,
        lhs: &str,
        rhs: &Expr,
        line: u32,
        env: &mut BTreeMap<String, NodeId>,
        reads: &BTreeMap<String, NodeId>,
    ) -> Result<(), VerilogError> {
        if !env.contains_key(lhs) {
            return Err(VerilogError::at(
                line,
                format!("{lhs:?} not assignable here"),
            ));
        }
        let w = self.widths[lhs];
        let v = self.expr_with_reads(rhs, env, reads)?;
        let v = fit(self.m, v, w);
        env.insert(lhs.to_owned(), v);
        Ok(())
    }

    fn exec_if(
        &mut self,
        cond: &Expr,
        then: &Stmt,
        else_: Option<&Stmt>,
        env: &mut BTreeMap<String, NodeId>,
        reads: &BTreeMap<String, NodeId>,
    ) -> Result<(), VerilogError> {
        let c = self.expr_with_reads(cond, env, reads)?;
        let c = truthy(self.m, c);
        let mut then_env = env.clone();
        self.exec_stmt(then, &mut then_env, reads)?;
        let mut else_env = env.clone();
        if let Some(e) = else_ {
            self.exec_stmt(e, &mut else_env, reads)?;
        }
        merge_env(self.m, c, &then_env, &else_env, env);
        Ok(())
    }

    fn exec_case(
        &mut self,
        subject: &Expr,
        arms: &[(Vec<Expr>, Stmt)],
        default: Option<&Stmt>,
        env: &mut BTreeMap<String, NodeId>,
        reads: &BTreeMap<String, NodeId>,
    ) -> Result<(), VerilogError> {
        let subj = self.expr_with_reads(subject, env, reads)?;
        // Build bottom-up: default first, then arms in reverse.
        let mut result_env = env.clone();
        if let Some(d) = default {
            self.exec_stmt(d, &mut result_env, reads)?;
        }
        for (labels, body) in arms.iter().rev() {
            let mut hit = None;
            for label in labels {
                let l = self.expr_with_reads(label, env, reads)?;
                let (a, b) = same_width(self.m, subj, l);
                let eq = self.m.binary(BinaryOp::Eq, a, b, 1);
                hit = Some(match hit {
                    None => eq,
                    Some(prev) => self.m.binary(BinaryOp::Or, prev, eq, 1),
                });
            }
            let cond = hit.expect("case arm has at least one label");
            let mut arm_env = env.clone();
            self.exec_stmt(body, &mut arm_env, reads)?;
            let mut merged = env.clone();
            merge_env(self.m, cond, &arm_env, &result_env, &mut merged);
            result_env = merged;
        }
        *env = result_env;
        Ok(())
    }

    /// Evaluates an expression where names resolve through `reads` first
    /// (non-blocking pre-edge values), then `env` (blocking updates).
    fn expr_with_reads(
        &mut self,
        expr: &Expr,
        env: &BTreeMap<String, NodeId>,
        reads: &BTreeMap<String, NodeId>,
    ) -> Result<NodeId, VerilogError> {
        if reads.is_empty() {
            return self.expr_in_env(expr, env);
        }
        // Overlay: non-blocking reads win over in-flight writes.
        let mut overlay = env.clone();
        for (k, v) in reads {
            overlay.insert(k.clone(), *v);
        }
        self.expr_in_env(expr, &overlay)
    }

    fn expr(&mut self, expr: &Expr) -> Result<NodeId, VerilogError> {
        let empty = BTreeMap::new();
        self.expr_in_env(expr, &empty)
    }

    /// Enters one more level of recursion, failing past [`MAX_DEPTH`].
    /// The caller leaves it with `self.depth -= 1` once the level returns.
    fn enter(&mut self) -> Result<(), VerilogError> {
        if self.depth >= MAX_DEPTH {
            return Err(too_deep());
        }
        self.depth += 1;
        Ok(())
    }

    fn expr_in_env(
        &mut self,
        expr: &Expr,
        env: &BTreeMap<String, NodeId>,
    ) -> Result<NodeId, VerilogError> {
        self.enter()?;
        let node = self.expr_node(expr, env);
        self.depth -= 1;
        node
    }

    /// Elaborates one expression node. The recursion runs through here, so
    /// each kind of node has its own helper and this frame stays small.
    fn expr_node(
        &mut self,
        expr: &Expr,
        env: &BTreeMap<String, NodeId>,
    ) -> Result<NodeId, VerilogError> {
        match expr {
            Expr::Literal { value, width } => self.literal(*value, *width),
            Expr::Ident(name) => self.ident(name, env),
            Expr::Unary(op, e) => self.unary(*op, e, env),
            Expr::Binary(op, a, b) => self.binary(*op, a, b, env),
            Expr::Ternary(c, t, f) => self.ternary(c, t, f, env),
            Expr::Concat(parts) => self.concat(parts, env),
            Expr::Repl(count, value) => self.replicate(count, value, env),
            Expr::Part(name, msb, lsb) => self.part_select(name, msb, lsb, env),
            Expr::Bit(name, index) => self.bit_select(name, index, env),
        }
    }

    fn literal(&mut self, value: i64, width: Option<u32>) -> Result<NodeId, VerilogError> {
        let w = match width {
            Some(w) => node_width(i128::from(w), || format!("literal {w}'d{value}"))?,
            None => 32,
        };
        Ok(self.m.constant(Bits::from_i64(w, value)))
    }

    fn ident(
        &mut self,
        name: &str,
        env: &BTreeMap<String, NodeId>,
    ) -> Result<NodeId, VerilogError> {
        if let Some(&v) = env.get(name) {
            Ok(v)
        } else if let Some(&p) = self.params.get(name) {
            Ok(self.m.constant(Bits::from_i64(32, p)))
        } else {
            self.net_value(name)
        }
    }

    fn unary(
        &mut self,
        op: UnOp,
        operand: &Expr,
        env: &BTreeMap<String, NodeId>,
    ) -> Result<NodeId, VerilogError> {
        let v = self.expr_in_env(operand, env)?;
        Ok(match op {
            UnOp::Neg => self.m.unary(UnaryOp::Neg, v),
            UnOp::Not => self.m.unary(UnaryOp::Not, v),
            UnOp::LogicNot => {
                let r = self.m.unary(UnaryOp::ReduceOr, v);
                self.m.unary(UnaryOp::Not, r)
            }
            UnOp::RedOr => self.m.unary(UnaryOp::ReduceOr, v),
            UnOp::RedAnd => self.m.unary(UnaryOp::ReduceAnd, v),
            UnOp::RedXor => self.m.unary(UnaryOp::ReduceXor, v),
        })
    }

    fn binary(
        &mut self,
        op: BinOp,
        a: &Expr,
        b: &Expr,
        env: &BTreeMap<String, NodeId>,
    ) -> Result<NodeId, VerilogError> {
        let a = self.expr_in_env(a, env)?;
        let b = self.expr_in_env(b, env)?;
        Ok(self.binary_node(op, a, b))
    }

    fn ternary(
        &mut self,
        cond: &Expr,
        t: &Expr,
        f: &Expr,
        env: &BTreeMap<String, NodeId>,
    ) -> Result<NodeId, VerilogError> {
        let cond = self.expr_in_env(cond, env)?;
        let cond = truthy(self.m, cond);
        let t = self.expr_in_env(t, env)?;
        let f = self.expr_in_env(f, env)?;
        let (t, f) = same_width(self.m, t, f);
        Ok(self.m.mux(cond, t, f))
    }

    fn concat(
        &mut self,
        parts: &[Expr],
        env: &BTreeMap<String, NodeId>,
    ) -> Result<NodeId, VerilogError> {
        let mut nodes = Vec::new();
        for p in parts {
            nodes.push(self.expr_in_env(p, env)?);
        }
        let total: i128 = nodes.iter().map(|&n| i128::from(self.m.width(n))).sum();
        node_width(total, || "concatenation".to_owned())?;
        let mut acc = nodes[0];
        for &n in &nodes[1..] {
            acc = self.m.concat(acc, n);
        }
        Ok(acc)
    }

    fn replicate(
        &mut self,
        count: &Expr,
        value: &Expr,
        env: &BTreeMap<String, NodeId>,
    ) -> Result<NodeId, VerilogError> {
        let k = const_eval(&self.params, count)?;
        if k < 1 {
            return Err(VerilogError::new(format!("replication count {k}")));
        }
        let v = self.expr_in_env(value, env)?;
        let w = self.m.width(v);
        node_width(i128::from(k) * i128::from(w), || {
            format!("replication {{{k}{{{w}-bit value}}}}")
        })?;
        let mut acc = v;
        for _ in 1..k {
            acc = self.m.concat(acc, v);
        }
        Ok(acc)
    }

    fn part_select(
        &mut self,
        name: &str,
        msb: &Expr,
        lsb: &Expr,
        env: &BTreeMap<String, NodeId>,
    ) -> Result<NodeId, VerilogError> {
        let base = self.name_value(name, env)?;
        let msb = const_eval(&self.params, msb)?;
        let lsb = const_eval(&self.params, lsb)?;
        if msb < lsb || lsb < 0 {
            return Err(VerilogError::new(format!("bad part select [{msb}:{lsb}]")));
        }
        let base_width = self.m.width(base);
        if msb >= i64::from(base_width) {
            return Err(VerilogError::new(format!(
                "part select [{msb}:{lsb}] of {base_width}-bit {name:?}"
            )));
        }
        let width = (msb - lsb + 1) as u32;
        Ok(self.m.slice(base, lsb as u32, width))
    }

    fn bit_select(
        &mut self,
        name: &str,
        index: &Expr,
        env: &BTreeMap<String, NodeId>,
    ) -> Result<NodeId, VerilogError> {
        let base = self.name_value(name, env)?;
        let base_width = self.m.width(base);
        Ok(match const_eval(&self.params, index) {
            Ok(i) if i >= i64::from(base_width) => {
                return Err(VerilogError::new(format!(
                    "bit select [{i}] of {base_width}-bit {name:?}"
                )))
            }
            Ok(i) if i >= 0 => self.m.slice(base, i as u32, 1),
            _ => {
                let idx = self.expr_in_env(index, env)?;
                let shifted = self.m.binary(BinaryOp::ShrL, base, idx, base_width);
                self.m.slice(shifted, 0, 1)
            }
        })
    }

    fn name_value(
        &mut self,
        name: &str,
        env: &BTreeMap<String, NodeId>,
    ) -> Result<NodeId, VerilogError> {
        if let Some(&v) = env.get(name) {
            Ok(v)
        } else {
            self.net_value(name)
        }
    }

    fn binary_node(&mut self, op: BinOp, a: NodeId, b: NodeId) -> NodeId {
        use BinaryOp as B;
        match op {
            BinOp::Add | BinOp::Sub | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Mul => {
                let (a, b) = same_width(self.m, a, b);
                let w = self.m.width(a);
                let rtl = match op {
                    BinOp::Add => B::Add,
                    BinOp::Sub => B::Sub,
                    BinOp::Mul => B::MulS,
                    BinOp::And => B::And,
                    BinOp::Or => B::Or,
                    _ => B::Xor,
                };
                self.m.binary(rtl, a, b, w)
            }
            BinOp::Shl | BinOp::Shr | BinOp::AShr => {
                let w = self.m.width(a);
                let rtl = match op {
                    BinOp::Shl => B::Shl,
                    BinOp::Shr => B::ShrL,
                    _ => B::ShrA,
                };
                self.m.binary(rtl, a, b, w)
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let (mut a, mut b) = same_width(self.m, a, b);
                let rtl = match op {
                    BinOp::Eq => B::Eq,
                    BinOp::Ne => B::Ne,
                    BinOp::Lt => B::LtS,
                    BinOp::Le => B::LeS,
                    BinOp::Gt | BinOp::Ge => {
                        std::mem::swap(&mut a, &mut b);
                        if op == BinOp::Gt {
                            B::LtS
                        } else {
                            B::LeS
                        }
                    }
                    _ => unreachable!("comparison arm"),
                };
                self.m.binary(rtl, a, b, 1)
            }
            BinOp::LogicAnd | BinOp::LogicOr => {
                let a = truthy(self.m, a);
                let b = truthy(self.m, b);
                let rtl = if op == BinOp::LogicAnd { B::And } else { B::Or };
                self.m.binary(rtl, a, b, 1)
            }
        }
    }
}

/// The error past [`MAX_DEPTH`], built out of line so the recursion's frames
/// stay small.
fn too_deep() -> VerilogError {
    VerilogError::new(format!(
        "elaboration deeper than {MAX_DEPTH} levels of nets, operands, statements and instances"
    ))
}

/// Collects the nets assigned anywhere in a statement.
fn collect_assigned(stmt: &Stmt, out: &mut Vec<String>) {
    match stmt {
        Stmt::Block(stmts) => {
            for s in stmts {
                collect_assigned(s, out);
            }
        }
        Stmt::Assign { lhs, .. } => {
            if !out.contains(lhs) {
                out.push(lhs.clone());
            }
        }
        Stmt::If { then, else_, .. } => {
            collect_assigned(then, out);
            if let Some(e) = else_ {
                collect_assigned(e, out);
            }
        }
        Stmt::Case { arms, default, .. } => {
            for (_, body) in arms {
                collect_assigned(body, out);
            }
            if let Some(d) = default {
                collect_assigned(d, out);
            }
        }
    }
}

/// Sign-extends or truncates to an exact width (everything is signed in
/// this subset).
fn fit(m: &mut Module, node: NodeId, width: u32) -> NodeId {
    let w = m.width(node);
    if w == width {
        node
    } else {
        m.sext(node, width)
    }
}

/// Widens the narrower operand so both match.
fn same_width(m: &mut Module, a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    let (wa, wb) = (m.width(a), m.width(b));
    if wa == wb {
        (a, b)
    } else if wa < wb {
        (m.sext(a, wb), b)
    } else {
        (a, m.sext(b, wa))
    }
}

/// Reduces a value to a 1-bit truth value (non-zero test).
fn truthy(m: &mut Module, v: NodeId) -> NodeId {
    if m.width(v) == 1 {
        v
    } else {
        m.unary(UnaryOp::ReduceOr, v)
    }
}

/// Muxes two environments under `cond` into `out`.
fn merge_env(
    m: &mut Module,
    cond: NodeId,
    then_env: &BTreeMap<String, NodeId>,
    else_env: &BTreeMap<String, NodeId>,
    out: &mut BTreeMap<String, NodeId>,
) {
    for (name, &tv) in then_env {
        let ev = else_env.get(name).copied().unwrap_or(tv);
        let v = if tv == ev { tv } else { m.mux(cond, tv, ev) };
        out.insert(name.clone(), v);
    }
    for (name, &ev) in else_env {
        if !then_env.contains_key(name) {
            out.insert(name.clone(), ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use hc_sim::Simulator;

    fn sim(src: &str, top: &str) -> Simulator {
        let d = parse(src).unwrap();
        let m = elaborate(&d, top).unwrap();
        m.validate().unwrap();
        Simulator::new(m).unwrap()
    }

    #[test]
    fn combinational_adder() {
        // Subset rule: operations are computed at max(operand widths) and
        // then fitted to the target, so an 8-bit add wraps even into a
        // 9-bit net (designs declare intermediates wide enough, C-style).
        let mut s = sim(
            "module add (input signed [7:0] a, input signed [7:0] b, output [8:0] y);
               assign y = a + b;
             endmodule",
            "add",
        );
        s.set_u64("a", 0x7f);
        s.set_u64("b", 1);
        assert_eq!(s.get("y").to_i64(), -128);
        s.set_u64("b", 2);
        assert_eq!(s.get("y").to_i64(), -127);
    }

    #[test]
    fn clocked_counter_with_reset() {
        let mut s = sim(
            "module cnt (input clk, input rst, output reg [3:0] q);
               always @(posedge clk)
                 if (rst) q <= 4'd0;
                 else q <= q + 4'd1;
             endmodule",
            "cnt",
        );
        s.set_u64("rst", 0);
        s.run(5);
        assert_eq!(s.get("q").to_u64(), 5);
        s.set_u64("rst", 1);
        s.step();
        assert_eq!(s.get("q").to_u64(), 0);
    }

    #[test]
    fn comb_always_with_case() {
        let mut s = sim(
            "module dec (input [1:0] s, output reg [3:0] y);
               always @* begin
                 case (s)
                   2'd0: y = 4'b0001;
                   2'd1: y = 4'b0010;
                   2'd2: y = 4'b0100;
                   default: y = 4'b1000;
                 endcase
               end
             endmodule",
            "dec",
        );
        for (sval, expect) in [(0u64, 1u64), (1, 2), (2, 4), (3, 8)] {
            s.set_u64("s", sval);
            assert_eq!(s.get("y").to_u64(), expect, "s={sval}");
        }
    }

    #[test]
    fn hierarchy_flattens_with_parameters() {
        let mut s = sim(
            "module scale #(parameter K = 2) (input signed [7:0] a, output signed [15:0] y);
               assign y = a * K;
             endmodule
             module top (input signed [7:0] a, output signed [15:0] y);
               wire signed [15:0] t;
               scale #(.K(3)) u0 (.a(a), .y(t));
               scale u1 (.a(t[7:0]), .y(y));
             endmodule",
            "top",
        );
        s.set_u64("a", 5);
        assert_eq!(s.get("y").to_i64(), 30); // 5 * 3 * 2
    }

    #[test]
    fn signed_arithmetic_and_arith_shift() {
        let mut s = sim(
            "module m (input signed [11:0] a, output signed [11:0] y);
               assign y = (a * 12'sd3) >>> 2;
             endmodule",
            "m",
        );
        s.set("a", hc_bits::Bits::from_i64(12, -100));
        assert_eq!(s.get("y").to_i64(), -75);
    }

    #[test]
    fn multiply_driven_net_rejected() {
        let d = parse(
            "module m (input a, output y);
               assign y = a;
               assign y = ~a;
             endmodule",
        )
        .unwrap();
        let err = elaborate(&d, "m").unwrap_err();
        assert!(err.to_string().contains("multiply driven"), "{err}");
    }

    #[test]
    fn combinational_cycle_rejected() {
        let d = parse(
            "module m (output y);
               wire a, b;
               assign a = b;
               assign b = a;
               assign y = a;
             endmodule",
        )
        .unwrap();
        let err = elaborate(&d, "m").unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
    }

    #[test]
    fn dynamic_bit_select() {
        let mut s = sim(
            "module m (input [7:0] v, input [2:0] i, output y);
               assign y = v[i];
             endmodule",
            "m",
        );
        s.set_u64("v", 0b0100_0000);
        s.set_u64("i", 6);
        assert_eq!(s.get("y").to_u64(), 1);
        s.set_u64("i", 5);
        assert_eq!(s.get("y").to_u64(), 0);
    }

    /// Parses and elaborates `src`'s module `t`, expecting an error that
    /// mentions `needle` where the netlist builders used to panic.
    fn rejects(src: &str, needle: &str) {
        let (src, needle) = (src.to_owned(), needle.to_owned());
        on_2mib_stack(move || {
            let d = parse(&src).unwrap();
            let err = elaborate(&d, "t").expect_err("hostile source elaborates");
            assert!(err.to_string().contains(&needle), "{err}");
        });
    }

    /// Runs `f` on a thread with a 2 MiB stack, the default for hc-serve's
    /// connection threads, so a test also pins that the recursion bounds
    /// fit one.
    fn on_2mib_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap_or_else(|e| std::panic::resume_unwind(e));
    }

    /// `y` for each of `inputs` on `a`, after elaborating `src` on a 2 MiB
    /// stack.
    fn outputs_on_2mib_stack(src: String, inputs: &'static [u64]) -> Vec<u64> {
        let (tx, rx) = std::sync::mpsc::channel();
        on_2mib_stack(move || {
            let mut s = sim(&src, "t");
            let ys = inputs
                .iter()
                .map(|&a| {
                    s.set_u64("a", a);
                    s.get("y").to_u64()
                })
                .collect();
            tx.send(ys).unwrap();
        });
        rx.recv().unwrap()
    }

    #[test]
    fn ternary_chain_of_250_arms_elaborates() {
        let arms: String = (0..250)
            .map(|i| format!("a == 8'd{i} ? 8'd{} : ", (i + 1) % 256))
            .collect();
        let src =
            format!("module t (input [7:0] a, output [7:0] y); assign y = {arms}8'd0; endmodule");
        assert_eq!(
            outputs_on_2mib_stack(src, &[0, 99, 249, 250]),
            [1, 100, 250, 0]
        );
    }

    #[test]
    fn else_if_chain_of_250_arms_elaborates() {
        let arms: String = (1..250)
            .map(|i| format!("else if (a == 8'd{i}) y = 8'd{};\n", (i + 1) % 256))
            .collect();
        let src = format!(
            "module t (input [7:0] a, output reg [7:0] y);
               always @* if (a == 8'd0) y = 8'd1; {arms} else y = 8'd0;
             endmodule"
        );
        assert_eq!(
            outputs_on_2mib_stack(src, &[0, 99, 249, 250]),
            [1, 100, 250, 0]
        );
    }

    #[test]
    fn tallest_sum_the_parser_admits_elaborates() {
        // 256 terms: 255 operators, a tree 256 levels tall.
        let src = format!(
            "module t (input [15:0] a, output [15:0] y); assign y = a{}; endmodule",
            " + a".repeat(255)
        );
        assert_eq!(outputs_on_2mib_stack(src, &[1, 3]), [256, 768]);
    }

    /// `a[7:0]`, its bound a constant the parser admits at nearly its full
    /// height; `const_eval` folds it without counting depth, so the chains
    /// below end in its recursion.
    fn tall_constant_select() -> String {
        format!("a[7{}:0]", " + 0".repeat(250))
    }

    /// `stages` modules, each instantiating the next (two levels each), the
    /// last one selecting from `a` through [`tall_constant_select`].
    fn instance_chain(stages: usize) -> String {
        let mut src = String::new();
        for i in 0..stages {
            let name = if i == 0 {
                "t".to_owned()
            } else {
                format!("m{i}")
            };
            src += &format!(
                "module {name} (input [7:0] a, output [7:0] y); m{} u (.a(a), .y(y)); endmodule\n",
                i + 1
            );
        }
        src += &format!(
            "module m{stages} (input [7:0] a, output [7:0] y); assign y = {}; endmodule",
            tall_constant_select()
        );
        src
    }

    /// `stages` nets, each the previous one `+ a` (three levels each), the
    /// first one selecting from `a` through [`tall_constant_select`].
    fn net_chain(stages: usize) -> String {
        let mut src = String::from("module t (input [7:0] a, output [7:0] y);\n");
        for i in 0..stages {
            src += &format!("wire [7:0] w{i};\n");
        }
        src += &format!("assign w0 = {};\n", tall_constant_select());
        for i in 1..stages {
            src += &format!("assign w{i} = w{} + a;\n", i - 1);
        }
        src += &format!("assign y = w{};\nendmodule", stages - 1);
        src
    }

    #[test]
    fn deepest_instance_chain_fits_a_2mib_stack() {
        // Instances cost the most stack per level. Two levels per instance
        // and three for the leaf's select: 2 * 254 + 3 = 511.
        const STAGES: usize = 254;
        assert_eq!(outputs_on_2mib_stack(instance_chain(STAGES), &[3]), [3]);
        rejects(
            &instance_chain(STAGES + 1),
            "elaboration deeper than 512 levels",
        );
    }

    #[test]
    fn deepest_net_chain_fits_a_2mib_stack() {
        // Three levels per net and two for the first one's select:
        // 3 * 170 + 2 = 512.
        const STAGES: usize = 170;
        assert_eq!(outputs_on_2mib_stack(net_chain(STAGES), &[1]), [170]);
        rejects(&net_chain(STAGES + 1), "elaboration deeper than 512 levels");
    }

    #[test]
    fn zero_width_literal_is_an_error() {
        rejects(
            "module t (input [7:0] a, output [7:0] y); assign y = 0'd1; endmodule",
            "literal 0'd1 is 0 bits wide",
        );
    }

    #[test]
    fn literal_wider_than_max_width_is_an_error() {
        rejects(
            "module t (input [7:0] a, output [7:0] y); assign y = 5000'd1; endmodule",
            "literal 5000'd1 is 5000 bits wide",
        );
    }

    #[test]
    fn port_range_wider_than_max_width_is_an_error() {
        rejects(
            "module t (input [4999:0] a, output [7:0] y); assign y = a; endmodule",
            "range [4999:0] is 5000 bits wide",
        );
    }

    #[test]
    fn port_range_past_u32_is_an_error() {
        // `msb as u32 + 1` used to wrap to a zero-width input in release
        // builds and overflow in debug builds.
        rejects(
            "module t (input [4294967295:0] a, output [7:0] y); assign y = a; endmodule",
            "range [4294967295:0] is 4294967296 bits wide",
        );
    }

    #[test]
    fn part_select_past_the_base_width_is_an_error() {
        rejects(
            "module t (input [7:0] a, output [7:0] y); assign y = a[100:93]; endmodule",
            "part select [100:93] of 8-bit \"a\"",
        );
    }

    #[test]
    fn constant_bit_select_past_the_base_width_is_an_error() {
        rejects(
            "module t (input [7:0] a, output y); assign y = a[8]; endmodule",
            "bit select [8] of 8-bit \"a\"",
        );
    }

    #[test]
    fn replication_wider_than_max_width_is_an_error() {
        rejects(
            "module t (input [7:0] a, output [7:0] y); assign y = {1000000{a}}; endmodule",
            "replication {1000000{8-bit value}} is 8000000 bits wide",
        );
    }

    #[test]
    fn concatenation_wider_than_max_width_is_an_error() {
        rejects(
            "module t (input [4095:0] a, output [7:0] y); assign y = {a, a}; endmodule",
            "concatenation is 8192 bits wide",
        );
    }

    #[test]
    fn constant_overflow_is_an_error() {
        for (expr, needle) in [
            ("1 << 70", "Shl"),
            ("9223372036854775807 + 1", "Add"),
            ("-9223372036854775807 - 2", "Sub"),
            ("4294967296 * 4294967296", "Mul"),
            ("1 >> 64", "Shr"),
            ("1 << -1", "Shl"),
        ] {
            rejects(
                &format!(
                    "module t #(parameter N = {expr}) (input [7:0] a, output [7:0] y);
                       assign y = a;
                     endmodule"
                ),
                needle,
            );
        }
    }

    #[test]
    fn self_instantiation_is_an_error() {
        rejects(
            "module t (input a, output y); t u (.a(a), .y(y)); endmodule",
            "elaboration deeper than 512 levels",
        );
    }

    #[test]
    fn long_net_chain_is_an_error() {
        let n = 20_000;
        let mut src = String::from("module t (input a, output y);\n");
        for i in 0..n {
            src += &format!("wire w{i};\n");
        }
        src += "assign w0 = a;\n";
        for i in 1..n {
            src += &format!("assign w{i} = w{};\n", i - 1);
        }
        src += &format!("assign y = w{};\nendmodule", n - 1);
        rejects(&src, "elaboration deeper than 512 levels");
    }

    #[test]
    fn tall_trees_along_a_net_chain_are_an_error() {
        // Each tree is one the parser admits; chained, they pass the bound.
        let mut src = String::from("module t (input [7:0] a, output [7:0] y);\n");
        for i in 0..4 {
            src += &format!("wire [7:0] w{i};\n");
        }
        src += &format!("assign w0 = a{};\n", " + a".repeat(200));
        for i in 1..4 {
            src += &format!("assign w{i} = w{}{};\n", i - 1, " + a".repeat(200));
        }
        src += "assign y = w3;\nendmodule";
        rejects(&src, "elaboration deeper than 512 levels");
    }

    #[test]
    fn elaborated_modules_are_valid_netlists() {
        // A source the elaborator accepts is a netlist every simulator
        // and `synthesize` can take without panicking.
        let d = parse(
            "module t (input [7:0] a, output [3:0] y, output z);
               assign y = a[7:4] ^ {a[0], a[1], 2'd3};
               assign z = a[7];
             endmodule",
        )
        .unwrap();
        elaborate(&d, "t").unwrap().validate().unwrap();
    }

    #[test]
    fn nonblocking_swap() {
        let mut s = sim(
            "module m (input clk, output reg [3:0] a, output reg [3:0] b);
               always @(posedge clk) begin
                 a <= b + 4'd1;
                 b <= a;
               end
             endmodule",
            "m",
        );
        s.run(1);
        assert_eq!(s.get("a").to_u64(), 1);
        assert_eq!(s.get("b").to_u64(), 0);
        s.run(1);
        assert_eq!(s.get("a").to_u64(), 1);
        assert_eq!(s.get("b").to_u64(), 1);
    }
}
