//! A minimal in-memory x86-64 assembler.
//!
//! Covers exactly the instruction forms the per-cone code generators need:
//! 64-bit `mov`/`add`/`sub`/`imul`/`and`/`or`/`xor`/`shl`/`shr`/`sar`/
//! `cmp`/`test`/`cmov`/`setcc`/`not`/`neg` with register, `[base+disp]`
//! memory (the narrow store behind `rdi`, the flat wide-word store behind
//! `rsi`), and immediate operands for the scalar tier, plus the
//! VEX-encoded AVX2 subset the vector (lane-batched) tier emits:
//! `vmovdqu`/`vmovdqa` loads and stores, the bitwise/arithmetic ymm ops
//! (`vpand[n]`/`vpor`/`vpxor`/`vpaddq`/`vpsubq`/`vpmuludq`), immediate and
//! variable 64-bit shifts, quadword compares, byte blends, broadcasts and
//! masked stores. The only relocation-like mechanism is the RIP-relative
//! constant-pool load ([`Asm::vpbroadcastq_rip`]/[`Asm::vmovdqu_rip`]),
//! whose `disp32` is patched by [`Asm::patch_disp32`] once the pool's
//! final position is known. The only branch is the vector tier's backward
//! `jnz` closing its lane-group loop ([`Asm::jnz_back`]); within a lane
//! group every compiled run is straight-line code ending in `ret`,
//! mirroring the branch-free structure of the instruction tape itself.

/// General-purpose registers by hardware encoding. The code generator only
/// hands out caller-saved registers, so compiled cones need no prologue.
/// `rsp`/`rbp`/`r12`/`r13` are deliberately absent: they would hit the
/// SIB/RIP ModRM special cases the encoder doesn't implement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Reg {
    Rax = 0,
    Rcx = 1,
    Rdx = 2,
    /// The wide-word-store base pointer (second sysv64 argument); never
    /// written.
    Rsi = 6,
    /// The narrow-slot-store base pointer (first sysv64 argument); never
    /// written.
    Rdi = 7,
    R8 = 8,
    R9 = 9,
    /// The activity-array base in generated part functions (copied from
    /// the third sysv64 argument); never written by instruction bodies.
    R10 = 10,
    /// Scratch for a part's boundary compare; never used by instruction
    /// bodies.
    R11 = 11,
}

/// A 256-bit AVX register by hardware number (0–15). The vector code
/// generator partitions them by convention: 0–5 and 14 scratch, 6–9 the
/// per-chunk broadcast-constant cache, 13 the ragged-tail store mask,
/// 10–12 and 15 the result bank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Ymm(pub u8);

/// Condition codes as the low nibble of the `0F 9x`/`0F 4x` opcodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Cc {
    B = 0x2,
    Ae = 0x3,
    E = 0x4,
    Ne = 0x5,
    Be = 0x6,
    A = 0x7,
    L = 0xc,
    Ge = 0xd,
    Le = 0xe,
    G = 0xf,
}

impl Cc {
    /// The opposite condition (`e` ↔ `ne`, `b` ↔ `ae`, …).
    pub fn negate(self) -> Cc {
        match self {
            Cc::B => Cc::Ae,
            Cc::Ae => Cc::B,
            Cc::E => Cc::Ne,
            Cc::Ne => Cc::E,
            Cc::Be => Cc::A,
            Cc::A => Cc::Be,
            Cc::L => Cc::Ge,
            Cc::Ge => Cc::L,
            Cc::Le => Cc::G,
            Cc::G => Cc::Le,
        }
    }
}

/// Byte buffer plus emit helpers; one `Asm` holds the concatenated code of
/// every compiled cone in a module.
#[derive(Debug, Default)]
pub(crate) struct Asm {
    buf: Vec<u8>,
}

impl Asm {
    pub fn new() -> Asm {
        Asm::default()
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    fn rex(&mut self, w: bool, reg: u8, rm: u8) {
        let b = 0x40 | u8::from(w) << 3 | (reg >> 3) << 2 | (rm >> 3);
        // A plain 0x40 REX only matters for byte registers, which this
        // assembler never touches through this path — skip it.
        if b != 0x40 {
            self.buf.push(b);
        }
    }

    fn modrm(&mut self, md: u8, reg: u8, rm: u8) {
        self.buf.push(md << 6 | (reg & 7) << 3 | (rm & 7));
    }

    /// ModRM for `[base + disp]` with the shortest displacement encoding.
    /// Always emits a displacement, so the `mod=00` special cases (RIP for
    /// `rbp`-class bases, SIB for `rsp`-class) never arise.
    fn mem(&mut self, base: Reg, reg: u8, disp: i32) {
        if (-128..128).contains(&disp) {
            self.modrm(0b01, reg, base as u8);
            self.buf.push(disp as u8);
        } else {
            self.modrm(0b10, reg, base as u8);
            self.buf.extend_from_slice(&disp.to_le_bytes());
        }
    }

    /// `mov dst, [base + disp]`
    pub fn load_from(&mut self, base: Reg, dst: Reg, disp: i32) {
        self.rex(true, dst as u8, base as u8);
        self.buf.push(0x8b);
        self.mem(base, dst as u8, disp);
    }

    /// `mov [base + disp], src`
    pub fn store_to(&mut self, base: Reg, disp: i32, src: Reg) {
        self.rex(true, src as u8, base as u8);
        self.buf.push(0x89);
        self.mem(base, src as u8, disp);
    }

    /// Zero-extending `sz`-bit load: `movzx dst, byte/word [base + disp]`
    /// or `mov dst32, dword [base + disp]` (sz ∈ {8, 16, 32}). Writing the
    /// 32-bit register clears the upper half, so no REX.W is needed.
    pub fn load_zx(&mut self, base: Reg, dst: Reg, disp: i32, sz: u32) {
        self.rex(false, dst as u8, base as u8);
        match sz {
            8 => self.buf.extend_from_slice(&[0x0f, 0xb6]),
            16 => self.buf.extend_from_slice(&[0x0f, 0xb7]),
            32 => self.buf.push(0x8b),
            _ => unreachable!("load_zx size must be 8/16/32"),
        }
        self.mem(base, dst as u8, disp);
    }

    /// Sign-extending `sz`-bit load into the full 64-bit register:
    /// `movsx`/`movsxd dst, byte/word/dword [base + disp]` (sz ∈ {8, 16, 32}).
    pub fn load_sx(&mut self, base: Reg, dst: Reg, disp: i32, sz: u32) {
        self.rex(true, dst as u8, base as u8);
        match sz {
            8 => self.buf.extend_from_slice(&[0x0f, 0xbe]),
            16 => self.buf.extend_from_slice(&[0x0f, 0xbf]),
            32 => self.buf.push(0x63),
            _ => unreachable!("load_sx size must be 8/16/32"),
        }
        self.mem(base, dst as u8, disp);
    }

    /// `movsx`/`movsxd dst, src` from the low `sz` bits of `src`
    /// (sz ∈ {8, 16, 32}).
    pub fn sx_reg(&mut self, dst: Reg, src: Reg, sz: u32) {
        self.rex(true, dst as u8, src as u8);
        match sz {
            8 => self.buf.extend_from_slice(&[0x0f, 0xbe]),
            16 => self.buf.extend_from_slice(&[0x0f, 0xbf]),
            32 => self.buf.push(0x63),
            _ => unreachable!("sx_reg size must be 8/16/32"),
        }
        self.modrm(0b11, dst as u8, src as u8);
    }

    /// `mov dst32, dst32` — clears bits 63..32, i.e. a two-byte
    /// `and dst, 0xffff_ffff`. Like any `mov`, leaves the flags alone.
    pub fn clear_upper32(&mut self, dst: Reg) {
        self.rex(false, dst as u8, dst as u8);
        self.buf.push(0x89);
        self.modrm(0b11, dst as u8, dst as u8);
    }

    /// `mov dst, [rdi + disp]` — narrow slot load.
    pub fn load(&mut self, dst: Reg, disp: i32) {
        self.load_from(Reg::Rdi, dst, disp);
    }

    /// `mov [rdi + disp], src` — narrow slot store.
    pub fn store(&mut self, disp: i32, src: Reg) {
        self.store_to(Reg::Rdi, disp, src);
    }

    /// `mov dst, src`
    pub fn mov_rr(&mut self, dst: Reg, src: Reg) {
        self.rex(true, src as u8, dst as u8);
        self.buf.push(0x89);
        self.modrm(0b11, src as u8, dst as u8);
    }

    /// `mov dst, imm` (shortest of `xor`, sign-extended imm32, movabs).
    pub fn mov_imm(&mut self, dst: Reg, imm: u64) {
        if imm == 0 {
            self.xor_clear(dst);
        } else if imm as i64 == (imm as i64 as i32).into() {
            self.rex(true, 0, dst as u8);
            self.buf.push(0xc7);
            self.modrm(0b11, 0, dst as u8);
            self.buf.extend_from_slice(&(imm as u32).to_le_bytes());
        } else {
            self.rex(true, 0, dst as u8);
            self.buf.push(0xb8 + (dst as u8 & 7));
            self.buf.extend_from_slice(&imm.to_le_bytes());
        }
    }

    /// `xor dst32, dst32` — the canonical zeroing idiom (clears all 64 bits).
    pub fn xor_clear(&mut self, dst: Reg) {
        self.rex(false, dst as u8, dst as u8);
        self.buf.push(0x31);
        self.modrm(0b11, dst as u8, dst as u8);
    }

    fn alu_rr(&mut self, opcode: u8, dst: Reg, src: Reg) {
        self.rex(true, src as u8, dst as u8);
        self.buf.push(opcode);
        self.modrm(0b11, src as u8, dst as u8);
    }

    pub fn add_rr(&mut self, dst: Reg, src: Reg) {
        self.alu_rr(0x01, dst, src);
    }
    pub fn sub_rr(&mut self, dst: Reg, src: Reg) {
        self.alu_rr(0x29, dst, src);
    }
    pub fn and_rr(&mut self, dst: Reg, src: Reg) {
        self.alu_rr(0x21, dst, src);
    }
    pub fn or_rr(&mut self, dst: Reg, src: Reg) {
        self.alu_rr(0x09, dst, src);
    }
    pub fn xor_rr(&mut self, dst: Reg, src: Reg) {
        self.alu_rr(0x31, dst, src);
    }
    pub fn cmp_rr(&mut self, a: Reg, b: Reg) {
        self.alu_rr(0x39, a, b);
    }
    pub fn test_rr(&mut self, a: Reg, b: Reg) {
        self.alu_rr(0x85, a, b);
    }

    /// `imul dst, src` (two-operand form: low 64 bits of the product).
    pub fn imul_rr(&mut self, dst: Reg, src: Reg) {
        self.rex(true, dst as u8, src as u8);
        self.buf.extend_from_slice(&[0x0f, 0xaf]);
        self.modrm(0b11, dst as u8, src as u8);
    }

    /// ALU group-1 with a sign-extended imm32 (`81 /ext`).
    fn alu_imm(&mut self, ext: u8, dst: Reg, imm: i32) {
        self.rex(true, 0, dst as u8);
        self.buf.push(0x81);
        self.modrm(0b11, ext, dst as u8);
        self.buf.extend_from_slice(&imm.to_le_bytes());
    }

    pub fn cmp_imm(&mut self, dst: Reg, imm: i32) {
        self.alu_imm(7, dst, imm);
    }

    /// `and dst, imm` with a sign-extended imm32. Masks that don't fit go
    /// through `mov_imm` into a scratch register at the call site (the
    /// code generator caches the constant in `r9` across instructions).
    pub fn and_imm32(&mut self, dst: Reg, imm: i32) {
        self.alu_imm(4, dst, imm);
    }

    pub fn not(&mut self, dst: Reg) {
        self.rex(true, 0, dst as u8);
        self.buf.push(0xf7);
        self.modrm(0b11, 2, dst as u8);
    }

    pub fn neg(&mut self, dst: Reg) {
        self.rex(true, 0, dst as u8);
        self.buf.push(0xf7);
        self.modrm(0b11, 3, dst as u8);
    }

    /// Shift group-2 by an immediate (`C1 /ext ib`), eliding zero shifts.
    fn shift_imm(&mut self, ext: u8, dst: Reg, amt: u32) {
        debug_assert!(amt < 64);
        if amt == 0 {
            return;
        }
        self.rex(true, 0, dst as u8);
        self.buf.push(0xc1);
        self.modrm(0b11, ext, dst as u8);
        self.buf.push(amt as u8);
    }

    pub fn shl_imm(&mut self, dst: Reg, amt: u32) {
        self.shift_imm(4, dst, amt);
    }
    pub fn shr_imm(&mut self, dst: Reg, amt: u32) {
        self.shift_imm(5, dst, amt);
    }
    pub fn sar_imm(&mut self, dst: Reg, amt: u32) {
        self.shift_imm(7, dst, amt);
    }

    /// Shift group-2 by `cl` (`D3 /ext`).
    fn shift_cl(&mut self, ext: u8, dst: Reg) {
        debug_assert_ne!(dst, Reg::Rcx, "shift amount lives in rcx");
        self.rex(true, 0, dst as u8);
        self.buf.push(0xd3);
        self.modrm(0b11, ext, dst as u8);
    }

    pub fn shl_cl(&mut self, dst: Reg) {
        self.shift_cl(4, dst);
    }
    pub fn shr_cl(&mut self, dst: Reg) {
        self.shift_cl(5, dst);
    }
    pub fn sar_cl(&mut self, dst: Reg) {
        self.shift_cl(7, dst);
    }

    /// `set<cc> dst8`. Restricted to `rax`/`rcx`/`rdx`, whose byte forms
    /// need no REX; the caller zeroes the full register first.
    pub fn setcc(&mut self, cc: Cc, dst: Reg) {
        debug_assert!(matches!(dst, Reg::Rax | Reg::Rcx | Reg::Rdx));
        self.buf.extend_from_slice(&[0x0f, 0x90 + cc as u8]);
        self.modrm(0b11, 0, dst as u8);
    }

    /// `cmov<cc> dst, src`.
    pub fn cmovcc(&mut self, cc: Cc, dst: Reg, src: Reg) {
        self.rex(true, dst as u8, src as u8);
        self.buf.extend_from_slice(&[0x0f, 0x40 + cc as u8]);
        self.modrm(0b11, dst as u8, src as u8);
    }

    /// `add dst, imm8` (sign-extended `83 /0 ib`) — the lane-group loop's
    /// base-pointer bump.
    pub fn add_imm8(&mut self, dst: Reg, imm: i8) {
        self.rex(true, 0, dst as u8);
        self.buf.push(0x83);
        self.modrm(0b11, 0, dst as u8);
        self.buf.push(imm as u8);
    }

    /// `dec dst32` (`FF /1`, 32-bit) — the lane-group loop counter.
    pub fn dec32(&mut self, dst: Reg) {
        self.rex(false, 0, dst as u8);
        self.buf.push(0xff);
        self.modrm(0b11, 1, dst as u8);
    }

    /// `jnz target` as a backward rel32 (`0F 85 cd`); `target` must be a
    /// position at or before the current end of the buffer.
    pub fn jnz_back(&mut self, target: usize) {
        debug_assert!(target <= self.buf.len());
        self.buf.extend_from_slice(&[0x0f, 0x85]);
        let next = self.buf.len() + 4;
        self.buf
            .extend_from_slice(&((target as i64 - next as i64) as i32).to_le_bytes());
    }

    pub fn ret(&mut self) {
        self.buf.push(0xc3);
    }

    /// `jmp target` as a rel32 (`E9 cd`) to an earlier position.
    pub fn jmp_back(&mut self, target: usize) {
        debug_assert!(target <= self.buf.len());
        self.buf.push(0xe9);
        let next = self.buf.len() + 4;
        self.buf
            .extend_from_slice(&((target as i64 - next as i64) as i32).to_le_bytes());
    }

    /// `cmp r, qword [base + disp]` (`REX.W 3B /r`).
    pub fn cmp_r_mem(&mut self, r: Reg, base: Reg, disp: i32) {
        self.rex(true, r as u8, base as u8);
        self.buf.push(0x3b);
        self.mem(base, r as u8, disp);
    }

    /// `bt`/`btr qword [base + disp], bit` (`REX.W 0F BA /op ib`): CF
    /// takes the bit's old value; `btr` also clears it.
    fn bit_mem(&mut self, op: u8, base: Reg, disp: i32, bit: u32) {
        debug_assert!(bit < 64);
        self.rex(true, 0, base as u8);
        self.buf.extend_from_slice(&[0x0f, 0xba]);
        self.mem(base, op, disp);
        self.buf.push(bit as u8);
    }

    /// `bt qword [base + disp], bit`.
    pub fn bt_mem(&mut self, base: Reg, disp: i32, bit: u32) {
        self.bit_mem(4, base, disp, bit);
    }

    /// `btr qword [base + disp], bit`.
    pub fn btr_mem(&mut self, base: Reg, disp: i32, bit: u32) {
        self.bit_mem(6, base, disp, bit);
    }

    /// `cmp qword [base + disp], imm8` (`REX.W 83 /7 ib`, sign-extended).
    pub fn cmp_mem_imm8(&mut self, base: Reg, disp: i32, imm: i8) {
        self.rex(true, 0, base as u8);
        self.buf.push(0x83);
        self.mem(base, 7, disp);
        self.buf.push(imm as u8);
    }

    /// `add qword [base + disp], imm8` (`REX.W 83 /0 ib`, sign-extended).
    pub fn add_mem_imm8(&mut self, base: Reg, disp: i32, imm: i8) {
        self.rex(true, 0, base as u8);
        self.buf.push(0x83);
        self.mem(base, 0, disp);
        self.buf.push(imm as u8);
    }

    /// `or qword [base + disp], imm32` (`REX.W 81 /1 id`, sign-extended).
    pub fn or_mem_imm32(&mut self, base: Reg, disp: i32, imm: i32) {
        self.rex(true, 0, base as u8);
        self.buf.push(0x81);
        self.mem(base, 1, disp);
        self.buf.extend_from_slice(&imm.to_le_bytes());
    }

    /// `or qword [base + disp], src` (`REX.W 09 /r`).
    pub fn or_mem_r(&mut self, base: Reg, disp: i32, src: Reg) {
        self.rex(true, src as u8, base as u8);
        self.buf.push(0x09);
        self.mem(base, src as u8, disp);
    }

    /// `jcc rel32` to a later position (`0F 8x cd`); returns the position
    /// of the displacement for [`patch_jump`](Asm::patch_jump).
    pub fn jcc_forward(&mut self, cc: Cc) -> usize {
        self.buf.extend_from_slice(&[0x0f, 0x80 | cc as u8]);
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0; 4]);
        at
    }

    /// Points the forward jump whose displacement sits at `at` to the
    /// current end of the buffer.
    pub fn patch_jump(&mut self, at: usize) {
        let rel = i32::try_from(self.buf.len() - (at + 4)).expect("jump within 2 GiB");
        self.buf[at..at + 4].copy_from_slice(&rel.to_le_bytes());
    }

    // ---- VEX-encoded AVX2 tier (vector code generator) ----

    /// VEX prefix. `map` is the opcode map (1 = 0F, 2 = 0F38, 3 = 0F3A),
    /// `reg`/`rm` the hardware numbers feeding the inverted R and B bits,
    /// `vvvv` the (inverted-on-encode) second source, `pp` the implied
    /// legacy prefix (0 = none, 1 = 66, 2 = F3, 3 = F2). Uses the compact
    /// two-byte form whenever the three-byte fields it can't express (X
    /// is never needed — no SIB/index addressing here) are all default.
    #[allow(clippy::too_many_arguments)] // mirrors the VEX field list
    fn vex(&mut self, map: u8, w: bool, vvvv: u8, l256: bool, pp: u8, reg: u8, rm: u8) {
        let r_inv = ((reg >> 3) & 1) ^ 1;
        let b_inv = ((rm >> 3) & 1) ^ 1;
        if map == 1 && !w && b_inv == 1 {
            self.buf.push(0xc5);
            self.buf
                .push(r_inv << 7 | (!vvvv & 0xf) << 3 | u8::from(l256) << 2 | pp);
        } else {
            self.buf.push(0xc4);
            self.buf.push(r_inv << 7 | 0x40 | b_inv << 5 | map);
            self.buf
                .push(u8::from(w) << 7 | (!vvvv & 0xf) << 3 | u8::from(l256) << 2 | pp);
        }
    }

    /// `vmovdqu dst, ymmword [base + disp]`
    pub fn vmovdqu_load(&mut self, dst: Ymm, base: Reg, disp: i32) {
        self.vex(1, false, 0, true, 2, dst.0, base as u8);
        self.buf.push(0x6f);
        self.mem(base, dst.0, disp);
    }

    /// `vmovdqu ymmword [base + disp], src`
    pub fn vmovdqu_store(&mut self, base: Reg, disp: i32, src: Ymm) {
        self.vex(1, false, 0, true, 2, src.0, base as u8);
        self.buf.push(0x7f);
        self.mem(base, src.0, disp);
    }

    /// `vmovdqa dst, ymmword [base + disp]` — 32-byte-aligned load.
    pub fn vmovdqa_load(&mut self, dst: Ymm, base: Reg, disp: i32) {
        self.vex(1, false, 0, true, 1, dst.0, base as u8);
        self.buf.push(0x6f);
        self.mem(base, dst.0, disp);
    }

    /// `vmovdqa ymmword [base + disp], src` — 32-byte-aligned store.
    pub fn vmovdqa_store(&mut self, base: Reg, disp: i32, src: Ymm) {
        self.vex(1, false, 0, true, 1, src.0, base as u8);
        self.buf.push(0x7f);
        self.mem(base, src.0, disp);
    }

    /// `vmovdqa dst, src` — ymm register move.
    pub fn vmovdqa_rr(&mut self, dst: Ymm, src: Ymm) {
        self.vex(1, false, 0, true, 1, dst.0, src.0);
        self.buf.push(0x6f);
        self.modrm(0b11, dst.0, src.0);
    }

    /// `vmovdqu dst, ymmword [rip + disp32]`; returns the position of the
    /// `disp32` placeholder for [`Asm::patch_disp32`]. Used for the
    /// non-uniform ragged-tail lane masks in the constant pool.
    pub fn vmovdqu_rip(&mut self, dst: Ymm) -> usize {
        self.vex(1, false, 0, true, 2, dst.0, 0);
        self.buf.push(0x6f);
        self.modrm(0b00, dst.0, 0b101);
        let pos = self.buf.len();
        self.buf.extend_from_slice(&[0; 4]);
        pos
    }

    /// Legacy-map (0F) three-operand ymm op: `op dst, a, b`.
    fn vop(&mut self, opcode: u8, dst: Ymm, a: Ymm, b: Ymm) {
        self.vex(1, false, a.0, true, 1, dst.0, b.0);
        self.buf.push(opcode);
        self.modrm(0b11, dst.0, b.0);
    }

    /// `vpand dst, a, b`
    pub fn vpand(&mut self, dst: Ymm, a: Ymm, b: Ymm) {
        self.vop(0xdb, dst, a, b);
    }
    /// `vpandn dst, a, b` — `(!a) & b`.
    pub fn vpandn(&mut self, dst: Ymm, a: Ymm, b: Ymm) {
        self.vop(0xdf, dst, a, b);
    }
    /// `vpor dst, a, b`
    pub fn vpor(&mut self, dst: Ymm, a: Ymm, b: Ymm) {
        self.vop(0xeb, dst, a, b);
    }
    /// `vpxor dst, a, b`
    pub fn vpxor(&mut self, dst: Ymm, a: Ymm, b: Ymm) {
        self.vop(0xef, dst, a, b);
    }
    /// `vpaddq dst, a, b` — lane-wise 64-bit wrapping add.
    pub fn vpaddq(&mut self, dst: Ymm, a: Ymm, b: Ymm) {
        self.vop(0xd4, dst, a, b);
    }
    /// `vpsubq dst, a, b` — lane-wise 64-bit wrapping subtract.
    pub fn vpsubq(&mut self, dst: Ymm, a: Ymm, b: Ymm) {
        self.vop(0xfb, dst, a, b);
    }
    /// `vpmuludq dst, a, b` — unsigned 32×32→64 multiply of each lane's
    /// low dword.
    pub fn vpmuludq(&mut self, dst: Ymm, a: Ymm, b: Ymm) {
        self.vop(0xf4, dst, a, b);
    }

    /// Immediate 64-bit lane shift (`66 0F 73 /ext ib`, NDD: the
    /// destination rides in `vvvv`). Never elided — `dst` and `src` are
    /// distinct registers, so a zero count still moves the value.
    fn vshift_imm(&mut self, ext: u8, dst: Ymm, src: Ymm, amt: u32) {
        debug_assert!(amt < 64);
        self.vex(1, false, dst.0, true, 1, ext, src.0);
        self.buf.push(0x73);
        self.modrm(0b11, ext, src.0);
        self.buf.push(amt as u8);
    }

    /// `vpsllq dst, src, amt`
    pub fn vpsllq_imm(&mut self, dst: Ymm, src: Ymm, amt: u32) {
        self.vshift_imm(6, dst, src, amt);
    }
    /// `vpsrlq dst, src, amt`
    pub fn vpsrlq_imm(&mut self, dst: Ymm, src: Ymm, amt: u32) {
        self.vshift_imm(2, dst, src, amt);
    }

    /// 0F38-map three-operand ymm op.
    fn vop38(&mut self, opcode: u8, w: bool, dst: Ymm, a: Ymm, b: Ymm) {
        self.vex(2, w, a.0, true, 1, dst.0, b.0);
        self.buf.push(opcode);
        self.modrm(0b11, dst.0, b.0);
    }

    /// `vpsllvq dst, a, b` — per-lane variable left shift (count ≥ 64 → 0).
    pub fn vpsllvq(&mut self, dst: Ymm, a: Ymm, b: Ymm) {
        self.vop38(0x47, true, dst, a, b);
    }
    /// `vpsrlvq dst, a, b` — per-lane variable logical right shift.
    pub fn vpsrlvq(&mut self, dst: Ymm, a: Ymm, b: Ymm) {
        self.vop38(0x45, true, dst, a, b);
    }
    /// `vpcmpeqq dst, a, b` — lane-wide all-ones/zero equality mask.
    pub fn vpcmpeqq(&mut self, dst: Ymm, a: Ymm, b: Ymm) {
        self.vop38(0x29, false, dst, a, b);
    }
    /// `vpcmpgtq dst, a, b` — signed greater-than mask.
    pub fn vpcmpgtq(&mut self, dst: Ymm, a: Ymm, b: Ymm) {
        self.vop38(0x37, false, dst, a, b);
    }

    /// `vpblendvb dst, a, b, mask` — byte-wise `mask ? b : a` (the mask
    /// register is carried in the immediate's high nibble).
    pub fn vpblendvb(&mut self, dst: Ymm, a: Ymm, b: Ymm, mask: Ymm) {
        self.vex(3, false, a.0, true, 1, dst.0, b.0);
        self.buf.push(0x4c);
        self.modrm(0b11, dst.0, b.0);
        self.buf.push(mask.0 << 4);
    }

    /// `vpbroadcastq dst, src` (low quadword of `src`). Unused by the
    /// current codegen (constants broadcast straight from the pool) but
    /// kept, encoding-tested, for completeness of the AVX2 surface.
    #[allow(dead_code)]
    pub fn vpbroadcastq(&mut self, dst: Ymm, src: Ymm) {
        self.vex(2, false, 0, true, 1, dst.0, src.0);
        self.buf.push(0x59);
        self.modrm(0b11, dst.0, src.0);
    }

    /// `vpbroadcastq dst, qword [rip + disp32]`; returns the `disp32`
    /// placeholder position for [`Asm::patch_disp32`].
    pub fn vpbroadcastq_rip(&mut self, dst: Ymm) -> usize {
        self.vex(2, false, 0, true, 1, dst.0, 0);
        self.buf.push(0x59);
        self.modrm(0b00, dst.0, 0b101);
        let pos = self.buf.len();
        self.buf.extend_from_slice(&[0; 4]);
        pos
    }

    /// `vpmaskmovq ymmword [base + disp], mask, src` — stores only the
    /// quadwords whose mask lane has its top bit set (ragged-tail stores
    /// that must not clobber the next slot's lanes).
    pub fn vpmaskmovq_store(&mut self, base: Reg, disp: i32, mask: Ymm, src: Ymm) {
        self.vex(2, true, mask.0, true, 1, src.0, base as u8);
        self.buf.push(0x8e);
        self.mem(base, src.0, disp);
    }

    /// `vpmaskmovq dst, mask, ymmword [base + disp]` — masked load
    /// (unselected lanes read as zero, faults suppressed). Unused by the
    /// current codegen (ragged tails over-read into the lane store's
    /// padding instead) but kept, encoding-tested, for completeness.
    #[allow(dead_code)]
    pub fn vpmaskmovq_load(&mut self, dst: Ymm, mask: Ymm, base: Reg, disp: i32) {
        self.vex(2, true, mask.0, true, 1, dst.0, base as u8);
        self.buf.push(0x8c);
        self.mem(base, dst.0, disp);
    }

    /// `vzeroupper` — emitted before every `ret` of vector code so the
    /// interpreter's SSE-era code pays no AVX transition penalty.
    pub fn vzeroupper(&mut self) {
        self.buf.extend_from_slice(&[0xc5, 0xf8, 0x77]);
    }

    /// Pads with `int3` to an `n`-byte boundary (constant-pool alignment).
    pub fn align_to(&mut self, n: usize) {
        while !self.buf.len().is_multiple_of(n) {
            self.buf.push(0xcc);
        }
    }

    /// Appends a little-endian u64 (constant-pool word).
    pub fn emit_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Back-patches a `disp32` placeholder left by a RIP-relative load.
    pub fn patch_disp32(&mut self, pos: usize, disp: i32) {
        self.buf[pos..pos + 4].copy_from_slice(&disp.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit(f: impl FnOnce(&mut Asm)) -> Vec<u8> {
        let mut a = Asm::new();
        f(&mut a);
        a.buf
    }

    /// The part-bookkeeping forms: the activity base `r10` and the
    /// boundary scratch `r11` need REX bits in both ModRM fields.
    #[test]
    fn part_bookkeeping_encodings() {
        assert_eq!(emit(|a| a.mov_rr(Reg::R10, Reg::Rdx)), [0x49, 0x89, 0xd2]);
        assert_eq!(emit(|a| a.load(Reg::R11, 0x10)), [0x4c, 0x8b, 0x5f, 0x10]);
        assert_eq!(
            emit(|a| a.cmp_r_mem(Reg::R11, Reg::Rdi, 0x10)),
            [0x4c, 0x3b, 0x5f, 0x10]
        );
        assert_eq!(
            emit(|a| a.or_mem_imm32(Reg::R10, 0x18, 0x7f)),
            [0x49, 0x81, 0x4a, 0x18, 0x7f, 0x00, 0x00, 0x00]
        );
        assert_eq!(
            emit(|a| a.or_mem_r(Reg::R10, 0x18, Reg::R11)),
            [0x4d, 0x09, 0x5a, 0x18]
        );
        assert_eq!(
            emit(|a| a.bt_mem(Reg::R10, 8, 3)),
            [0x49, 0x0f, 0xba, 0x62, 0x08, 0x03]
        );
        assert_eq!(
            emit(|a| a.btr_mem(Reg::R10, 8, 3)),
            [0x49, 0x0f, 0xba, 0x72, 0x08, 0x03]
        );
        assert_eq!(
            emit(|a| a.cmp_mem_imm8(Reg::R10, 0x10, 0)),
            [0x49, 0x83, 0x7a, 0x10, 0x00]
        );
        assert_eq!(
            emit(|a| a.add_mem_imm8(Reg::R10, 0x10, 1)),
            [0x49, 0x83, 0x42, 0x10, 0x01]
        );
        let mut a = Asm::new();
        a.ret();
        a.jmp_back(0);
        assert_eq!(a.buf, [0xc3, 0xe9, 0xfa, 0xff, 0xff, 0xff]);
        let mut a = Asm::new();
        let at = a.jcc_forward(Cc::E);
        a.ret();
        a.patch_jump(at);
        assert_eq!(a.buf, [0x0f, 0x84, 0x01, 0x00, 0x00, 0x00, 0xc3]);
    }

    /// Spot-check encodings against hand-assembled references.
    #[test]
    fn known_encodings() {
        assert_eq!(emit(|a| a.load(Reg::Rax, 8)), [0x48, 0x8b, 0x47, 0x08]);
        assert_eq!(
            emit(|a| a.load(Reg::R8, 0x100)),
            [0x4c, 0x8b, 0x87, 0x00, 0x01, 0x00, 0x00]
        );
        assert_eq!(emit(|a| a.store(16, Reg::Rcx)), [0x48, 0x89, 0x4f, 0x10]);
        // rsi-based forms address the flat wide-word store.
        assert_eq!(
            emit(|a| a.load_from(Reg::Rsi, Reg::Rax, 8)),
            [0x48, 0x8b, 0x46, 0x08]
        );
        assert_eq!(
            emit(|a| a.store_to(Reg::Rsi, 0x100, Reg::Rdx)),
            [0x48, 0x89, 0x96, 0x00, 0x01, 0x00, 0x00]
        );
        assert_eq!(emit(|a| a.add_rr(Reg::Rax, Reg::Rcx)), [0x48, 0x01, 0xc8]);
        assert_eq!(
            emit(|a| a.imul_rr(Reg::Rax, Reg::Rcx)),
            [0x48, 0x0f, 0xaf, 0xc1]
        );
        assert_eq!(emit(|a| a.shl_cl(Reg::Rax)), [0x48, 0xd3, 0xe0]);
        assert_eq!(emit(|a| a.sar_imm(Reg::Rax, 5)), [0x48, 0xc1, 0xf8, 0x05]);
        assert_eq!(emit(|a| a.setcc(Cc::E, Reg::Rax)), [0x0f, 0x94, 0xc0]);
        assert_eq!(
            emit(|a| a.cmovcc(Cc::Ne, Reg::Rax, Reg::Rdx)),
            [0x48, 0x0f, 0x45, 0xc2]
        );
        assert_eq!(emit(|a| a.xor_clear(Reg::Rdx)), [0x31, 0xd2]);
        assert_eq!(emit(|a| a.mov_rr(Reg::Rdx, Reg::Rax)), [0x48, 0x89, 0xc2]);
        assert_eq!(emit(Asm::ret), [0xc3]);
    }

    /// Sized loads and extensions against hand-assembled references.
    #[test]
    fn sized_load_encodings() {
        // movzx eax, word [rsi+0x11] — no REX.W; 32-bit write zero-extends.
        assert_eq!(
            emit(|a| a.load_zx(Reg::Rsi, Reg::Rax, 0x11, 16)),
            [0x0f, 0xb7, 0x46, 0x11]
        );
        assert_eq!(
            emit(|a| a.load_zx(Reg::Rsi, Reg::Rcx, 4, 8)),
            [0x0f, 0xb6, 0x4e, 0x04]
        );
        // mov eax, dword [rsi+8]
        assert_eq!(
            emit(|a| a.load_zx(Reg::Rsi, Reg::Rax, 8, 32)),
            [0x8b, 0x46, 0x08]
        );
        // movsx rax, word [rdi+0x10]
        assert_eq!(
            emit(|a| a.load_sx(Reg::Rdi, Reg::Rax, 0x10, 16)),
            [0x48, 0x0f, 0xbf, 0x47, 0x10]
        );
        // movsxd rdx, dword [rdi+8]
        assert_eq!(
            emit(|a| a.load_sx(Reg::Rdi, Reg::Rdx, 8, 32)),
            [0x48, 0x63, 0x57, 0x08]
        );
        // movsx rax, cx / movsxd rax, ecx
        assert_eq!(
            emit(|a| a.sx_reg(Reg::Rax, Reg::Rcx, 16)),
            [0x48, 0x0f, 0xbf, 0xc1]
        );
        assert_eq!(
            emit(|a| a.sx_reg(Reg::Rax, Reg::Rcx, 32)),
            [0x48, 0x63, 0xc1]
        );
        // mov eax, eax
        assert_eq!(emit(|a| a.clear_upper32(Reg::Rax)), [0x89, 0xc0]);
    }

    /// The lane-group loop primitives against hand-assembled references.
    #[test]
    fn loop_encodings() {
        // add rdi, 0x20 / add rsi, 0x20 — one 32-byte lane group.
        assert_eq!(emit(|a| a.add_imm8(Reg::Rdi, 32)), [0x48, 0x83, 0xc7, 0x20]);
        assert_eq!(emit(|a| a.add_imm8(Reg::Rsi, 32)), [0x48, 0x83, 0xc6, 0x20]);
        // add r8, -1 — REX.B for the high register, sign-extended imm8.
        assert_eq!(emit(|a| a.add_imm8(Reg::R8, -1)), [0x49, 0x83, 0xc0, 0xff]);
        // dec ecx — 32-bit form, no REX needed for a low register.
        assert_eq!(emit(|a| a.dec32(Reg::Rcx)), [0xff, 0xc9]);
        // jnz to offset 0 from an empty buffer: rel32 = -(2 + 4).
        assert_eq!(
            emit(|a| a.jnz_back(0)),
            [0x0f, 0x85, 0xfa, 0xff, 0xff, 0xff]
        );
        // A body before the branch changes only the displacement:
        // rel32 = top - (2-byte dec + 6-byte jnz) = -8.
        assert_eq!(
            emit(|a| {
                let top = a.len();
                a.dec32(Reg::Rcx);
                a.jnz_back(top);
            }),
            [0xff, 0xc9, 0x0f, 0x85, 0xf8, 0xff, 0xff, 0xff]
        );
    }

    #[test]
    fn immediates_pick_shortest_form() {
        // Zero → xor idiom, imm32 → C7, wide → movabs.
        assert_eq!(emit(|a| a.mov_imm(Reg::Rax, 0)), [0x31, 0xc0]);
        assert_eq!(
            emit(|a| a.mov_imm(Reg::Rax, 0x7f)),
            [0x48, 0xc7, 0xc0, 0x7f, 0x00, 0x00, 0x00]
        );
        let wide = emit(|a| a.mov_imm(Reg::Rax, 0x1234_5678_9abc_def0));
        assert_eq!(&wide[..2], [0x48, 0xb8]);
        assert_eq!(wide.len(), 10);
        assert_eq!(
            emit(|a| a.and_imm32(Reg::Rax, 0xfff)),
            [0x48, 0x81, 0xe0, 0xff, 0x0f, 0x00, 0x00]
        );
    }

    #[test]
    fn zero_shifts_elide() {
        assert!(emit(|a| a.shl_imm(Reg::Rax, 0)).is_empty());
        assert!(emit(|a| a.sar_imm(Reg::Rax, 0)).is_empty());
    }

    /// Every VEX-encoded form against hand-assembled references
    /// (cross-checked with a reference assembler).
    #[test]
    fn vex_move_encodings() {
        // vmovdqu ymm0, [rdi+8] — compact two-byte VEX.
        assert_eq!(
            emit(|a| a.vmovdqu_load(Ymm(0), Reg::Rdi, 8)),
            [0xc5, 0xfe, 0x6f, 0x47, 0x08]
        );
        // vmovdqu ymm8, [rdi+0x100] — R extension clears the R̄ bit.
        assert_eq!(
            emit(|a| a.vmovdqu_load(Ymm(8), Reg::Rdi, 0x100)),
            [0xc5, 0x7e, 0x6f, 0x87, 0x00, 0x01, 0x00, 0x00]
        );
        // vmovdqu [rdi+0x20], ymm1
        assert_eq!(
            emit(|a| a.vmovdqu_store(Reg::Rdi, 0x20, Ymm(1))),
            [0xc5, 0xfe, 0x7f, 0x4f, 0x20]
        );
        // vmovdqa ymm2, [rdi+0] / vmovdqa [rdi+0x40], ymm3
        assert_eq!(
            emit(|a| a.vmovdqa_load(Ymm(2), Reg::Rdi, 0)),
            [0xc5, 0xfd, 0x6f, 0x57, 0x00]
        );
        assert_eq!(
            emit(|a| a.vmovdqa_store(Reg::Rdi, 0x40, Ymm(3))),
            [0xc5, 0xfd, 0x7f, 0x5f, 0x40]
        );
        // vmovdqa ymm15, ymm1
        assert_eq!(
            emit(|a| a.vmovdqa_rr(Ymm(15), Ymm(1))),
            [0xc5, 0x7d, 0x6f, 0xf9]
        );
        // vmovdqu ymm13, [rip+disp32] (placeholder disp)
        assert_eq!(
            emit(|a| {
                let p = a.vmovdqu_rip(Ymm(13));
                assert_eq!(p, 4);
            }),
            [0xc5, 0x7e, 0x6f, 0x2d, 0x00, 0x00, 0x00, 0x00]
        );
    }

    #[test]
    fn vex_alu_encodings() {
        // vpand ymm1, ymm2, ymm3
        assert_eq!(
            emit(|a| a.vpand(Ymm(1), Ymm(2), Ymm(3))),
            [0xc5, 0xed, 0xdb, 0xcb]
        );
        // vpandn ymm0, ymm1, ymm2
        assert_eq!(
            emit(|a| a.vpandn(Ymm(0), Ymm(1), Ymm(2))),
            [0xc5, 0xf5, 0xdf, 0xc2]
        );
        // vpor ymm4, ymm5, ymm6
        assert_eq!(
            emit(|a| a.vpor(Ymm(4), Ymm(5), Ymm(6))),
            [0xc5, 0xd5, 0xeb, 0xe6]
        );
        // vpxor ymm0, ymm0, ymm0
        assert_eq!(
            emit(|a| a.vpxor(Ymm(0), Ymm(0), Ymm(0))),
            [0xc5, 0xfd, 0xef, 0xc0]
        );
        // vpaddq ymm1, ymm1, ymm2 / vpsubq ymm1, ymm1, ymm2
        assert_eq!(
            emit(|a| a.vpaddq(Ymm(1), Ymm(1), Ymm(2))),
            [0xc5, 0xf5, 0xd4, 0xca]
        );
        assert_eq!(
            emit(|a| a.vpsubq(Ymm(1), Ymm(1), Ymm(2))),
            [0xc5, 0xf5, 0xfb, 0xca]
        );
        // vpmuludq ymm0, ymm1, ymm2
        assert_eq!(
            emit(|a| a.vpmuludq(Ymm(0), Ymm(1), Ymm(2))),
            [0xc5, 0xf5, 0xf4, 0xc2]
        );
    }

    #[test]
    fn vex_shift_encodings() {
        // vpsllq ymm1, ymm2, 12 (NDD: dest in vvvv, /6)
        assert_eq!(
            emit(|a| a.vpsllq_imm(Ymm(1), Ymm(2), 12)),
            [0xc5, 0xf5, 0x73, 0xf2, 0x0c]
        );
        // vpsrlq ymm1, ymm2, 63 (/2)
        assert_eq!(
            emit(|a| a.vpsrlq_imm(Ymm(1), Ymm(2), 63)),
            [0xc5, 0xf5, 0x73, 0xd2, 0x3f]
        );
        // Zero counts still emit — they double as register moves.
        assert_eq!(
            emit(|a| a.vpsllq_imm(Ymm(1), Ymm(2), 0)),
            [0xc5, 0xf5, 0x73, 0xf2, 0x00]
        );
        // vpsllvq ymm0, ymm1, ymm2 / vpsrlvq ymm0, ymm1, ymm2 (W1, 0F38)
        assert_eq!(
            emit(|a| a.vpsllvq(Ymm(0), Ymm(1), Ymm(2))),
            [0xc4, 0xe2, 0xf5, 0x47, 0xc2]
        );
        assert_eq!(
            emit(|a| a.vpsrlvq(Ymm(0), Ymm(1), Ymm(2))),
            [0xc4, 0xe2, 0xf5, 0x45, 0xc2]
        );
    }

    #[test]
    fn vex_compare_blend_broadcast_encodings() {
        // vpcmpeqq ymm0, ymm1, ymm2 (W0, 0F38 29)
        assert_eq!(
            emit(|a| a.vpcmpeqq(Ymm(0), Ymm(1), Ymm(2))),
            [0xc4, 0xe2, 0x75, 0x29, 0xc2]
        );
        // vpcmpgtq ymm3, ymm4, ymm5 (0F38 37)
        assert_eq!(
            emit(|a| a.vpcmpgtq(Ymm(3), Ymm(4), Ymm(5))),
            [0xc4, 0xe2, 0x5d, 0x37, 0xdd]
        );
        // vpblendvb ymm0, ymm1, ymm2, ymm3 (0F3A 4C, mask in is4)
        assert_eq!(
            emit(|a| a.vpblendvb(Ymm(0), Ymm(1), Ymm(2), Ymm(3))),
            [0xc4, 0xe3, 0x75, 0x4c, 0xc2, 0x30]
        );
        // vpbroadcastq ymm1, xmm0 (0F38 59)
        assert_eq!(
            emit(|a| a.vpbroadcastq(Ymm(1), Ymm(0))),
            [0xc4, 0xe2, 0x7d, 0x59, 0xc8]
        );
        // vpbroadcastq ymm0, qword [rip+disp32]
        assert_eq!(
            emit(|a| {
                let p = a.vpbroadcastq_rip(Ymm(0));
                assert_eq!(p, 5);
            }),
            [0xc4, 0xe2, 0x7d, 0x59, 0x05, 0x00, 0x00, 0x00, 0x00]
        );
    }

    #[test]
    fn vex_masked_store_and_misc_encodings() {
        // vpmaskmovq [rdi+8], ymm1, ymm2 (W1, 0F38 8E; mask in vvvv)
        assert_eq!(
            emit(|a| a.vpmaskmovq_store(Reg::Rdi, 8, Ymm(1), Ymm(2))),
            [0xc4, 0xe2, 0xf5, 0x8e, 0x57, 0x08]
        );
        // vpmaskmovq ymm2, ymm1, [rdi+8] (8C)
        assert_eq!(
            emit(|a| a.vpmaskmovq_load(Ymm(2), Ymm(1), Reg::Rdi, 8)),
            [0xc4, 0xe2, 0xf5, 0x8c, 0x57, 0x08]
        );
        assert_eq!(emit(Asm::vzeroupper), [0xc5, 0xf8, 0x77]);
    }

    #[test]
    fn pool_patching_round_trips() {
        let mut a = Asm::new();
        let pos = a.vpbroadcastq_rip(Ymm(6));
        a.vzeroupper();
        a.ret();
        a.align_to(8);
        let pool = a.len();
        a.emit_u64(0xdead_beef_cafe_f00d);
        a.patch_disp32(pos, (pool - (pos + 4)) as i32);
        assert!(a.len().is_multiple_of(8));
        let disp = i32::from_le_bytes(a.bytes()[pos..pos + 4].try_into().unwrap());
        // The load's next-instruction address plus the patched disp lands
        // exactly on the pool word.
        assert_eq!(pos + 4 + disp as usize, pool);
        assert_eq!(
            &a.bytes()[pool..pool + 8],
            &0xdead_beef_cafe_f00du64.to_le_bytes()
        );
    }
}
