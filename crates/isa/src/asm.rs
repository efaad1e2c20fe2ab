//! Two-pass assembler for TRISC assembly source.
//!
//! # Syntax
//!
//! ```text
//! ; comment        # comment        // comment
//!         .text                ; switch to the text section (default)
//!         .data                ; switch to the data section
//!         .align 2             ; align data to 2^n bytes
//! main:   addi  a0, zero, 10   ; labels end with ':'
//!         la    t0, table      ; pseudo: lui+ori
//!         lw    t1, 4(t0)      ; memory operands are off(base)
//!         beqz  t1, done       ; pseudo branches
//!         jal   helper
//! done:   halt
//! table:  .word 1, 2, -3, done ; words may reference labels
//! buf:    .space 64
//! msg:    .asciiz "hi"
//! ```
//!
//! Pseudo-instructions: `nop`, `move`, `li`, `la`, `b`, `call`, `ret`, `not`,
//! `neg`, `subi`, `bgt`, `ble`, `bgtu`, `bleu`, `beqz`, `bnez`, `bltz`,
//! `bgez`, `blez`, `bgtz`, `jalr rs` (implicit `ra` destination).
//! Relocation operators `%hi(sym)`/`%lo(sym)` work in `lui`/`ori`/`addi` and
//! memory offsets.

use crate::program::{DATA_BASE, TEXT_BASE};
use crate::{Instr, Program, Reg};
use std::collections::HashMap;
use std::fmt;

/// Error produced while assembling, with a 1-based source line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number the error occurred on.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

/// Section bases used when assembling.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AsmOptions {
    /// Base address of the text segment.
    pub text_base: u32,
    /// Base address of the data segment.
    pub data_base: u32,
}

impl Default for AsmOptions {
    fn default() -> AsmOptions {
        AsmOptions {
            text_base: TEXT_BASE,
            data_base: DATA_BASE,
        }
    }
}

/// Assembles source text into a [`Program`] with the default layout.
///
/// Execution starts at the `main` label if one is defined, otherwise at the
/// first instruction.
///
/// # Errors
///
/// Returns an [`AsmError`] naming the offending line for syntax errors,
/// unknown mnemonics/registers, duplicate or undefined labels, and
/// out-of-range immediates or branch offsets.
///
/// ```
/// use ntp_isa::asm::assemble;
/// let p = assemble("loop: addi v0, v0, 1\n bne v0, a0, loop\n halt\n")?;
/// assert_eq!(p.instrs.len(), 3);
/// # Ok::<(), ntp_isa::asm::AsmError>(())
/// ```
pub fn assemble(src: &str) -> Result<Program, AsmError> {
    assemble_with(src, &AsmOptions::default())
}

/// Assembles with explicit section base addresses.
///
/// # Errors
///
/// As for [`assemble`].
pub fn assemble_with(src: &str, opts: &AsmOptions) -> Result<Program, AsmError> {
    Assembler::new(*opts).run(src)
}

// ---------------------------------------------------------------------------
// expressions
// ---------------------------------------------------------------------------

/// A symbolic expression awaiting label resolution.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Expr {
    Const(i64),
    /// symbol + addend
    Sym(String, i64),
    Hi(Box<Expr>),
    Lo(Box<Expr>),
}

impl Expr {
    fn eval(&self, symbols: &HashMap<String, u32>) -> Result<i64, String> {
        match self {
            Expr::Const(v) => Ok(*v),
            Expr::Sym(name, add) => symbols
                .get(name)
                .map(|&a| a as i64 + add)
                .ok_or_else(|| format!("undefined label `{name}`")),
            Expr::Hi(e) => Ok(((e.eval(symbols)? as u32) >> 16) as i64),
            Expr::Lo(e) => Ok(((e.eval(symbols)? as u32) & 0xFFFF) as i64),
        }
    }

    fn plus(self, rhs: Expr, line: usize) -> Result<Expr, AsmError> {
        match (self, rhs) {
            (Expr::Const(a), Expr::Const(b)) => Ok(Expr::Const(a + b)),
            (Expr::Sym(s, a), Expr::Const(b)) | (Expr::Const(b), Expr::Sym(s, a)) => {
                Ok(Expr::Sym(s, a + b))
            }
            _ => Err(err(line, "unsupported expression arithmetic")),
        }
    }
}

// ---------------------------------------------------------------------------
// pending (pass-2) instructions
// ---------------------------------------------------------------------------

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum BrOp {
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum ImmOp {
    Addi,
    Andi,
    Ori,
    Xori,
    Slti,
    Sltiu,
    Lw,
    Lh,
    Lhu,
    Lb,
    Lbu,
    Sw,
    Sh,
    Sb,
}

impl ImmOp {
    fn signed(self) -> bool {
        !matches!(self, ImmOp::Andi | ImmOp::Ori | ImmOp::Xori)
    }

    fn build(self, a: Reg, b: Reg, v: i64) -> Instr {
        let s = v as i16;
        let u = v as u16;
        match self {
            ImmOp::Addi => Instr::Addi(a, b, s),
            ImmOp::Andi => Instr::Andi(a, b, u),
            ImmOp::Ori => Instr::Ori(a, b, u),
            ImmOp::Xori => Instr::Xori(a, b, u),
            ImmOp::Slti => Instr::Slti(a, b, s),
            ImmOp::Sltiu => Instr::Sltiu(a, b, s),
            ImmOp::Lw => Instr::Lw(a, b, s),
            ImmOp::Lh => Instr::Lh(a, b, s),
            ImmOp::Lhu => Instr::Lhu(a, b, s),
            ImmOp::Lb => Instr::Lb(a, b, s),
            ImmOp::Lbu => Instr::Lbu(a, b, s),
            ImmOp::Sw => Instr::Sw(a, b, s),
            ImmOp::Sh => Instr::Sh(a, b, s),
            ImmOp::Sb => Instr::Sb(a, b, s),
        }
    }
}

#[derive(Clone, Debug)]
enum PInstr {
    Ready(Instr),
    Br(BrOp, Reg, Reg, Expr),
    Jmp { link: bool, target: Expr },
    WithImm(ImmOp, Reg, Reg, Expr),
    Lui(Reg, Expr),
}

#[derive(Clone, Debug)]
enum DataItem {
    Word(Expr),
    Half(Expr),
    Byte(Expr),
    Space(u32),
    Bytes(Vec<u8>),
    Align(u32),
}

fn err(line: usize, msg: impl Into<String>) -> AsmError {
    AsmError {
        line,
        msg: msg.into(),
    }
}

// ---------------------------------------------------------------------------
// tokenizer
// ---------------------------------------------------------------------------

/// One token, borrowing identifiers from the source line: a `.word` table
/// of tens of thousands of entries lexes without allocating.
#[derive(Clone, Debug, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Int(i64),
    Str(Vec<u8>),
    Punct(char),
}

fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    // Most lines hold none of the bytes that matter here: one pass without
    // an early exit (so it vectorises) finds that out.
    if !bytes.iter().fold(false, |seen, &b| {
        seen | matches!(b, b';' | b'#' | b'/' | b'"')
    }) {
        return line;
    }
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if in_str {
            if c == '\\' {
                i += 1;
            } else if c == '"' {
                in_str = false;
            }
        } else if c == '"' {
            in_str = true;
        } else if c == ';' || c == '#' || (c == '/' && i + 1 < bytes.len() && bytes[i + 1] == b'/')
        {
            return &line[..i];
        }
        i += 1;
    }
    line
}

fn unescape(c: char) -> u8 {
    match c {
        'n' => b'\n',
        't' => b'\t',
        'r' => b'\r',
        '0' => 0,
        other => other as u8,
    }
}

/// Appends the tokens of one comment-free line to `toks`.
fn tokenize<'a>(line: &'a str, lineno: usize, toks: &mut Vec<Tok<'a>>) -> Result<(), AsmError> {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            // `char::is_whitespace` on ASCII.
            b' ' | b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r' => i += 1,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'.' => {
                let end = run_end(bytes, i + 1, IDENT_CONT);
                toks.push(Tok::Ident(&line[i..end]));
                i = end;
            }
            b'0'..=b'9' => {
                let end = run_end(bytes, i + 1, NUMBER_CONT);
                toks.push(Tok::Int(lex_number(&line[i..end], lineno)?));
                i = end;
            }
            b'\'' => {
                let mut chars = line[i + 1..].chars();
                let mut v = chars
                    .next()
                    .ok_or_else(|| err(lineno, "unterminated char literal"))?;
                if v == '\\' {
                    v = chars
                        .next()
                        .ok_or_else(|| err(lineno, "unterminated char literal"))?;
                    v = unescape(v) as char;
                }
                if chars.next() != Some('\'') {
                    return Err(err(lineno, "unterminated char literal"));
                }
                toks.push(Tok::Int(v as i64));
                i = line.len() - chars.as_str().len();
            }
            b'"' => {
                let mut chars = line[i + 1..].chars();
                let mut bytes = Vec::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some('\\') => {
                            let e = chars
                                .next()
                                .ok_or_else(|| err(lineno, "unterminated string"))?;
                            bytes.push(unescape(e));
                        }
                        Some(ch) => bytes.push(ch as u8),
                        None => return Err(err(lineno, "unterminated string")),
                    }
                }
                toks.push(Tok::Str(bytes));
                i = line.len() - chars.as_str().len();
            }
            b @ (b'(' | b')' | b',' | b':' | b'%' | b'+' | b'-') => {
                toks.push(Tok::Punct(b as char));
                i += 1;
            }
            _ => {
                let c = line[i..].chars().next().expect("i is a char boundary");
                if !c.is_whitespace() {
                    return Err(err(lineno, format!("unexpected character `{c}`")));
                }
                i += c.len_utf8();
            }
        }
    }
    Ok(())
}

/// [`BYTE_CLASS`] bit of bytes that continue an identifier.
const IDENT_CONT: u8 = 1;
/// [`BYTE_CLASS`] bit of bytes that continue a numeric literal.
const NUMBER_CONT: u8 = 2;

/// Per-byte class bits: one table load per byte instead of a chain of
/// range compares keeps long `.word` tables cheap to lex.
static BYTE_CLASS: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        if c.is_ascii_alphanumeric() || c == b'_' {
            table[b] = IDENT_CONT | NUMBER_CONT;
        } else if c == b'.' {
            table[b] = IDENT_CONT;
        }
        b += 1;
    }
    table
};

/// The end of the run of bytes of class `class` from `at`.
#[inline]
fn run_end(bytes: &[u8], mut at: usize, class: u8) -> usize {
    while at < bytes.len() && BYTE_CLASS[bytes[at] as usize] & class != 0 {
        at += 1;
    }
    at
}

/// Parses one numeric literal (decimal, `0x` hex or `0b` binary, `_`
/// separators allowed).
fn lex_number(text: &str, lineno: usize) -> Result<i64, AsmError> {
    let s: std::borrow::Cow<'_, str> = if text.contains('_') {
        text.replace('_', "").into()
    } else {
        text.into()
    };
    let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).map(|v| v as i64)
    } else if let Some(bin) = s.strip_prefix("0b").or_else(|| s.strip_prefix("0B")) {
        u64::from_str_radix(bin, 2).map(|v| v as i64)
    } else {
        s.parse::<i64>()
    };
    parsed.map_err(|_| err(lineno, format!("bad number `{s}`")))
}

// ---------------------------------------------------------------------------
// operand parser
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Operand {
    Reg(Reg),
    Expr(Expr),
    Mem(Expr, Reg),
}

struct Cursor<'a> {
    toks: &'a [Tok<'a>],
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<&'a Tok<'a>> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<&'a Tok<'a>> {
        let t = self.toks.get(self.pos);
        self.pos += 1;
        t
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.peek() == Some(&Tok::Punct(c)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, c: char) -> Result<(), AsmError> {
        if self.eat_punct(c) {
            Ok(())
        } else {
            Err(err(self.line, format!("expected `{c}`")))
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn parse_primary(&mut self) -> Result<Expr, AsmError> {
        let line = self.line;
        if self.eat_punct('-') {
            let e = self.parse_primary()?;
            return match e {
                Expr::Const(v) => Ok(Expr::Const(-v)),
                _ => Err(err(line, "cannot negate a symbol")),
            };
        }
        if self.eat_punct('%') {
            let name = match self.next() {
                Some(Tok::Ident(s)) => *s,
                _ => return Err(err(line, "expected hi/lo after `%`")),
            };
            self.expect_punct('(')?;
            let inner = self.parse_expr()?;
            self.expect_punct(')')?;
            return match name {
                "hi" => Ok(Expr::Hi(Box::new(inner))),
                "lo" => Ok(Expr::Lo(Box::new(inner))),
                other => Err(err(line, format!("unknown relocation `%{other}`"))),
            };
        }
        match self.next() {
            Some(Tok::Int(v)) => Ok(Expr::Const(*v)),
            Some(Tok::Ident(s)) => Ok(Expr::Sym(s.to_string(), 0)),
            _ => Err(err(line, "expected expression")),
        }
    }

    fn parse_expr(&mut self) -> Result<Expr, AsmError> {
        let mut e = self.parse_primary()?;
        loop {
            if self.eat_punct('+') {
                let rhs = self.parse_primary()?;
                e = e.plus(rhs, self.line)?;
            } else if self.eat_punct('-') {
                let rhs = self.parse_primary()?;
                let rhs = match rhs {
                    Expr::Const(v) => Expr::Const(-v),
                    _ => return Err(err(self.line, "cannot subtract a symbol")),
                };
                e = e.plus(rhs, self.line)?;
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn parse_operand(&mut self) -> Result<Operand, AsmError> {
        let line = self.line;
        // Register?
        if let Some(Tok::Ident(s)) = self.peek() {
            if let Some(r) = Reg::from_name(s) {
                self.pos += 1;
                return Ok(Operand::Reg(r));
            }
        }
        // `(reg)` with implicit zero offset.
        if self.peek() == Some(&Tok::Punct('(')) {
            self.pos += 1;
            let r = self.parse_reg()?;
            self.expect_punct(')')?;
            return Ok(Operand::Mem(Expr::Const(0), r));
        }
        let e = self.parse_expr()?;
        if self.eat_punct('(') {
            let r = self.parse_reg()?;
            self.expect_punct(')')?;
            return Ok(Operand::Mem(e, r));
        }
        let _ = line;
        Ok(Operand::Expr(e))
    }

    fn parse_reg(&mut self) -> Result<Reg, AsmError> {
        match self.next() {
            Some(Tok::Ident(s)) => {
                Reg::from_name(s).ok_or_else(|| err(self.line, format!("unknown register `{s}`")))
            }
            _ => Err(err(self.line, "expected register")),
        }
    }

    fn parse_operands(&mut self) -> Result<Vec<Operand>, AsmError> {
        let mut ops = Vec::new();
        if self.at_end() {
            return Ok(ops);
        }
        loop {
            ops.push(self.parse_operand()?);
            if !self.eat_punct(',') {
                break;
            }
        }
        if !self.at_end() {
            return Err(err(self.line, "trailing tokens after operands"));
        }
        Ok(ops)
    }
}

// ---------------------------------------------------------------------------
// the assembler proper
// ---------------------------------------------------------------------------

#[derive(Copy, Clone, PartialEq, Eq)]
enum Section {
    Text,
    Data,
}

struct Assembler {
    opts: AsmOptions,
    section: Section,
    text: Vec<(usize, PInstr)>,
    data: Vec<(usize, DataItem)>,
    symbols: HashMap<String, u32>,
    data_len: u32,
}

impl Assembler {
    fn new(opts: AsmOptions) -> Assembler {
        Assembler {
            opts,
            section: Section::Text,
            text: Vec::new(),
            data: Vec::new(),
            symbols: HashMap::new(),
            data_len: 0,
        }
    }

    fn run(mut self, src: &str) -> Result<Program, AsmError> {
        // Pass 1: parse everything, assign addresses, collect symbols.
        let mut toks = Vec::new();
        for (idx, raw) in src.lines().enumerate() {
            let lineno = idx + 1;
            toks.clear();
            tokenize(strip_comment(raw), lineno, &mut toks)?;
            self.line(&toks, lineno)?;
        }

        // Pass 2: resolve expressions and emit.
        let mut program = Program {
            text_base: self.opts.text_base,
            instrs: Vec::with_capacity(self.text.len()),
            data_base: self.opts.data_base,
            data: Vec::with_capacity(self.data_len as usize),
            entry: self.opts.text_base,
            symbols: self.symbols,
        };

        for (n, (lineno, pi)) in self.text.iter().enumerate() {
            let pc = self.opts.text_base + (n as u32) * 4;
            let instr = emit(pi, pc, &program.symbols, *lineno)?;
            program.instrs.push(instr);
        }

        for (lineno, item) in &self.data {
            emit_data(item, &mut program.data, &program.symbols, *lineno)?;
        }
        debug_assert_eq!(program.data.len() as u32, self.data_len);

        if let Some(&main) = program.symbols.get("main") {
            program.entry = main;
        }
        Ok(program)
    }

    fn here(&self) -> u32 {
        match self.section {
            Section::Text => self.opts.text_base + (self.text.len() as u32) * 4,
            Section::Data => self.opts.data_base + self.data_len,
        }
    }

    fn line(&mut self, toks: &[Tok<'_>], lineno: usize) -> Result<(), AsmError> {
        let mut pos = 0;
        // Labels.
        while pos + 1 < toks.len() + 1 {
            if let (Some(Tok::Ident(name)), Some(Tok::Punct(':'))) =
                (toks.get(pos), toks.get(pos + 1))
            {
                if Reg::from_name(name).is_some() {
                    return Err(err(lineno, format!("label `{name}` shadows a register")));
                }
                let addr = self.here();
                if self.symbols.insert(name.to_string(), addr).is_some() {
                    return Err(err(lineno, format!("duplicate label `{name}`")));
                }
                pos += 2;
            } else {
                break;
            }
        }
        let rest = &toks[pos..];
        if rest.is_empty() {
            return Ok(());
        }
        let head = match &rest[0] {
            Tok::Ident(s) => *s,
            _ => return Err(err(lineno, "expected mnemonic or directive")),
        };
        let mut cur = Cursor {
            toks: &rest[1..],
            pos: 0,
            line: lineno,
        };
        if head.starts_with('.') {
            self.directive(head, &mut cur)
        } else {
            self.instruction(head, &mut cur)
        }
    }

    fn directive(&mut self, name: &str, cur: &mut Cursor<'_>) -> Result<(), AsmError> {
        let line = cur.line;
        match name {
            ".text" => {
                self.section = Section::Text;
                Ok(())
            }
            ".data" => {
                self.section = Section::Data;
                Ok(())
            }
            ".globl" | ".global" | ".ent" | ".end" => {
                // Accepted for compatibility; we export all labels anyway.
                while cur.next().is_some() {}
                Ok(())
            }
            ".word" | ".half" | ".byte" => {
                if self.section != Section::Data {
                    return Err(err(line, format!("`{name}` outside .data")));
                }
                let (size, make): (u32, fn(Expr) -> DataItem) = match name {
                    ".word" => (4, DataItem::Word),
                    ".half" => (2, DataItem::Half),
                    _ => (1, DataItem::Byte),
                };
                loop {
                    // A bare constant, the bulk of a generated table, needs
                    // no expression parse.
                    let e = match (cur.peek(), cur.toks.get(cur.pos + 1)) {
                        (Some(Tok::Int(v)), None | Some(Tok::Punct(','))) => {
                            cur.pos += 1;
                            Expr::Const(*v)
                        }
                        _ => cur.parse_expr()?,
                    };
                    self.data.push((line, make(e)));
                    self.data_len += size;
                    if !cur.eat_punct(',') {
                        break;
                    }
                }
                if !cur.at_end() {
                    return Err(err(line, "trailing tokens"));
                }
                Ok(())
            }
            ".space" => {
                if self.section != Section::Data {
                    return Err(err(line, "`.space` outside .data"));
                }
                let n = const_expr(cur, line)?;
                if !(0..=(64 << 20)).contains(&n) {
                    return Err(err(line, "unreasonable .space size"));
                }
                self.data.push((line, DataItem::Space(n as u32)));
                self.data_len += n as u32;
                Ok(())
            }
            ".align" => {
                if self.section != Section::Data {
                    return Err(err(line, "`.align` outside .data"));
                }
                let n = const_expr(cur, line)?;
                if !(0..=16).contains(&n) {
                    return Err(err(line, "alignment out of range"));
                }
                let align = 1u32 << n;
                let here = self.data_len;
                let pad = (align - (here % align)) % align;
                self.data.push((line, DataItem::Align(pad)));
                self.data_len += pad;
                Ok(())
            }
            ".ascii" | ".asciiz" => {
                if self.section != Section::Data {
                    return Err(err(line, format!("`{name}` outside .data")));
                }
                let mut bytes = match cur.next() {
                    Some(Tok::Str(b)) => b.clone(),
                    _ => return Err(err(line, "expected string literal")),
                };
                if name == ".asciiz" {
                    bytes.push(0);
                }
                self.data_len += bytes.len() as u32;
                self.data.push((line, DataItem::Bytes(bytes)));
                if !cur.at_end() {
                    return Err(err(line, "trailing tokens"));
                }
                Ok(())
            }
            other => Err(err(line, format!("unknown directive `{other}`"))),
        }
    }

    fn push(&mut self, line: usize, pi: PInstr) -> Result<(), AsmError> {
        if self.section != Section::Text {
            return Err(err(line, "instruction outside .text"));
        }
        self.text.push((line, pi));
        Ok(())
    }

    fn instruction(&mut self, m: &str, cur: &mut Cursor<'_>) -> Result<(), AsmError> {
        let line = cur.line;
        let ops = cur.parse_operands()?;
        let pis = lower(m, &ops, line)?;
        for pi in pis {
            self.push(line, pi)?;
        }
        Ok(())
    }
}

fn const_expr(cur: &mut Cursor<'_>, line: usize) -> Result<i64, AsmError> {
    let e = cur.parse_expr()?;
    if !cur.at_end() {
        return Err(err(line, "trailing tokens"));
    }
    match e {
        Expr::Const(v) => Ok(v),
        _ => Err(err(line, "expected a constant")),
    }
}

// ---------------------------------------------------------------------------
// mnemonic lowering (including pseudo-instructions)
// ---------------------------------------------------------------------------

fn want_regs3(ops: &[Operand], line: usize) -> Result<(Reg, Reg, Reg), AsmError> {
    match ops {
        [Operand::Reg(a), Operand::Reg(b), Operand::Reg(c)] => Ok((*a, *b, *c)),
        _ => Err(err(line, "expected three registers")),
    }
}

fn want_regs2(ops: &[Operand], line: usize) -> Result<(Reg, Reg), AsmError> {
    match ops {
        [Operand::Reg(a), Operand::Reg(b)] => Ok((*a, *b)),
        _ => Err(err(line, "expected two registers")),
    }
}

fn want_rr_expr(ops: &[Operand], line: usize) -> Result<(Reg, Reg, Expr), AsmError> {
    match ops {
        [Operand::Reg(a), Operand::Reg(b), Operand::Expr(e)] => Ok((*a, *b, e.clone())),
        _ => Err(err(line, "expected reg, reg, expression")),
    }
}

fn want_r_expr(ops: &[Operand], line: usize) -> Result<(Reg, Expr), AsmError> {
    match ops {
        [Operand::Reg(a), Operand::Expr(e)] => Ok((*a, e.clone())),
        _ => Err(err(line, "expected reg, expression")),
    }
}

fn want_mem(ops: &[Operand], line: usize) -> Result<(Reg, Reg, Expr), AsmError> {
    match ops {
        [Operand::Reg(a), Operand::Mem(e, b)] => Ok((*a, *b, e.clone())),
        // Also accept `lw rd, sym` as absolute addressing via r0? Reject: explicit is better.
        _ => Err(err(line, "expected reg, offset(base)")),
    }
}

fn lower(m: &str, ops: &[Operand], line: usize) -> Result<Vec<PInstr>, AsmError> {
    use PInstr::*;
    let one = |pi: PInstr| Ok(vec![pi]);
    match m {
        // ---- real three-register ALU ----
        "add" | "sub" | "and" | "or" | "xor" | "nor" | "slt" | "sltu" | "sllv" | "srlv"
        | "srav" | "mul" | "div" | "divu" | "rem" | "remu" => {
            let (d, s, t) = want_regs3(ops, line)?;
            let i = match m {
                "add" => Instr::Add(d, s, t),
                "sub" => Instr::Sub(d, s, t),
                "and" => Instr::And(d, s, t),
                "or" => Instr::Or(d, s, t),
                "xor" => Instr::Xor(d, s, t),
                "nor" => Instr::Nor(d, s, t),
                "slt" => Instr::Slt(d, s, t),
                "sltu" => Instr::Sltu(d, s, t),
                "sllv" => Instr::Sllv(d, s, t),
                "srlv" => Instr::Srlv(d, s, t),
                "srav" => Instr::Srav(d, s, t),
                "mul" => Instr::Mul(d, s, t),
                "div" => Instr::Div(d, s, t),
                "divu" => Instr::Divu(d, s, t),
                "rem" => Instr::Rem(d, s, t),
                _ => Instr::Remu(d, s, t),
            };
            one(Ready(i))
        }
        // ---- shift immediates ----
        "sll" | "srl" | "sra" => {
            let (d, s, e) = want_rr_expr(ops, line)?;
            let sh = match e {
                Expr::Const(v) if (0..32).contains(&v) => v as u8,
                _ => return Err(err(line, "shift amount must be 0..32")),
            };
            let i = match m {
                "sll" => Instr::Sll(d, s, sh),
                "srl" => Instr::Srl(d, s, sh),
                _ => Instr::Sra(d, s, sh),
            };
            one(Ready(i))
        }
        // ---- immediate ALU ----
        "addi" | "andi" | "ori" | "xori" | "slti" | "sltiu" => {
            let (d, s, e) = want_rr_expr(ops, line)?;
            let op = match m {
                "addi" => ImmOp::Addi,
                "andi" => ImmOp::Andi,
                "ori" => ImmOp::Ori,
                "xori" => ImmOp::Xori,
                "slti" => ImmOp::Slti,
                _ => ImmOp::Sltiu,
            };
            one(WithImm(op, d, s, e))
        }
        "subi" => {
            let (d, s, e) = want_rr_expr(ops, line)?;
            let e = match e {
                Expr::Const(v) => Expr::Const(-v),
                _ => return Err(err(line, "subi needs a constant")),
            };
            one(WithImm(ImmOp::Addi, d, s, e))
        }
        "lui" => {
            let (d, e) = want_r_expr(ops, line)?;
            one(Lui(d, e))
        }
        // ---- memory ----
        "lw" | "lh" | "lhu" | "lb" | "lbu" | "sw" | "sh" | "sb" => {
            let (r, b, e) = want_mem(ops, line)?;
            let op = match m {
                "lw" => ImmOp::Lw,
                "lh" => ImmOp::Lh,
                "lhu" => ImmOp::Lhu,
                "lb" => ImmOp::Lb,
                "lbu" => ImmOp::Lbu,
                "sw" => ImmOp::Sw,
                "sh" => ImmOp::Sh,
                _ => ImmOp::Sb,
            };
            one(WithImm(op, r, b, e))
        }
        // ---- branches ----
        "beq" | "bne" | "blt" | "bge" | "bltu" | "bgeu" => {
            let (s, t, e) = want_rr_expr(ops, line)?;
            let op = match m {
                "beq" => BrOp::Beq,
                "bne" => BrOp::Bne,
                "blt" => BrOp::Blt,
                "bge" => BrOp::Bge,
                "bltu" => BrOp::Bltu,
                _ => BrOp::Bgeu,
            };
            one(Br(op, s, t, e))
        }
        "bgt" | "ble" | "bgtu" | "bleu" => {
            let (s, t, e) = want_rr_expr(ops, line)?;
            let op = match m {
                "bgt" => BrOp::Blt,
                "ble" => BrOp::Bge,
                "bgtu" => BrOp::Bltu,
                _ => BrOp::Bgeu,
            };
            one(Br(op, t, s, e))
        }
        "beqz" | "bnez" | "bltz" | "bgez" | "blez" | "bgtz" => {
            let (s, e) = want_r_expr(ops, line)?;
            let pi = match m {
                "beqz" => Br(BrOp::Beq, s, Reg::ZERO, e),
                "bnez" => Br(BrOp::Bne, s, Reg::ZERO, e),
                "bltz" => Br(BrOp::Blt, s, Reg::ZERO, e),
                "bgez" => Br(BrOp::Bge, s, Reg::ZERO, e),
                "blez" => Br(BrOp::Bge, Reg::ZERO, s, e),
                _ => Br(BrOp::Blt, Reg::ZERO, s, e),
            };
            one(pi)
        }
        // ---- jumps ----
        "j" | "b" => match ops {
            [Operand::Expr(e)] => one(Jmp {
                link: false,
                target: e.clone(),
            }),
            _ => Err(err(line, "expected a target")),
        },
        "jal" | "call" => match ops {
            [Operand::Expr(e)] => one(Jmp {
                link: true,
                target: e.clone(),
            }),
            _ => Err(err(line, "expected a target")),
        },
        "jr" => match ops {
            [Operand::Reg(s)] => one(Ready(Instr::Jr(*s))),
            _ => Err(err(line, "expected a register")),
        },
        "jalr" => match ops {
            [Operand::Reg(s)] => one(Ready(Instr::Jalr(Reg::RA, *s))),
            [Operand::Reg(d), Operand::Reg(s)] => one(Ready(Instr::Jalr(*d, *s))),
            _ => Err(err(line, "expected jalr [rd,] rs")),
        },
        "ret" => {
            if !ops.is_empty() {
                return Err(err(line, "ret takes no operands"));
            }
            one(Ready(Instr::Jr(Reg::RA)))
        }
        // ---- system ----
        "halt" => {
            if !ops.is_empty() {
                return Err(err(line, "halt takes no operands"));
            }
            one(Ready(Instr::Halt))
        }
        "out" => match ops {
            [Operand::Reg(s)] => one(Ready(Instr::Out(*s))),
            _ => Err(err(line, "expected a register")),
        },
        "nop" => {
            if !ops.is_empty() {
                return Err(err(line, "nop takes no operands"));
            }
            one(Ready(Instr::Sll(Reg::ZERO, Reg::ZERO, 0)))
        }
        // ---- pseudo data movement ----
        "move" | "mov" => {
            let (d, s) = want_regs2(ops, line)?;
            one(Ready(Instr::Add(d, s, Reg::ZERO)))
        }
        "not" => {
            let (d, s) = want_regs2(ops, line)?;
            one(Ready(Instr::Nor(d, s, Reg::ZERO)))
        }
        "neg" => {
            let (d, s) = want_regs2(ops, line)?;
            one(Ready(Instr::Sub(d, Reg::ZERO, s)))
        }
        "li" => {
            let (d, e) = want_r_expr(ops, line)?;
            let v = match e {
                Expr::Const(v) => v,
                _ => return Err(err(line, "li needs a constant; use la for labels")),
            };
            if !(-(1i64 << 31)..=(u32::MAX as i64)).contains(&v) {
                return Err(err(line, "li constant out of 32-bit range"));
            }
            let v32 = v as u32;
            if (-32768..=32767).contains(&(v32 as i32 as i64)) || (-32768..=32767).contains(&v) {
                Ok(vec![Ready(Instr::Addi(d, Reg::ZERO, v as i16))])
            } else if v32 & 0xFFFF == 0 {
                Ok(vec![Ready(Instr::Lui(d, (v32 >> 16) as u16))])
            } else {
                Ok(vec![
                    Ready(Instr::Lui(d, (v32 >> 16) as u16)),
                    Ready(Instr::Ori(d, d, (v32 & 0xFFFF) as u16)),
                ])
            }
        }
        "la" => {
            let (d, e) = want_r_expr(ops, line)?;
            Ok(vec![
                Lui(d, Expr::Hi(Box::new(e.clone()))),
                WithImm(ImmOp::Ori, d, d, Expr::Lo(Box::new(e))),
            ])
        }
        other => Err(err(line, format!("unknown mnemonic `{other}`"))),
    }
}

// ---------------------------------------------------------------------------
// pass-2 emission
// ---------------------------------------------------------------------------

fn emit(
    pi: &PInstr,
    pc: u32,
    symbols: &HashMap<String, u32>,
    line: usize,
) -> Result<Instr, AsmError> {
    match pi {
        PInstr::Ready(i) => Ok(*i),
        PInstr::Br(op, s, t, e) => {
            let target = e.eval(symbols).map_err(|m| err(line, m))? as u32;
            if target & 3 != 0 {
                return Err(err(line, "branch target not word-aligned"));
            }
            let delta = (target as i64) - (pc as i64 + 4);
            let words = delta / 4;
            if delta % 4 != 0 || !(-32768..=32767).contains(&words) {
                return Err(err(line, "branch target out of range"));
            }
            let off = words as i16;
            let i = match op {
                BrOp::Beq => Instr::Beq(*s, *t, off),
                BrOp::Bne => Instr::Bne(*s, *t, off),
                BrOp::Blt => Instr::Blt(*s, *t, off),
                BrOp::Bge => Instr::Bge(*s, *t, off),
                BrOp::Bltu => Instr::Bltu(*s, *t, off),
                BrOp::Bgeu => Instr::Bgeu(*s, *t, off),
            };
            Ok(i)
        }
        PInstr::Jmp { link, target } => {
            let t = target.eval(symbols).map_err(|m| err(line, m))? as u32;
            if t & 3 != 0 {
                return Err(err(line, "jump target not word-aligned"));
            }
            if (t & 0xF000_0000) != ((pc + 4) & 0xF000_0000) {
                return Err(err(line, "jump target outside the 256MB region"));
            }
            let field = (t >> 2) & 0x03FF_FFFF;
            Ok(if *link {
                Instr::Jal(field)
            } else {
                Instr::J(field)
            })
        }
        PInstr::WithImm(op, a, b, e) => {
            let v = e.eval(symbols).map_err(|m| err(line, m))?;
            if op.signed() {
                if !(-32768..=32767).contains(&v) {
                    return Err(err(
                        line,
                        format!("immediate {v} out of signed 16-bit range"),
                    ));
                }
            } else if !(0..=65535).contains(&v) {
                return Err(err(
                    line,
                    format!("immediate {v} out of unsigned 16-bit range"),
                ));
            }
            Ok(op.build(*a, *b, v))
        }
        PInstr::Lui(d, e) => {
            let v = e.eval(symbols).map_err(|m| err(line, m))?;
            if !(0..=65535).contains(&v) {
                return Err(err(line, format!("lui immediate {v} out of range")));
            }
            Ok(Instr::Lui(*d, v as u16))
        }
    }
}

fn emit_data(
    item: &DataItem,
    out: &mut Vec<u8>,
    symbols: &HashMap<String, u32>,
    line: usize,
) -> Result<(), AsmError> {
    match item {
        DataItem::Word(e) => {
            let v = e.eval(symbols).map_err(|m| err(line, m))?;
            if !((i32::MIN as i64)..=(u32::MAX as i64)).contains(&v) {
                return Err(err(line, ".word value out of 32-bit range"));
            }
            out.extend_from_slice(&(v as u32).to_le_bytes());
        }
        DataItem::Half(e) => {
            let v = e.eval(symbols).map_err(|m| err(line, m))?;
            if !((i16::MIN as i64)..=(u16::MAX as i64)).contains(&v) {
                return Err(err(line, ".half value out of 16-bit range"));
            }
            out.extend_from_slice(&(v as u16).to_le_bytes());
        }
        DataItem::Byte(e) => {
            let v = e.eval(symbols).map_err(|m| err(line, m))?;
            if !(-128..=255).contains(&v) {
                return Err(err(line, ".byte value out of 8-bit range"));
            }
            out.push(v as u8);
        }
        DataItem::Space(n) => out.resize(out.len() + *n as usize, 0),
        DataItem::Align(pad) => out.resize(out.len() + *pad as usize, 0),
        DataItem::Bytes(b) => out.extend_from_slice(b),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ControlKind;

    #[test]
    fn minimal_program() {
        let p = assemble("main: addi v0, zero, 1\n halt\n").unwrap();
        assert_eq!(p.instrs[0], Instr::Addi(Reg::V0, Reg::ZERO, 1));
        assert_eq!(p.instrs[1], Instr::Halt);
        assert_eq!(p.entry, p.text_base);
    }

    #[test]
    fn labels_and_branches() {
        let src = "
main:   addi t0, zero, 3
loop:   addi t0, t0, -1
        bnez t0, loop
        halt
";
        let p = assemble(src).unwrap();
        // bnez expands to bne t0, zero, loop ; offset = loop - (pc+4) = -2 words.
        assert_eq!(
            p.instrs[2],
            Instr::Bne(Reg::from_name("t0").unwrap(), Reg::ZERO, -2)
        );
    }

    #[test]
    fn la_li_expansion() {
        let src = "
main:   la   t0, buf
        li   t1, 7
        li   t2, 0x12345678
        li   t3, 0x10000
        halt
        .data
buf:    .space 4
";
        let p = assemble(src).unwrap();
        let t0 = Reg::from_name("t0").unwrap();
        assert_eq!(p.instrs[0], Instr::Lui(t0, 0x1000));
        assert_eq!(p.instrs[1], Instr::Ori(t0, t0, 0x0000));
        assert_eq!(
            p.instrs[2],
            Instr::Addi(Reg::from_name("t1").unwrap(), Reg::ZERO, 7)
        );
        assert_eq!(
            p.instrs[3],
            Instr::Lui(Reg::from_name("t2").unwrap(), 0x1234)
        );
        assert_eq!(
            p.instrs[4],
            Instr::Ori(
                Reg::from_name("t2").unwrap(),
                Reg::from_name("t2").unwrap(),
                0x5678
            )
        );
        assert_eq!(p.instrs[5], Instr::Lui(Reg::from_name("t3").unwrap(), 1));
    }

    #[test]
    fn data_directives() {
        let src = "
main:   halt
        .data
a:      .word 1, -1, b
        .half 258
        .byte 'x', 10
        .align 2
b:      .asciiz \"hi\\n\"
";
        let p = assemble(src).unwrap();
        let b = p.symbol("b").unwrap();
        assert_eq!(b % 4, 0);
        let a = p.symbol("a").unwrap();
        assert_eq!(a, p.data_base);
        assert_eq!(&p.data[0..4], &1u32.to_le_bytes());
        assert_eq!(&p.data[4..8], &(-1i32 as u32).to_le_bytes());
        assert_eq!(&p.data[8..12], &b.to_le_bytes());
        assert_eq!(&p.data[12..14], &258u16.to_le_bytes());
        assert_eq!(p.data[14], b'x');
        assert_eq!(p.data[15], 10);
        let off = (b - p.data_base) as usize;
        assert_eq!(&p.data[off..off + 4], b"hi\n\0");
    }

    #[test]
    fn lexer_spellings_assemble_like_their_plain_forms() {
        // Char literals, `_` separators, hex/binary, a constant followed by
        // `+`, non-ASCII whitespace, and comment bytes inside a string.
        let tricky = "
main:   li t0, 'a'
        li t1, '\\n'
        li t2, 0x_FF + 1
        li t3, 1_000
        li\u{a0}t4,\u{2003}0b1010
        halt
        .data
s:      .asciiz \"a;b#c//d\"   ; a real comment
w:      .word 0x10,\u{a0}0x20, 3 - 1 // another
";
        let plain = "
main:   li t0, 97
        li t1, 10
        li t2, 256
        li t3, 1000
        li t4, 10
        halt
        .data
s:      .asciiz \"a;b#c//d\"
w:      .word 16, 32, 2
";
        assert_eq!(assemble(tricky).unwrap(), assemble(plain).unwrap());
    }

    #[test]
    fn lexer_errors_name_the_bad_text() {
        let msg = |src: &str| assemble(src).unwrap_err().msg;
        assert_eq!(msg("main: li t0, 0xZZ\n"), "bad number `0xZZ`");
        assert_eq!(msg("main: li t0, 1_2x\n"), "bad number `12x`");
        assert_eq!(msg("main: li t0, 5 @\n"), "unexpected character `@`");
        assert_eq!(
            msg("main: li t0, 5 \u{e9}\n"),
            "unexpected character `\u{e9}`"
        );
        assert_eq!(msg("main: li t0, 'ab'\n"), "unterminated char literal");
        assert_eq!(
            msg("        .data\ns: .ascii \"ab\n"),
            "unterminated string"
        );
    }

    #[test]
    fn control_pseudos() {
        let src = "
main:   call f
        b end
f:      ret
end:    halt
";
        let p = assemble(src).unwrap();
        assert_eq!(p.instrs[0].control_kind(), ControlKind::Call);
        assert_eq!(p.instrs[1].control_kind(), ControlKind::Jump);
        assert_eq!(p.instrs[2].control_kind(), ControlKind::Return);
        assert_eq!(p.instrs[0].direct_target(p.text_base), p.symbol("f"));
    }

    #[test]
    fn errors_are_reported_with_lines() {
        let e = assemble("main: frobnicate t0\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.msg.contains("frobnicate"));

        let e = assemble("x: addi t0, t0, 99999\n").unwrap_err();
        assert!(e.msg.contains("out of"), "{}", e.msg);

        let e = assemble("a: halt\na: halt\n").unwrap_err();
        assert!(e.msg.contains("duplicate"));

        let e = assemble("main: j nowhere\n").unwrap_err();
        assert!(e.msg.contains("undefined"));
    }

    #[test]
    fn register_named_label_rejected() {
        let e = assemble("sp: halt\n").unwrap_err();
        assert!(e.msg.contains("shadows"));
    }

    #[test]
    fn mem_operands() {
        let src = "main: lw t0, 8(sp)\n sw t0, -4(fp)\n lb t1, (t0)\n halt\n";
        let p = assemble(src).unwrap();
        let t0 = Reg::from_name("t0").unwrap();
        assert_eq!(p.instrs[0], Instr::Lw(t0, Reg::SP, 8));
        assert_eq!(p.instrs[1], Instr::Sw(t0, Reg::FP, -4));
        assert_eq!(p.instrs[2], Instr::Lb(Reg::from_name("t1").unwrap(), t0, 0));
    }

    #[test]
    fn hi_lo_relocations() {
        let src = "
main:   lui  t0, %hi(buf)
        ori  t0, t0, %lo(buf)
        lw   t1, %lo(buf)(t0)
        halt
        .data
        .space 8
buf:    .word 42
";
        let p = assemble(src).unwrap();
        let buf = p.symbol("buf").unwrap();
        assert_eq!(
            p.instrs[0],
            Instr::Lui(Reg::from_name("t0").unwrap(), (buf >> 16) as u16)
        );
    }

    #[test]
    fn comments_stripped() {
        let p = assemble("main: halt ; c1\n# full line\n// also\n").unwrap();
        assert_eq!(p.instrs.len(), 1);
    }
}
