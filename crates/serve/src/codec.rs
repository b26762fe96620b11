//! Binary codec for persisted cache records.
//!
//! The disk and peer cache tiers carry opaque byte blobs; this module
//! defines what's inside them. Two record kinds share a 6-byte header
//! (`magic "SPCV" · format version · kind`):
//!
//! * **function records** — a [`FunctionOutput`] (the C AST plus its
//!   per-function stats), keyed by [`crate::scheduler::function_cache_key`];
//! * **module records** — a whole job's output (the translation unit's
//!   globals and function ASTs, printed source, region reports), keyed by
//!   [`crate::scheduler::module_cache_key`]. These are what make warm
//!   restarts fast: a hit answers a `Text` job before the module is even
//!   parsed, skipping parse + detransform entirely.
//!
//! The encoding is hand-rolled little-endian (the workspace is
//! dependency-free by design) and *versioned*: any header mismatch, or
//! any structural surprise while decoding, yields `Err` — which every
//! caller treats as a cache miss, never an error. Blobs written by a
//! future format simply miss; blobs corrupted below the store's CRC
//! granularity cannot decode into out-of-bounds values because every
//! discriminant and length is checked, and recursion depth is capped.

use crate::validate::{count_annotations, ValidateOutcome};
use splendid_cfront::ast::{CBinOp, CExpr, CFunc, CStmt, CType, CUnOp, OmpClauses, Schedule};
use splendid_core::detransform::RegionReport;
use splendid_core::{DecompileOutput, FidelityTier, FunctionOutput, NamingStats};

/// Record header magic.
pub const CODEC_MAGIC: [u8; 4] = *b"SPCV";
/// Encoding version; bump on any layout change.
/// v2: `OmpClauses.reduction` pairs + the `OmpSimd` statement tag.
pub const CODEC_VERSION: u8 = 2;
/// Header kind byte for a function record.
pub const KIND_FUNCTION: u8 = 0x01;
/// Header kind byte for a module record.
pub const KIND_MODULE: u8 = 0x02;
/// Header kind byte for a validation-certificate record.
pub const KIND_CERT: u8 = 0x03;
/// Header length (magic + version + kind).
pub const CODEC_HEADER_LEN: usize = 6;
/// Maximum AST nesting accepted while decoding (matches anything the
/// structurer can realistically emit, with generous headroom).
const MAX_DEPTH: u32 = 512;
/// Maximum element count accepted for any single sequence.
const MAX_SEQ: u32 = 4 * 1024 * 1024;

/// Why a blob failed to decode. Callers treat any value as a miss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub &'static str);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cache record decode failed: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

type R<T> = Result<T, CodecError>;

fn err<T>(what: &'static str) -> R<T> {
    Err(CodecError(what))
}

// ---------------------------------------------------------------- writer

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn with_header(kind: u8) -> Enc {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(&CODEC_MAGIC);
        buf.push(CODEC_VERSION);
        buf.push(kind);
        Enc { buf }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn seq_len(&mut self, n: usize) {
        self.u32(n as u32);
    }

    fn opt<T>(&mut self, v: &Option<T>, f: impl FnOnce(&mut Enc, &T)) {
        match v {
            None => self.u8(0),
            Some(inner) => {
                self.u8(1);
                f(self, inner);
            }
        }
    }
}

// ---------------------------------------------------------------- reader

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn expect_header(buf: &'a [u8], kind: u8) -> R<Dec<'a>> {
        if buf.len() < CODEC_HEADER_LEN {
            return err("blob shorter than header");
        }
        if buf[0..4] != CODEC_MAGIC {
            return err("bad magic");
        }
        if buf[4] != CODEC_VERSION {
            return err("unknown codec version");
        }
        if buf[5] != kind {
            return err("record kind mismatch");
        }
        Ok(Dec {
            buf,
            pos: CODEC_HEADER_LEN,
        })
    }

    fn take(&mut self, n: usize) -> R<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return err("truncated blob");
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> R<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> R<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> R<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn i64(&mut self) -> R<i64> {
        Ok(self.u64()? as i64)
    }

    fn f64(&mut self) -> R<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn usize(&mut self) -> R<usize> {
        usize::try_from(self.u64()?).or(err("usize overflow"))
    }

    fn str(&mut self) -> R<String> {
        let n = self.u32()?;
        if n > MAX_SEQ {
            return err("implausible string length");
        }
        let bytes = self.take(n as usize)?;
        String::from_utf8(bytes.to_vec()).or(err("invalid UTF-8"))
    }

    fn seq_len(&mut self) -> R<usize> {
        let n = self.u32()?;
        if n > MAX_SEQ {
            return err("implausible sequence length");
        }
        Ok(n as usize)
    }

    fn opt<T>(&mut self, f: impl FnOnce(&mut Dec<'a>) -> R<T>) -> R<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            _ => err("invalid option tag"),
        }
    }

    fn finished(&self) -> R<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            err("trailing bytes after record")
        }
    }
}

// ------------------------------------------------------------- C types

fn enc_ctype(e: &mut Enc, t: &CType) {
    match t {
        CType::Void => e.u8(0),
        CType::Int => e.u8(1),
        CType::Long => e.u8(2),
        CType::UInt64 => e.u8(3),
        CType::Double => e.u8(4),
        CType::Ptr(inner) => {
            e.u8(5);
            enc_ctype(e, inner);
        }
        CType::Array(elem, dims) => {
            e.u8(6);
            enc_ctype(e, elem);
            e.seq_len(dims.len());
            for d in dims {
                e.usize(*d);
            }
        }
    }
}

fn dec_ctype(d: &mut Dec<'_>, depth: u32) -> R<CType> {
    if depth > MAX_DEPTH {
        return err("type nesting too deep");
    }
    Ok(match d.u8()? {
        0 => CType::Void,
        1 => CType::Int,
        2 => CType::Long,
        3 => CType::UInt64,
        4 => CType::Double,
        5 => CType::Ptr(Box::new(dec_ctype(d, depth + 1)?)),
        6 => {
            let elem = Box::new(dec_ctype(d, depth + 1)?);
            let n = d.seq_len()?;
            let mut dims = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                dims.push(d.usize()?);
            }
            CType::Array(elem, dims)
        }
        _ => return err("invalid type tag"),
    })
}

fn enc_binop(e: &mut Enc, op: CBinOp) {
    let tag = match op {
        CBinOp::Add => 0u8,
        CBinOp::Sub => 1,
        CBinOp::Mul => 2,
        CBinOp::Div => 3,
        CBinOp::Rem => 4,
        CBinOp::Lt => 5,
        CBinOp::Le => 6,
        CBinOp::Gt => 7,
        CBinOp::Ge => 8,
        CBinOp::Eq => 9,
        CBinOp::Ne => 10,
        CBinOp::LAnd => 11,
        CBinOp::LOr => 12,
        CBinOp::BAnd => 13,
        CBinOp::BOr => 14,
        CBinOp::BXor => 15,
        CBinOp::Shl => 16,
        CBinOp::Shr => 17,
    };
    e.u8(tag);
}

fn dec_binop(d: &mut Dec<'_>) -> R<CBinOp> {
    Ok(match d.u8()? {
        0 => CBinOp::Add,
        1 => CBinOp::Sub,
        2 => CBinOp::Mul,
        3 => CBinOp::Div,
        4 => CBinOp::Rem,
        5 => CBinOp::Lt,
        6 => CBinOp::Le,
        7 => CBinOp::Gt,
        8 => CBinOp::Ge,
        9 => CBinOp::Eq,
        10 => CBinOp::Ne,
        11 => CBinOp::LAnd,
        12 => CBinOp::LOr,
        13 => CBinOp::BAnd,
        14 => CBinOp::BOr,
        15 => CBinOp::BXor,
        16 => CBinOp::Shl,
        17 => CBinOp::Shr,
        _ => return err("invalid binary operator"),
    })
}

fn enc_expr(e: &mut Enc, x: &CExpr) {
    match x {
        CExpr::Int(v) => {
            e.u8(0);
            e.i64(*v);
        }
        CExpr::Float(v) => {
            e.u8(1);
            e.f64(*v);
        }
        CExpr::Ident(s) => {
            e.u8(2);
            e.str(s);
        }
        CExpr::Index { base, indices } => {
            e.u8(3);
            enc_expr(e, base);
            e.seq_len(indices.len());
            for i in indices {
                enc_expr(e, i);
            }
        }
        CExpr::Call { name, args } => {
            e.u8(4);
            e.str(name);
            e.seq_len(args.len());
            for a in args {
                enc_expr(e, a);
            }
        }
        CExpr::Unary { op, expr } => {
            e.u8(5);
            e.u8(match op {
                CUnOp::Neg => 0,
                CUnOp::Not => 1,
            });
            enc_expr(e, expr);
        }
        CExpr::Binary { op, lhs, rhs } => {
            e.u8(6);
            enc_binop(e, *op);
            enc_expr(e, lhs);
            enc_expr(e, rhs);
        }
        CExpr::Cast { ty, expr } => {
            e.u8(7);
            enc_ctype(e, ty);
            enc_expr(e, expr);
        }
        CExpr::Assign { lhs, op, rhs } => {
            e.u8(8);
            enc_expr(e, lhs);
            e.opt(op, |e, o| enc_binop(e, *o));
            enc_expr(e, rhs);
        }
    }
}

fn dec_expr(d: &mut Dec<'_>, depth: u32) -> R<CExpr> {
    if depth > MAX_DEPTH {
        return err("expression nesting too deep");
    }
    Ok(match d.u8()? {
        0 => CExpr::Int(d.i64()?),
        1 => CExpr::Float(d.f64()?),
        2 => CExpr::Ident(d.str()?),
        3 => {
            let base = Box::new(dec_expr(d, depth + 1)?);
            let n = d.seq_len()?;
            let mut indices = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                indices.push(dec_expr(d, depth + 1)?);
            }
            CExpr::Index { base, indices }
        }
        4 => {
            let name = d.str()?;
            let n = d.seq_len()?;
            let mut args = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                args.push(dec_expr(d, depth + 1)?);
            }
            CExpr::Call { name, args }
        }
        5 => {
            let op = match d.u8()? {
                0 => CUnOp::Neg,
                1 => CUnOp::Not,
                _ => return err("invalid unary operator"),
            };
            CExpr::Unary {
                op,
                expr: Box::new(dec_expr(d, depth + 1)?),
            }
        }
        6 => {
            let op = dec_binop(d)?;
            let lhs = Box::new(dec_expr(d, depth + 1)?);
            let rhs = Box::new(dec_expr(d, depth + 1)?);
            CExpr::Binary { op, lhs, rhs }
        }
        7 => {
            let ty = dec_ctype(d, depth + 1)?;
            CExpr::Cast {
                ty,
                expr: Box::new(dec_expr(d, depth + 1)?),
            }
        }
        8 => {
            let lhs = Box::new(dec_expr(d, depth + 1)?);
            let op = d.opt(dec_binop)?;
            let rhs = Box::new(dec_expr(d, depth + 1)?);
            CExpr::Assign { lhs, op, rhs }
        }
        _ => return err("invalid expression tag"),
    })
}

fn enc_clauses(e: &mut Enc, c: &OmpClauses) {
    e.opt(&c.schedule, |e, s| match s {
        Schedule::Static => e.u8(0),
        Schedule::StaticChunk(chunk) => {
            e.u8(1);
            e.u32(*chunk);
        }
    });
    e.u8(u8::from(c.nowait));
    e.seq_len(c.private.len());
    for p in &c.private {
        e.str(p);
    }
    e.seq_len(c.reduction.len());
    for (op, var) in &c.reduction {
        e.str(op);
        e.str(var);
    }
}

fn dec_clauses(d: &mut Dec<'_>) -> R<OmpClauses> {
    let schedule = d.opt(|d| {
        Ok(match d.u8()? {
            0 => Schedule::Static,
            1 => Schedule::StaticChunk(d.u32()?),
            _ => return err("invalid schedule tag"),
        })
    })?;
    let nowait = match d.u8()? {
        0 => false,
        1 => true,
        _ => return err("invalid bool"),
    };
    let n = d.seq_len()?;
    let mut private = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        private.push(d.str()?);
    }
    let n = d.seq_len()?;
    let mut reduction = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let op = d.str()?;
        let var = d.str()?;
        reduction.push((op, var));
    }
    Ok(OmpClauses {
        schedule,
        nowait,
        private,
        reduction,
    })
}

fn enc_stmts(e: &mut Enc, stmts: &[CStmt]) {
    e.seq_len(stmts.len());
    for s in stmts {
        enc_stmt(e, s);
    }
}

fn dec_stmts(d: &mut Dec<'_>, depth: u32) -> R<Vec<CStmt>> {
    let n = d.seq_len()?;
    let mut out = Vec::with_capacity(n.min(256));
    for _ in 0..n {
        out.push(dec_stmt(d, depth)?);
    }
    Ok(out)
}

fn enc_stmt(e: &mut Enc, s: &CStmt) {
    match s {
        CStmt::Decl { name, ty, init } => {
            e.u8(0);
            e.str(name);
            enc_ctype(e, ty);
            e.opt(init, enc_expr);
        }
        CStmt::Expr(x) => {
            e.u8(1);
            enc_expr(e, x);
        }
        CStmt::If {
            cond,
            then_body,
            else_body,
        } => {
            e.u8(2);
            enc_expr(e, cond);
            enc_stmts(e, then_body);
            enc_stmts(e, else_body);
        }
        CStmt::For {
            init,
            cond,
            step,
            body,
        } => {
            e.u8(3);
            e.opt(init, |e, s| enc_stmt(e, s));
            e.opt(cond, enc_expr);
            e.opt(step, enc_expr);
            enc_stmts(e, body);
        }
        CStmt::While { cond, body } => {
            e.u8(4);
            enc_expr(e, cond);
            enc_stmts(e, body);
        }
        CStmt::DoWhile { body, cond } => {
            e.u8(5);
            enc_stmts(e, body);
            enc_expr(e, cond);
        }
        CStmt::Return(v) => {
            e.u8(6);
            e.opt(v, enc_expr);
        }
        CStmt::Block(body) => {
            e.u8(7);
            enc_stmts(e, body);
        }
        CStmt::OmpParallel { clauses, body } => {
            e.u8(8);
            enc_clauses(e, clauses);
            enc_stmts(e, body);
        }
        CStmt::OmpFor { clauses, loop_stmt } => {
            e.u8(9);
            enc_clauses(e, clauses);
            enc_stmt(e, loop_stmt);
        }
        CStmt::OmpParallelFor { clauses, loop_stmt } => {
            e.u8(10);
            enc_clauses(e, clauses);
            enc_stmt(e, loop_stmt);
        }
        CStmt::OmpSimd { clauses, loop_stmt } => {
            e.u8(15);
            enc_clauses(e, clauses);
            enc_stmt(e, loop_stmt);
        }
        CStmt::OmpBarrier => e.u8(11),
        CStmt::Goto(label) => {
            e.u8(12);
            e.str(label);
        }
        CStmt::Label(label) => {
            e.u8(13);
            e.str(label);
        }
        CStmt::Comment(text) => {
            e.u8(14);
            e.str(text);
        }
    }
}

fn dec_stmt(d: &mut Dec<'_>, depth: u32) -> R<CStmt> {
    if depth > MAX_DEPTH {
        return err("statement nesting too deep");
    }
    Ok(match d.u8()? {
        0 => CStmt::Decl {
            name: d.str()?,
            ty: dec_ctype(d, depth + 1)?,
            init: d.opt(|d| dec_expr(d, depth + 1))?,
        },
        1 => CStmt::Expr(dec_expr(d, depth + 1)?),
        2 => CStmt::If {
            cond: dec_expr(d, depth + 1)?,
            then_body: dec_stmts(d, depth + 1)?,
            else_body: dec_stmts(d, depth + 1)?,
        },
        3 => CStmt::For {
            init: d.opt(|d| Ok(Box::new(dec_stmt(d, depth + 1)?)))?,
            cond: d.opt(|d| dec_expr(d, depth + 1))?,
            step: d.opt(|d| dec_expr(d, depth + 1))?,
            body: dec_stmts(d, depth + 1)?,
        },
        4 => CStmt::While {
            cond: dec_expr(d, depth + 1)?,
            body: dec_stmts(d, depth + 1)?,
        },
        5 => CStmt::DoWhile {
            body: dec_stmts(d, depth + 1)?,
            cond: dec_expr(d, depth + 1)?,
        },
        6 => CStmt::Return(d.opt(|d| dec_expr(d, depth + 1))?),
        7 => CStmt::Block(dec_stmts(d, depth + 1)?),
        8 => CStmt::OmpParallel {
            clauses: dec_clauses(d)?,
            body: dec_stmts(d, depth + 1)?,
        },
        9 => CStmt::OmpFor {
            clauses: dec_clauses(d)?,
            loop_stmt: Box::new(dec_stmt(d, depth + 1)?),
        },
        10 => CStmt::OmpParallelFor {
            clauses: dec_clauses(d)?,
            loop_stmt: Box::new(dec_stmt(d, depth + 1)?),
        },
        11 => CStmt::OmpBarrier,
        12 => CStmt::Goto(d.str()?),
        13 => CStmt::Label(d.str()?),
        14 => CStmt::Comment(d.str()?),
        15 => CStmt::OmpSimd {
            clauses: dec_clauses(d)?,
            loop_stmt: Box::new(dec_stmt(d, depth + 1)?),
        },
        _ => return err("invalid statement tag"),
    })
}

fn enc_func(e: &mut Enc, f: &CFunc) {
    e.str(&f.name);
    enc_ctype(e, &f.ret);
    e.seq_len(f.params.len());
    for (name, ty) in &f.params {
        e.str(name);
        enc_ctype(e, ty);
    }
    enc_stmts(e, &f.body);
}

fn dec_func(d: &mut Dec<'_>) -> R<CFunc> {
    let name = d.str()?;
    let ret = dec_ctype(d, 0)?;
    let n = d.seq_len()?;
    let mut params = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let pname = d.str()?;
        let ty = dec_ctype(d, 0)?;
        params.push((pname, ty));
    }
    let body = dec_stmts(d, 0)?;
    Ok(CFunc {
        name,
        ret,
        params,
        body,
    })
}

fn enc_naming(e: &mut Enc, n: &NamingStats) {
    e.usize(n.total_vars);
    e.usize(n.restored_vars);
}

fn dec_naming(d: &mut Dec<'_>) -> R<NamingStats> {
    Ok(NamingStats {
        total_vars: d.usize()?,
        restored_vars: d.usize()?,
    })
}

fn enc_tier(e: &mut Enc, t: FidelityTier) {
    e.u8(match t {
        FidelityTier::Natural => 0,
        FidelityTier::Structured => 1,
        FidelityTier::Literal => 2,
        // 3 extends the historical encoding: records written before the
        // Quick tier existed keep decoding unchanged.
        FidelityTier::Quick => 3,
    });
}

fn dec_tier(d: &mut Dec<'_>) -> R<FidelityTier> {
    Ok(match d.u8()? {
        0 => FidelityTier::Natural,
        1 => FidelityTier::Structured,
        2 => FidelityTier::Literal,
        3 => FidelityTier::Quick,
        _ => return err("invalid fidelity tier"),
    })
}

// ------------------------------------------------------------- records

/// Encode a [`FunctionOutput`] as a function record blob.
pub fn encode_function_record(out: &FunctionOutput) -> Vec<u8> {
    let mut e = Enc::with_header(KIND_FUNCTION);
    enc_func(&mut e, &out.cfunc);
    enc_naming(&mut e, &out.naming);
    e.usize(out.gotos);
    enc_tier(&mut e, out.tier);
    e.buf
}

/// Decode a function record blob. Any failure means "cache miss".
pub fn decode_function_record(blob: &[u8]) -> R<FunctionOutput> {
    let mut d = Dec::expect_header(blob, KIND_FUNCTION)?;
    let cfunc = dec_func(&mut d)?;
    let naming = dec_naming(&mut d)?;
    let gotos = d.usize()?;
    let tier = dec_tier(&mut d)?;
    d.finished()?;
    Ok(FunctionOutput {
        cfunc,
        naming,
        gotos,
        tier,
    })
}

/// Encode a whole job as a module record blob: the unit's `globals`
/// and `functions` (in module order, as the job's slots hold them) plus
/// the assembled `out`. The layout is the one records have always had
/// — a translation unit with no `#define`s, then the source and stats —
/// so records written by earlier builds keep decoding.
pub fn encode_module_record<'a>(
    globals: &[(String, CType)],
    functions: impl ExactSizeIterator<Item = &'a FunctionOutput>,
    out: &DecompileOutput,
) -> Vec<u8> {
    let mut e = Enc::with_header(KIND_MODULE);
    e.seq_len(0); // defines
    e.seq_len(globals.len());
    for (name, ty) in globals {
        e.str(name);
        enc_ctype(&mut e, ty);
    }
    e.seq_len(functions.len());
    for f in functions {
        enc_func(&mut e, &f.cfunc);
    }
    e.str(&out.source);
    enc_naming(&mut e, &out.naming);
    e.seq_len(out.regions.len());
    for r in &out.regions {
        e.str(&r.region_name);
        e.str(&r.caller_name);
        e.usize(r.setup_removed);
    }
    e.usize(out.gotos);
    e.buf
}

/// A decoded module record: the job output it answers with, and what
/// the scheduler reports about the unit without keeping its ASTs.
#[derive(Debug, Clone)]
pub struct ModuleRecord {
    /// The stored job output.
    pub output: DecompileOutput,
    /// Functions in the unit.
    pub functions: usize,
    /// Functions carrying a verified annotation.
    pub verified: usize,
    /// Functions carrying an unverified annotation.
    pub unverified: usize,
}

/// Decode a module record blob, counting verdict annotations as the
/// function ASTs go by. Any failure means "cache miss".
pub fn decode_module_record(blob: &[u8]) -> R<ModuleRecord> {
    let mut d = Dec::expect_header(blob, KIND_MODULE)?;
    let n = d.seq_len()?;
    for _ in 0..n {
        d.str()?;
        d.i64()?;
    }
    let n = d.seq_len()?;
    for _ in 0..n {
        d.str()?;
        dec_ctype(&mut d, 0)?;
    }
    let functions = d.seq_len()?;
    let mut verdicts = ValidateOutcome::default();
    for _ in 0..functions {
        count_annotations(&dec_func(&mut d)?, &mut verdicts);
    }
    let source = d.str()?;
    let naming = dec_naming(&mut d)?;
    let n = d.seq_len()?;
    let mut regions = Vec::with_capacity(n.min(256));
    for _ in 0..n {
        regions.push(RegionReport {
            region_name: d.str()?,
            caller_name: d.str()?,
            setup_removed: d.usize()?,
        });
    }
    let gotos = d.usize()?;
    d.finished()?;
    Ok(ModuleRecord {
        output: DecompileOutput {
            source,
            naming,
            regions,
            gotos,
        },
        functions,
        verified: verdicts.verified,
        unverified: verdicts.unverified,
    })
}

/// Encode a validation [`Certificate`](crate::validate::Certificate) as
/// a cert record blob. Certificates are tiny (a few tens of bytes), so
/// they ride the same tiered store as function records and amortize the
/// same way: a warm restart answers `verified` tags from disk without
/// re-running the checker.
pub fn encode_cert_record(cert: &crate::validate::Certificate) -> Vec<u8> {
    let mut e = Enc::with_header(KIND_CERT);
    e.u8(u8::from(cert.verified));
    enc_tier(&mut e, cert.tier);
    e.u8(u8::from(cert.mismatch));
    e.str(&cert.reason);
    e.buf
}

/// Decode a cert record blob. Any failure means "cache miss".
pub fn decode_cert_record(blob: &[u8]) -> R<crate::validate::Certificate> {
    let mut d = Dec::expect_header(blob, KIND_CERT)?;
    let verified = match d.u8()? {
        0 => false,
        1 => true,
        _ => return err("invalid bool"),
    };
    let tier = dec_tier(&mut d)?;
    let mismatch = match d.u8()? {
        0 => false,
        1 => true,
        _ => return err("invalid bool"),
    };
    let reason = d.str()?;
    d.finished()?;
    Ok(crate::validate::Certificate {
        verified,
        tier,
        mismatch,
        reason,
    })
}

/// Structurally validate a blob of any known kind without keeping the
/// decoded value — what the daemon runs on `CACHE_PUT` payloads before
/// letting a peer's bytes anywhere near the disk tier.
pub fn validate_record(blob: &[u8]) -> R<()> {
    match blob.get(5) {
        Some(&KIND_FUNCTION) => decode_function_record(blob).map(|_| ()),
        Some(&KIND_MODULE) => decode_module_record(blob).map(|_| ()),
        Some(&KIND_CERT) => decode_cert_record(blob).map(|_| ()),
        Some(_) => err("unknown record kind"),
        None => err("blob shorter than header"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splendid_cfront::ast::CExpr as E;

    fn sample_func() -> CFunc {
        CFunc {
            name: "kernel_2mm".into(),
            ret: CType::Void,
            params: vec![
                (
                    "A".into(),
                    CType::Array(Box::new(CType::Double), vec![16, 18]),
                ),
                ("alpha".into(), CType::Double),
                ("n".into(), CType::Int),
            ],
            body: vec![
                CStmt::Comment("splendid: natural tier".into()),
                CStmt::OmpParallelFor {
                    clauses: OmpClauses {
                        schedule: Some(Schedule::StaticChunk(8)),
                        nowait: true,
                        private: vec!["j".into()],
                        reduction: vec![("+".into(), "s".into())],
                    },
                    loop_stmt: Box::new(CStmt::For {
                        init: Some(Box::new(CStmt::Decl {
                            name: "i".into(),
                            ty: CType::UInt64,
                            init: Some(E::Int(0)),
                        })),
                        cond: Some(E::bin(CBinOp::Lt, E::ident("i"), E::ident("n"))),
                        step: Some(E::Assign {
                            lhs: Box::new(E::ident("i")),
                            op: Some(CBinOp::Add),
                            rhs: Box::new(E::Int(1)),
                        }),
                        body: vec![
                            CStmt::If {
                                cond: E::Unary {
                                    op: CUnOp::Not,
                                    expr: Box::new(E::ident("skip")),
                                },
                                then_body: vec![CStmt::Expr(E::Assign {
                                    lhs: Box::new(E::Index {
                                        base: Box::new(E::ident("A")),
                                        indices: vec![E::ident("i"), E::Int(0)],
                                    }),
                                    op: None,
                                    rhs: Box::new(E::Cast {
                                        ty: CType::Double,
                                        expr: Box::new(E::Call {
                                            name: "exp".into(),
                                            args: vec![E::Float(0.5)],
                                        }),
                                    }),
                                })],
                                else_body: vec![CStmt::Goto("done".into())],
                            },
                            CStmt::Label("done".into()),
                            CStmt::OmpBarrier,
                        ],
                    }),
                },
                CStmt::DoWhile {
                    body: vec![CStmt::Block(vec![CStmt::While {
                        cond: E::Int(0),
                        body: vec![],
                    }])],
                    cond: E::bin(CBinOp::Ne, E::ident("i"), E::Int(3)),
                },
                CStmt::Return(None),
            ],
        }
    }

    fn sample_output() -> FunctionOutput {
        FunctionOutput {
            cfunc: sample_func(),
            naming: NamingStats {
                total_vars: 7,
                restored_vars: 5,
            },
            gotos: 1,
            tier: FidelityTier::Structured,
        }
    }

    #[test]
    fn function_record_roundtrip() {
        let out = sample_output();
        let blob = encode_function_record(&out);
        let back = decode_function_record(&blob).unwrap();
        assert_eq!(back.cfunc, out.cfunc);
        assert_eq!(back.naming, out.naming);
        assert_eq!(back.gotos, out.gotos);
        assert_eq!(back.tier, out.tier);
    }

    /// The module record the golden-bytes test pins: a two-function
    /// unit whose first function carries a verified annotation.
    fn golden_unit() -> (Vec<(String, CType)>, Vec<FunctionOutput>, DecompileOutput) {
        let init = FunctionOutput {
            cfunc: CFunc {
                name: "init".into(),
                ret: CType::Void,
                params: vec![],
                body: vec![
                    CStmt::Comment(crate::validate::VERIFIED_ANNOTATION.into()),
                    CStmt::Return(None),
                ],
            },
            naming: NamingStats::default(),
            gotos: 0,
            tier: FidelityTier::Natural,
        };
        let globals = vec![
            (
                "A".into(),
                CType::Array(Box::new(CType::Double), vec![16, 18]),
            ),
            ("alpha".into(), CType::Double),
        ];
        let out = DecompileOutput {
            source: "double A[16][18];\ndouble alpha;\n\nvoid init() {\n}\n".into(),
            naming: NamingStats {
                total_vars: 9,
                restored_vars: 7,
            },
            regions: vec![RegionReport {
                region_name: "kernel_2mm_polly_par0".into(),
                caller_name: "kernel_2mm".into(),
                setup_removed: 12,
            }],
            gotos: 1,
        };
        (globals, vec![init, sample_output()], out)
    }

    #[test]
    fn module_record_bytes_match_earlier_builds() {
        // Written by the encoder as it stood when jobs kept a whole
        // `CProgram` (no defines, the unit's globals and functions): a
        // store filled by an earlier build must keep hitting.
        const GOLDEN: &str = concat!(
            "53504356020200000000020000000100000041060402000000100000000000000012000000000000",
            "0005000000616c706861040200000004000000696e69740000000000020000000e1200000073706c",
            "656e6469643a20766572696669656406000a0000006b65726e656c5f326d6d000300000001000000",
            "410604020000001000000000000000120000000000000005000000616c70686104010000006e0104",
            "0000000e1600000073706c656e6469643a206e61747572616c20746965720a010108000000010100",
            "0000010000006a01000000010000002b010000007303010001000000690301000000000000000000",
            "01060502010000006902010000006e01080201000000690100000100000000000000030000000205",
            "010204000000736b6970010000000108030201000000410200000002010000006900000000000000",
            "000000070404030000006578700100000001000000000000e03f010000000c04000000646f6e650d",
            "04000000646f6e650b050100000007010000000400000000000000000000000000060a0201000000",
            "69000300000000000000060031000000646f75626c6520415b31365d5b31385d3b0a646f75626c65",
            "20616c7068613b0a0a766f696420696e69742829207b0a7d0a090000000000000007000000000000",
            "0001000000150000006b65726e656c5f326d6d5f706f6c6c795f706172300a0000006b65726e656c",
            "5f326d6d0c000000000000000100000000000000",
        );
        let (globals, functions, out) = golden_unit();
        let blob = encode_module_record(&globals, functions.iter(), &out);
        let hex: String = blob.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN);

        let back = decode_module_record(&blob).unwrap();
        assert_eq!(back.output.source, out.source);
        assert_eq!(back.output.naming, out.naming);
        assert_eq!(back.output.regions.len(), 1);
        assert_eq!(back.output.regions[0].region_name, "kernel_2mm_polly_par0");
        assert_eq!(back.output.gotos, out.gotos);
        assert_eq!(back.functions, 2);
        assert_eq!((back.verified, back.unverified), (1, 0));
    }

    #[test]
    fn kind_confusion_is_rejected() {
        let blob = encode_function_record(&sample_output());
        assert!(decode_module_record(&blob).is_err());
        assert!(validate_record(&blob).is_ok());
    }

    #[test]
    fn truncated_blobs_are_rejected_at_every_length() {
        let blob = encode_function_record(&sample_output());
        for n in 0..blob.len() {
            assert!(
                decode_function_record(&blob[..n]).is_err(),
                "prefix of {n} bytes must not decode"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut blob = encode_function_record(&sample_output());
        blob.push(0);
        assert!(decode_function_record(&blob).is_err());
    }

    #[test]
    fn foreign_version_is_rejected() {
        let mut blob = encode_function_record(&sample_output());
        blob[4] = CODEC_VERSION + 1;
        assert!(decode_function_record(&blob).is_err());
        assert!(validate_record(&blob).is_err());
    }

    #[test]
    fn mutated_discriminants_never_panic() {
        // Flip every byte to an implausible value one at a time; the
        // decoder must return Err (or a different valid value), never
        // panic or loop.
        let blob = encode_function_record(&sample_output());
        for i in 0..blob.len() {
            let mut m = blob.clone();
            m[i] = 0xFF;
            let _ = decode_function_record(&m);
        }
    }

    #[test]
    fn cert_record_roundtrip() {
        let cert = crate::validate::Certificate {
            verified: false,
            tier: FidelityTier::Structured,
            mismatch: true,
            reason: "probe 1: global A[3]: source 1.0 vs re-lowered 2.0".into(),
        };
        let blob = encode_cert_record(&cert);
        let back = decode_cert_record(&blob).unwrap();
        assert_eq!(back, cert);
        assert!(validate_record(&blob).is_ok());
        // Truncations never decode.
        for n in 0..blob.len() {
            assert!(decode_cert_record(&blob[..n]).is_err());
        }
        // And a cert blob is not a function record.
        assert!(decode_function_record(&blob).is_err());
    }

    #[test]
    fn depth_bomb_is_rejected() {
        // Hand-craft a record whose expression nests past MAX_DEPTH:
        // header + stmts(len=1) + stmt tag Expr + deep unary chain.
        let mut blob = Vec::new();
        blob.extend_from_slice(&CODEC_MAGIC);
        blob.push(CODEC_VERSION);
        blob.push(KIND_FUNCTION);
        blob.extend_from_slice(&1u32.to_le_bytes());
        blob.push(b'f'); // name
        blob.push(0); // ret = Void
        blob.extend_from_slice(&0u32.to_le_bytes()); // no params
        blob.extend_from_slice(&1u32.to_le_bytes()); // one stmt
        blob.push(1); // CStmt::Expr
        for _ in 0..2048 {
            blob.push(5); // CExpr::Unary
            blob.push(0); // Neg
        }
        blob.push(0); // CExpr::Int
        blob.extend_from_slice(&0i64.to_le_bytes());
        let e = decode_function_record(&blob).unwrap_err();
        assert_eq!(e.0, "expression nesting too deep");
    }
}
