//! Natural variable reconstruction (paper §4.3, Algorithms 1 and 2).
//!
//! * **Variable Proposer / Metadata Interpreter**: `dbg` intrinsics map SSA
//!   values to source variables; a phi with an unmapped result adopts the
//!   proposal of its incoming values (phi-web combination).
//! * **Algorithm 1 — Most Recent Variable Definitions**: a forward dataflow
//!   computing, at each instruction, which definition of each source
//!   variable is current (`OUT = GEN ∪ (IN − KILL)`, joined by union).
//! * **Algorithm 2 — Conflicting Definition Removal**: at every use of a
//!   value proposed to be variable `v`, if a *different* definition of `v`
//!   is the most recent one, that other mapping is removed — two SSA values
//!   with overlapping lifetimes can never share a source name. Removal
//!   changes the dataflow, so the pair of algorithms iterates to a
//!   fixpoint.
//!
//! Values that end up without a valid source mapping are named from their
//! register hint ("somewhat meaningful, e.g. `indvar`"), uniquified.
//!
//! All state lives in tables indexed by the dense ids: proposals and the
//! resulting [`Naming`] have one entry per [`InstId`]. Algorithm 1 runs on
//! bitsets whose bits are the round's `(variable, definition)` pairs sorted
//! by variable, so killing a variable's definitions clears one bit range
//! and the join over predecessors is a word-wise OR. A `dbg` of a constant
//! only kills: a constant has no proposal, so it can never conflict.

use splendid_ir::{BlockId, FuncId, Function, InstId, InstKind, Module, Value, VarId};
use std::fmt::Write as _;

/// Where a generated variable name came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NameOrigin {
    /// Restored from debug metadata (possibly transferred through region
    /// inlining).
    SourceVariable,
    /// Fallback: virtual-register hint or synthesized name.
    Register,
}

/// Marks an absent entry in an id-indexed table.
pub(crate) const NONE: u32 = u32::MAX;

/// Result of variable naming for one function.
///
/// Each distinct name is stored once, in one string; every instruction
/// holds the index of its name and its origin. Equal names have equal
/// indices, which is what lets the structurer key its per-variable state
/// by index.
#[derive(Debug, Clone, Default)]
pub struct Naming {
    /// Every distinct name, concatenated.
    text: String,
    /// End of each distinct name in `text`; a name starts where the
    /// previous one ends.
    ends: Vec<u32>,
    /// Per instruction: its name's index (`NONE` when unnamed) and origin.
    slots: Vec<(u32, NameOrigin)>,
}

impl Naming {
    /// Name for an instruction result, if one was assigned.
    pub fn name_of(&self, id: InstId) -> Option<&str> {
        self.get(id).map(|(name, _)| name)
    }

    /// Name and origin for an instruction result, if one was assigned.
    pub fn get(&self, id: InstId) -> Option<(&str, NameOrigin)> {
        let k = self.name_index(id)?;
        Some((self.text_of(k), self.slots[id.index()].1))
    }

    /// Every named instruction with its name and origin, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (InstId, &str, NameOrigin)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, (k, _))| *k != NONE)
            .map(|(i, &(k, origin))| (InstId(i as u32), self.text_of(k as usize), origin))
    }

    /// Name `id` (replacing any earlier name), sharing the entry of an
    /// equal name already present. The search is linear: this is for
    /// building small namings by hand, not for [`assign_names`].
    pub fn insert(&mut self, id: InstId, name: &str, origin: NameOrigin) {
        let k = (0..self.ends.len())
            .find(|&k| self.text_of(k) == name)
            .unwrap_or_else(|| self.push_name(name));
        if self.slots.len() <= id.index() {
            self.slots
                .resize(id.index() + 1, (NONE, NameOrigin::Register));
        }
        self.slots[id.index()] = (k as u32, origin);
    }

    /// Number of distinct names; every [`Naming::name_index`] is below it.
    pub(crate) fn name_count(&self) -> usize {
        self.ends.len()
    }

    /// Index of `id`'s name among the distinct names.
    pub(crate) fn name_index(&self, id: InstId) -> Option<usize> {
        match self.slots.get(id.index()) {
            Some(&(k, _)) if k != NONE => Some(k as usize),
            _ => None,
        }
    }

    /// The distinct name with index `k`.
    pub(crate) fn text_of(&self, k: usize) -> &str {
        &self.text[self.span(k)]
    }

    fn span(&self, k: usize) -> std::ops::Range<usize> {
        let start = if k == 0 { 0 } else { self.ends[k - 1] as usize };
        start..self.ends[k] as usize
    }

    fn push_name(&mut self, name: &str) -> usize {
        self.text.push_str(name);
        self.ends.push(self.text.len() as u32);
        self.ends.len() - 1
    }
}

/// Run the Variable Proposer + Algorithms 1 and 2 for `fid`.
pub fn assign_names(module: &Module, fid: FuncId) -> Naming {
    assign_names_with(module, fid, true)
}

/// Variant with metadata disabled: every value gets a register name (used
/// by the paper's SPLENDID-v1/Portable evaluation variants, which turn
/// variable renaming off).
pub fn assign_register_names(module: &Module, fid: FuncId) -> Naming {
    assign_names_with(module, fid, false)
}

/// The proposal of `v`, if it is an instruction with one.
fn proposal(proposals: &[Option<VarId>], v: Value) -> Option<VarId> {
    match v {
        Value::Inst(id) => proposals.get(id.index()).copied().flatten(),
        _ => None,
    }
}

fn assign_names_with(module: &Module, fid: FuncId, use_metadata: bool) -> Naming {
    let f = module.func(fid);
    let owners = f.inst_blocks();
    let n = f.insts.len();

    // --- Variable Proposer + Metadata Interpreter ----------------------
    // proposals: instruction -> source variable.
    let mut proposals: Vec<Option<VarId>> = vec![None; n];
    if use_metadata {
        for (idx, inst) in f.insts.iter().enumerate() {
            if owners[idx].is_none() {
                continue;
            }
            if let InstKind::DbgValue {
                val: Value::Inst(v),
                var,
            } = inst.kind
            {
                if let Some(p) = proposals.get_mut(v.index()) {
                    p.get_or_insert(var);
                }
            }
        }
    }
    // Phi-web combination: a phi adopts (and shares) the proposal of its
    // incomings; incomings without proposals adopt the phi's.
    let mut changed = use_metadata;
    while changed {
        changed = false;
        for (idx, inst) in f.insts.iter().enumerate() {
            if owners[idx].is_none() {
                continue;
            }
            if let InstKind::Phi { incomings } = &inst.kind {
                let var = proposals[idx]
                    .or_else(|| incomings.iter().find_map(|&(_, v)| proposal(&proposals, v)));
                let Some(var) = var else { continue };
                let web = std::iter::once(InstId(idx as u32))
                    .chain(incomings.iter().filter_map(|(_, v)| v.as_inst()));
                for id in web {
                    match proposals.get_mut(id.index()) {
                        Some(p) if p.is_none() => {
                            *p = Some(var);
                            changed = true;
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    // --- Algorithms 1 + 2, iterated to a fixpoint -----------------------
    if proposals.iter().any(Option::is_some) {
        let rpo = f.reverse_post_order();
        let preds = f.predecessors();
        loop {
            let doomed = conflicting_definitions(f, &rpo, &preds, &proposals);
            if doomed.is_empty() {
                break;
            }
            for id in doomed {
                proposals[id.index()] = None;
            }
        }
    }

    // --- Variable Generator ---------------------------------------------
    let mut naming = Naming {
        text: String::new(),
        ends: Vec::with_capacity(n),
        slots: vec![(NONE, NameOrigin::Register); n],
    };
    // Every name assigned so far, as name indices sorted by text.
    let mut taken: Vec<u32> = Vec::with_capacity(n);
    // Source-variable names are shared by design, also between distinct
    // variables that print the same.
    for (idx, var) in proposals.iter().enumerate() {
        let Some(var) = var else { continue };
        let name = module.name_of(module.di_vars[var.index()].name);
        let (Ok(k) | Err(k)) = claim(&mut naming, &mut taken, name);
        naming.slots[idx] = (k, NameOrigin::SourceVariable);
    }
    // Everything else falls back to its register hint, uniquified.
    let (mut base, mut candidate) = (String::new(), String::new());
    for (idx, inst) in f.insts.iter().enumerate() {
        if owners[idx].is_none() || !inst.has_result() || naming.slots[idx].0 != NONE {
            continue;
        }
        base.clear();
        match inst.name {
            Some(hint) => base.extend(module.name_of(hint).chars().map(|c| match c {
                '.' => '_',
                c => c,
            })),
            None => {
                let _ = write!(base, "v{idx}");
            }
        }
        let mut suffix = 0;
        let k = loop {
            let name = if suffix == 0 {
                &base
            } else {
                candidate.clear();
                let _ = write!(candidate, "{base}{suffix}");
                &candidate
            };
            if let Ok(k) = claim(&mut naming, &mut taken, name) {
                break k;
            }
            suffix += 1;
        };
        naming.slots[idx] = (k, NameOrigin::Register);
    }
    naming
}

/// Give `name` a new entry in `naming` and its place in `taken` (every
/// name index, sorted by text), or return the index of the entry that
/// already has it as `Err`. A binary search over the sorted indices
/// answers "is this name taken?" with no hashing and no owned copy.
fn claim(naming: &mut Naming, taken: &mut Vec<u32>, name: &str) -> Result<u32, u32> {
    let text = naming.text.as_bytes();
    match taken.binary_search_by(|&k| text[naming.span(k as usize)].cmp(name.as_bytes())) {
        Ok(pos) => Err(taken[pos]),
        Err(pos) => {
            let k = naming.push_name(name) as u32;
            taken.insert(pos, k);
            Ok(k)
        }
    }
}

/// One round's `(variable, definition)` pairs, the bit universe of
/// Algorithm 1.
struct DefPairs {
    /// The pairs sorted by variable, so one variable's definitions are a
    /// contiguous run of bits.
    pairs: Vec<(VarId, InstId)>,
    /// Per pair: the bit range of its variable's run.
    run: Vec<(u32, u32)>,
    /// Per instruction: the bit of its pair, `NONE` when not proposed.
    bit: Vec<u32>,
    /// Words per bitset.
    words: usize,
}

impl DefPairs {
    fn new(proposals: &[Option<VarId>]) -> DefPairs {
        let mut pairs: Vec<(VarId, InstId)> = proposals
            .iter()
            .enumerate()
            .filter_map(|(i, var)| var.map(|var| (var, InstId(i as u32))))
            .collect();
        pairs.sort_unstable();
        let mut run = vec![(0, 0); pairs.len()];
        let mut bit = vec![NONE; proposals.len()];
        let mut lo = 0;
        while lo < pairs.len() {
            let var = pairs[lo].0;
            let hi = lo + pairs[lo..].iter().take_while(|p| p.0 == var).count();
            for k in lo..hi {
                run[k] = (lo as u32, hi as u32);
                bit[pairs[k].1.index()] = k as u32;
            }
            lo = hi;
        }
        let words = pairs.len().div_ceil(64);
        DefPairs {
            pairs,
            run,
            bit,
            words,
        }
    }

    /// Algorithm 1's transfer for instruction `i`: the bit range it KILLs
    /// and the bit it GENs (`NONE` for a constant definition). A `dbg`
    /// intrinsic whose value still carries its proposal (re)defines the
    /// variable, and so does the *definition* of any proposed value itself
    /// (phi-web members inherit their def event from the web even when
    /// optimization dropped their own `dbg` intrinsic).
    fn transfer(&self, f: &Function, i: InstId, proposals: &[Option<VarId>]) -> Option<Transfer> {
        let inst = f.inst(i);
        let defined = match inst.kind {
            InstKind::DbgValue { val, var } if proposal(proposals, val) == Some(var) => {
                val.as_inst()
            }
            InstKind::DbgValue { val, var } if val.is_const() => {
                let lo = self.pairs.partition_point(|p| p.0 < var);
                let hi = lo + self.pairs[lo..].iter().take_while(|p| p.0 == var).count();
                return Some(Transfer {
                    kill: (lo, hi),
                    gen: NONE,
                });
            }
            InstKind::DbgValue { .. } => None,
            _ if inst.has_result() && proposals[i.index()].is_some() => Some(i),
            _ => None,
        }?;
        let b = self.bit[defined.index()];
        let (lo, hi) = self.run[b as usize];
        Some(Transfer {
            kill: (lo as usize, hi as usize),
            gen: b,
        })
    }
}

/// The effect of one instruction on the most-recent-definition set.
#[derive(Clone, Copy)]
struct Transfer {
    kill: (usize, usize),
    gen: u32,
}

impl Transfer {
    fn apply(self, set: &mut [u64]) {
        let (lo, hi) = self.kill;
        for_range_words(lo, hi, |j, mask| set[j] &= !mask);
        if self.gen != NONE {
            set[self.gen as usize / 64] |= 1 << (self.gen % 64);
        }
    }
}

/// Call `each(word, mask)` for every word overlapping bits `lo..hi`, with
/// the mask of the range's bits in that word.
fn for_range_words(lo: usize, hi: usize, mut each: impl FnMut(usize, u64)) {
    if lo >= hi {
        return;
    }
    for j in lo / 64..=(hi - 1) / 64 {
        let a = lo.max(j * 64) - j * 64;
        let b = hi.min(j * 64 + 64) - j * 64;
        let ones = if b - a == 64 {
            !0
        } else {
            (1u64 << (b - a)) - 1
        };
        each(j, ones << a);
    }
}

/// The union of the OUT sets of `preds`, into `set`.
fn join_into(set: &mut [u64], out: &[u64], preds: &[BlockId]) {
    let w = set.len();
    set.fill(0);
    for p in preds {
        for (s, o) in set.iter_mut().zip(&out[p.index() * w..][..w]) {
            *s |= o;
        }
    }
}

/// One round of Algorithms 1 and 2: the proposed definitions that are
/// live (most recent) at a use of a *different* definition of the same
/// variable, and so must lose their mapping.
fn conflicting_definitions(
    f: &Function,
    rpo: &[BlockId],
    preds: &[Vec<BlockId>],
    proposals: &[Option<VarId>],
) -> Vec<InstId> {
    let defs = DefPairs::new(proposals);
    let w = defs.words;
    let nblocks = f.blocks.len();

    // Block summaries, OUT = GEN ∪ (IN − KILL), composed from the
    // instructions' transfers.
    let mut gen = vec![0u64; nblocks * w];
    let mut kill = vec![0u64; nblocks * w];
    for &bb in rpo {
        let g = &mut gen[bb.index() * w..][..w];
        let k = &mut kill[bb.index() * w..][..w];
        for &i in &f.block(bb).insts {
            if let Some(t) = defs.transfer(f, i, proposals) {
                let (lo, hi) = t.kill;
                for_range_words(lo, hi, |j, mask| k[j] |= mask);
                t.apply(g);
            }
        }
    }

    // Algorithm 1: most recent definitions at block exits, to a fixpoint.
    let mut out = vec![0u64; nblocks * w];
    let mut cur = vec![0u64; w];
    let mut changed = true;
    while changed {
        changed = false;
        for &bb in rpo {
            join_into(&mut cur, &out, &preds[bb.index()]);
            let base = bb.index() * w;
            for j in 0..w {
                let v = (cur[j] & !kill[base + j]) | gen[base + j];
                if v != out[base + j] {
                    out[base + j] = v;
                    changed = true;
                }
            }
        }
    }

    // Algorithm 2: at every use of a proposed value, any other live
    // definition of the same variable conflicts.
    let mut doomed = vec![0u64; w];
    for &bb in rpo {
        join_into(&mut cur, &out, &preds[bb.index()]);
        for &i in &f.block(bb).insts {
            let inst = f.inst(i);
            if !matches!(inst.kind, InstKind::DbgValue { .. }) {
                inst.kind.for_each_operand(|op| {
                    let Some(id) = op.as_inst() else { return };
                    let Some(&b) = defs.bit.get(id.index()) else {
                        return;
                    };
                    if b == NONE {
                        return;
                    }
                    let (lo, hi) = defs.run[b as usize];
                    for_range_words(lo as usize, hi as usize, |j, mask| {
                        let own = if j == b as usize / 64 {
                            1 << (b % 64)
                        } else {
                            0
                        };
                        doomed[j] |= cur[j] & mask & !own;
                    });
                });
            }
            if let Some(t) = defs.transfer(f, i, proposals) {
                t.apply(&mut cur);
            }
        }
    }
    (0..defs.pairs.len())
        .filter(|&k| doomed[k / 64] & (1 << (k % 64)) != 0)
        .map(|k| defs.pairs[k].1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use splendid_ir::builder::FuncBuilder;
    use splendid_ir::{BinOp, Type};
    use std::collections::HashSet;

    /// The Figure-5 shape: %1 and %2 both dbg-mapped to `var`, with %1
    /// used after %2's definition — a conflict; %3 mapped later with no
    /// overlap.
    fn figure5() -> (Module, FuncId) {
        let mut m = Module::new("m");
        let var = m.intern_di_var("var", "f");
        let mut b = FuncBuilder::new(&mut m, "f", &[("x", Type::I64)], Type::Void);
        // A: %1 = ...
        let v1 = b.bin(BinOp::Add, Type::I64, b.arg(0), Value::i64(1), "");
        b.dbg_value(v1, var); // B
                              // C: func(%1) — modeled as a pure use.
        let _use1 = b.bin(BinOp::Mul, Type::I64, v1, Value::i64(2), "");
        // D: %2 = ...
        let v2 = b.bin(BinOp::Add, Type::I64, b.arg(0), Value::i64(2), "");
        b.dbg_value(v2, var); // E
                              // F: func(%1) — %1 used after %2's def: conflict.
        let _use2 = b.bin(BinOp::Mul, Type::I64, v1, Value::i64(3), "");
        // G: %3 = ...; no more uses of %1/%2 afterwards.
        let v3 = b.bin(BinOp::Add, Type::I64, b.arg(0), Value::i64(3), "");
        b.dbg_value(v3, var); // H
        let _use3 = b.bin(BinOp::Mul, Type::I64, v3, Value::i64(4), "");
        b.ret(None);
        let fid = b.finish();
        (m, fid)
    }

    #[test]
    fn figure5_conflict_resolution() {
        let (m, fid) = figure5();
        let naming = assign_names(&m, fid);
        let f = m.func(fid);
        // Identify v1, v2, v3 by their constant operands.
        let find = |c: i64| -> InstId {
            f.insts
                .iter()
                .enumerate()
                .find(|(_, i)| match &i.kind {
                    InstKind::Bin {
                        op: BinOp::Add,
                        rhs,
                        ..
                    } => rhs.as_int() == Some(c),
                    _ => false,
                })
                .map(|(idx, _)| InstId(idx as u32))
                .unwrap()
        };
        let (v1, v2, v3) = (find(1), find(2), find(3));
        // %1 keeps the name (used at F where it must still be `var`).
        assert_eq!(naming.name_of(v1), Some("var"));
        // %2's mapping was removed: it gets a register name.
        assert_eq!(naming.get(v2).unwrap().1, NameOrigin::Register);
        assert_ne!(naming.name_of(v2), Some("var"));
        // %3 maps to var again (no conflict).
        assert_eq!(naming.name_of(v3), Some("var"));
    }

    #[test]
    fn no_conflict_all_restored() {
        let mut m = Module::new("m");
        let var = m.intern_di_var("x", "f");
        let mut b = FuncBuilder::new(&mut m, "f", &[("a", Type::I64)], Type::I64);
        let v1 = b.bin(BinOp::Add, Type::I64, b.arg(0), Value::i64(1), "");
        b.dbg_value(v1, var);
        let v2 = b.bin(BinOp::Mul, Type::I64, v1, Value::i64(2), "");
        b.dbg_value(v2, var);
        b.ret(Some(v2));
        let fid = b.finish();
        let naming = assign_names(&m, fid);
        // v1's last use (in v2's def) precedes v2's dbg event, so both may
        // be `x`.
        assert_eq!(naming.name_of(v1.as_inst().unwrap()), Some("x"));
        assert_eq!(naming.name_of(v2.as_inst().unwrap()), Some("x"));
    }

    #[test]
    fn phi_web_shares_name() {
        let mut m = Module::new("m");
        let var = m.intern_di_var("i", "f");
        let mut b = FuncBuilder::new(&mut m, "f", &[("n", Type::I64)], Type::Void);
        let body = b.new_block("body");
        let exit = b.new_block("exit");
        let entry = b.current_block();
        b.br(body);
        b.switch_to(body);
        let iv = b.phi(Type::I64, vec![(entry, Value::i64(0))], "");
        b.dbg_value(iv, var);
        let next = b.bin(BinOp::Add, Type::I64, iv, Value::i64(1), "");
        if let Value::Inst(p) = iv {
            if let InstKind::Phi { incomings } = &mut b.func_mut().inst_mut(p).kind {
                incomings.push((body, next));
            }
        }
        let c = b.icmp(splendid_ir::IPred::Slt, next, b.arg(0), "");
        b.cond_br(c, body, exit);
        b.switch_to(exit);
        b.ret(None);
        let fid = b.finish();
        let naming = assign_names(&m, fid);
        assert_eq!(naming.name_of(iv.as_inst().unwrap()), Some("i"));
        // next adopted the phi's variable through web combination.
        assert_eq!(naming.name_of(next.as_inst().unwrap()), Some("i"));
    }

    #[test]
    fn unmapped_values_get_unique_register_names() {
        let mut m = Module::new("m");
        let mut b = FuncBuilder::new(&mut m, "f", &[("a", Type::I64)], Type::I64);
        let v1 = b.bin(BinOp::Add, Type::I64, b.arg(0), Value::i64(1), "tmp");
        let v2 = b.bin(BinOp::Add, Type::I64, b.arg(0), Value::i64(2), "tmp");
        let v3 = b.bin(BinOp::Add, Type::I64, v1, v2, "");
        b.ret(Some(v3));
        let fid = b.finish();
        let naming = assign_names(&m, fid);
        let names: HashSet<&str> = [v1, v2, v3]
            .iter()
            .map(|v| naming.name_of(v.as_inst().unwrap()).unwrap())
            .collect();
        assert_eq!(names.len(), 3, "names must be unique: {names:?}");
        assert!(names.contains("tmp"));
        assert!(names.contains("tmp1"));
    }

    #[test]
    fn insert_shares_equal_names() {
        let mut naming = Naming::default();
        naming.insert(InstId(3), "a", NameOrigin::Register);
        naming.insert(InstId(1), "b", NameOrigin::SourceVariable);
        naming.insert(InstId(5), "a", NameOrigin::SourceVariable);
        assert_eq!(naming.name_count(), 2);
        assert_eq!(naming.name_index(InstId(3)), naming.name_index(InstId(5)));
        assert_eq!(
            naming.get(InstId(5)),
            Some(("a", NameOrigin::SourceVariable))
        );
        assert_eq!(naming.name_of(InstId(0)), None);
        assert_eq!(naming.name_of(InstId(9)), None);
        let all: Vec<_> = naming.iter().collect();
        assert_eq!(
            all,
            [
                (InstId(1), "b", NameOrigin::SourceVariable),
                (InstId(3), "a", NameOrigin::Register),
                (InstId(5), "a", NameOrigin::SourceVariable),
            ]
        );
    }
}
