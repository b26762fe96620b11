//! Mini-C frontend with OpenMP support.
//!
//! This crate closes the loop that makes the reproduction's *portability*
//! claim testable end to end: PolyBench kernels written in a C subset are
//! parsed ([`parser`]), checked ([`sema`]), and lowered to SPLENDID IR with
//! debug metadata ([`lower`]); `#pragma omp` regions are outlined and
//! lowered to either the libomp-style (`__kmpc_*`) or libgomp-style
//! (`GOMP_*`) runtime ([`omp`]) — so C code decompiled by SPLENDID can be
//! *recompiled* by this frontend against either runtime, exactly as the
//! paper recompiles its output with Clang and GCC.
//!
//! The same [`ast`] and [`token`] modules serve the decompiler (which
//! builds the AST programmatically and pretty-prints it) and the BLEU
//! metric (which tokenizes C with this lexer).

pub mod ast;
pub mod lower;
pub mod omp;
pub mod parser;
pub mod sema;
pub mod token;

pub use ast::{
    print_func, print_program, print_unit, CBinOp, CExpr, CFunc, CProgram, CStmt, CType, CUnOp,
    OmpClauses, Schedule,
};
pub use lower::{lower_program, LowerOptions, OmpRuntime};
pub use parser::parse_program;
pub use token::{lex, CToken};
