//! `eqp-netlang`: a hardened textual network-definition language at the
//! trust boundary.
//!
//! Tenants of the `eqpd` certification service describe a Kahn network in
//! a small line-oriented language — channels, processes drawn from a safe
//! combinator vocabulary (const/lasso sources, copy, map, filter, merge,
//! delay, zip, and `expr` processes compiled from the [`SeqExpr`] grammar),
//! and equational descriptions `lhs ⟸ rhs` over the same grammar. The
//! daemon [`parse`]s the program with a **total, recursion-bounded
//! parser**, enforces hard resource budgets ([`NetLimits`]) — channel and
//! process counts, alphabet and expression sizes, compiled-IR instruction
//! caps — and rejects every malformed or over-budget program with a typed,
//! field-naming [`NetError`], never a panic. Accepted programs lower
//! through [`eqp_seqfn::SeqExpr::compile`] into runnable
//! [`Network`](eqp_kahn::Network)s whose processes all participate in
//! snapshot/restore, so tenant networks ride the entire existing stack:
//! checkpointing, supervision, ARQ, monitoring, and the `eqpd`
//! evict-resume journal.
//!
//! # Example
//!
//! ```
//! use eqp_netlang::{parse, NetLimits};
//!
//! let program = parse(
//!     "net doubler\n\
//!      steps 200\n\
//!      chan b = 0\n\
//!      chan c = 1\n\
//!      proc src = const b [1 2 3]\n\
//!      proc dbl = map affine(2,0) b -> c\n\
//!      eq c <= map(affine(2,0), b)\n",
//!     &NetLimits::default(),
//! )
//! .expect("valid program");
//! let net = program.build(7);
//! assert_eq!(net.len(), 2);
//! assert_eq!(program.description().name(), "doubler");
//! ```
//!
//! [`SeqExpr`]: eqp_seqfn::SeqExpr

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen;
mod limits;
mod parse;
mod program;

pub use gen::random_program;
pub use limits::{NetError, NetLimits};
pub use parse::parse;
pub use program::{NetProgram, ProcDecl, ProcKind};
