//! # rdms-logic — the MSO-FO specification logic over DMS runs
//!
//! Section 4 of the paper introduces **MSO-FO**: monadic second-order logic over the linear
//! order of time points of a run, whose atomic formulae are FOL(R) queries evaluated at a
//! time point, extended with *global* first-order quantification over the data values
//! occurring anywhere in the run (`∃g u`).
//!
//! This crate provides:
//!
//! * [`msofo`] — the MSO-FO syntax ([`MsoFo`]) and the semantics of Appendix B evaluated on
//!   **finite run prefixes** ([`msofo::eval`]) — the form every checking engine in this
//!   workspace consumes — through a formula compiled once into per-position *letters*
//!   ([`msofo::CompiledFormula`]), which engines share across prefixes;
//! * [`foltl`] — the FO-LTL fragment (`G`, `F`, `X`, `U` with rigid data quantification),
//!   its finite-trace semantics, and its translation into MSO-FO (the paper notes
//!   "reachability, repeated reachability, fairness, liveness, safety, FO-LTL, etc." are all
//!   expressible);
//! * [`templates`] — ready-made property constructors used by examples, tests and benches
//!   (propositional reachability of Example 4.2, invariants, the response property of the
//!   introduction's student/graduation example, constraint-relativised model checking of
//!   Example 4.3).

pub mod foltl;
pub mod msofo;
pub mod templates;

pub use foltl::FoLtl;
pub use msofo::{MsoFo, PosVar, RunAssignment, SetVar};
