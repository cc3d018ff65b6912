//! # lcl-semigroup
//!
//! The transfer-relation engine behind the decidability results of
//! *"The distributed complexity of locally checkable problems on paths is
//! decidable"* (PODC 2019), Section 4.1.
//!
//! The paper classifies input-labeled directed paths into finitely many
//! equivalence classes ("types", relation `⋆∼`) such that replacing a subpath
//! by another subpath of the same type preserves the extendability of partial
//! output labelings (Lemmas 10–11). Types are computed by a finite automaton
//! (Lemma 12), there are finitely many of them (Lemma 13) and they can be
//! pumped (Lemmas 14–15).
//!
//! This crate implements that machinery in two ways:
//!
//! * **Transfer relations** ([`OutRelation`], [`TransferSystem`]): for a word
//!   `w ∈ Σ_in^+`, the boolean relation `R(w)[p][q] = "some valid labeling of
//!   `w` starts with `p` and ends with `q`"`. `R` is a morphism into a finite
//!   semigroup (`R(uv) = R(u)·E·R(v)`), which is exactly the information the
//!   paper's types carry for radius-1 (normalized) problems. The
//!   [`TypeSemigroup`] enumerates all reachable relations, their composition
//!   table, shortest witnesses, idempotent powers and the exact
//!   pre-period/period of length-reachability — these play the role of the
//!   paper's pumping constant `ℓ_pump`, with the tight value for the given
//!   problem instead of the worst-case bound of Lemma 13.
//! * **Paper-literal types** ([`naive`]): the brute-force extendability-table
//!   definition of `⋆∼` over the tripartition `ξ(P) = (D1, D2, D3)` of
//!   Figure 4. This engine is exponentially slower and exists to cross-check
//!   the transfer-relation engine (see the `ablation_type_engines` bench and
//!   the equivalence tests).
//!
//! The crate also provides the string-combinatorics utilities the Section 4.3
//! partition needs: primitivity, periods, run decompositions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod meter;
pub mod naive;
mod periodicity;
mod pumping;
mod relation;
mod semigroup;
mod transfer;
mod tripartition;

pub use error::SemigroupError;
pub use meter::WorkMeter;
pub use periodicity::{
    is_primitive, maximal_run_at, primitive_root, primitive_strings_up_to, smallest_period,
};
pub use pumping::{pump_decomposition, pump_exponent, PumpDecomposition, PumpExponent};
pub use relation::OutRelation;
pub use semigroup::{LengthProfile, SemigroupBuilder, TypeId, TypeSemigroup};
pub use transfer::{word_from_indices, TransferSystem};
pub use tripartition::{tripartition, Tripartition};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, SemigroupError>;
