//! # lcl-classifier
//!
//! The decidability algorithm of *"The distributed complexity of locally
//! checkable problems on paths is decidable"* (PODC 2019), Section 4: given an
//! LCL problem with input labels on directed paths/cycles, decide whether its
//! deterministic LOCAL complexity is `O(1)`, `Θ(log* n)` or `Θ(n)` — and
//! produce an asymptotically optimal LOCAL algorithm for the class.
//!
//! The crate follows the paper's proof plan, with the type machinery of
//! `lcl-semigroup` standing in for the equivalence classes of §4.1:
//!
//! * **Solvability** — a problem that admits no valid labeling on some
//!   input-labeled cycle is reported as [`Complexity::Unsolvable`] together
//!   with a witness instance (the paper implicitly restricts attention to
//!   always-solvable problems).
//! * **The `ω(log* n) — o(n)` gap (Theorem 8)** — decided by searching for a
//!   *feasible function* that labels constant-size anchor blocks so that any
//!   gap between two anchored blocks can always be completed, whatever its
//!   input; the search is over the finite type semigroup
//!   ([`feasibility`]).
//! * **The `ω(1) — o(log* n)` gap (Theorem 9)** — decided by additionally
//!   requiring periodic output labelings for every short primitive input
//!   pattern (the `G_{w,z}` condition of §4.4) that are compatible with the
//!   anchored blocks across arbitrary middles (the `G_{w1,w2,S}` condition).
//! * **Synthesis** — each verdict comes with a runnable
//!   [`LocalAlgorithm`](lcl_local_sim::LocalAlgorithm): the trivial gather-all
//!   algorithm for `Θ(n)`, the anchored-block algorithm on top of the
//!   `O(log* n)` ruling set for `Θ(log* n)` (Lemma 16/17), and the
//!   periodic-core algorithm on top of the `(ℓ_width, ℓ_count, ℓ_pattern)`
//!   partition for `O(1)` (Lemmas 19–22, 26, 27).
//!
//! # Example
//!
//! ```
//! use lcl_classifier::{classify, Complexity};
//! use lcl_problem::NormalizedLcl;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Proper 3-coloring of a directed cycle: Θ(log* n).
//! let mut b = NormalizedLcl::builder("3-coloring");
//! b.input_labels(&["x"]);
//! b.output_labels(&["1", "2", "3"]);
//! b.allow_all_node_pairs();
//! for p in 0..3u16 {
//!     for q in 0..3u16 {
//!         if p != q {
//!             b.allow_edge_idx(p, q);
//!         }
//!     }
//! }
//! let problem = b.build()?;
//! let classification = classify(&problem)?;
//! assert_eq!(classification.complexity(), Complexity::LogStar);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod classify;
pub mod engine;
mod error;
pub mod feasibility;
pub mod obs;
mod pool;
pub mod snapshot;
mod stream;
pub mod synthesis;
mod types_info;
mod verdict;

pub use cache::{
    CacheStats, Computed, FlightLease, FlightOutcome, Inserted, Lead, LruCache, ParkedWork,
};
pub use classify::{classify, classify_with_options, ClassifierOptions, Stage};
pub use engine::{
    approximate_classification_weight, approximate_entry_weight, default_engine, CacheEntry,
    Engine, EngineBuilder, Lane, ReplyLane, Solution, DEFAULT_CACHE_CAPACITY,
};
pub use error::ClassifierError;
pub use feasibility::{FeasibleStructure, PatternLabeling};
pub use lcl_semigroup::WorkMeter;
pub use obs::{HistogramSnapshot, LatencyHistogram, TraceRecord};
pub use pool::PoolStats;
pub use snapshot::{RestoreReport, SNAPSHOT_FORMAT, SNAPSHOT_VERSION};
pub use stream::{StreamSolution, STREAM_RADIUS_CAP};
pub use synthesis::{ConstantAlgorithm, LogStarAlgorithm, SynthesizedAlgorithm};
pub use types_info::GapTypes;
pub use verdict::{Classification, Complexity, Verdict};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, ClassifierError>;
