//! # lcl-paths
//!
//! Umbrella crate for the reproduction of *"The distributed complexity of
//! locally checkable problems on paths is decidable"* (Balliu, Brandt, Chang,
//! Olivetti, Rabie, Suomela — PODC 2019).
//!
//! The workspace is organised as one crate per subsystem; this crate simply
//! re-exports them under stable module names so that examples, integration
//! tests and downstream users need a single dependency:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`problem`] | `lcl-problem` | LCL problems, instances, verifiers, the JSON wire format ([`problem::ProblemSpec`]) |
//! | [`semigroup`] | `lcl-semigroup` | transfer relations, types, pumping |
//! | [`sim`] | `lcl-local-sim` | the LOCAL model simulators |
//! | [`algorithms`] | `lcl-algorithms` | Cole–Vishkin, MIS, ruling sets, partitions |
//! | [`lba`] | `lcl-lba` | linear bounded automata |
//! | [`hardness`] | `lcl-hardness` | the `Π_{M_B}` construction and §3 machinery |
//! | [`classifier`] | `lcl-classifier` | the decision procedure, synthesis (§4), and the [`Engine`] service API |
//! | [`gen`] | `lcl-gen` | seeded random LCL-problem generator (workload generation) |
//! | [`problems`] | `lcl-problems` | the problem corpus with ground truths |
//! | [`error`] | — | the unified [`Error`] type with `From` conversions from every subsystem |
//!
//! The service-facing surface — [`Engine`], [`EngineBuilder`],
//! [`classifier::Verdict`], [`problem::ProblemSpec`] and [`Error`] — is
//! additionally re-exported at the crate root.
//!
//! # Quick start: the engine
//!
//! [`Engine`] is the recommended entry point: it memoizes the expensive
//! type-semigroup work per problem structure, classifies batches in parallel
//! ([`Engine::classify_many`]), and can classify + synthesize + execute in
//! one call ([`Engine::solve`]).
//!
//! ```
//! use lcl_paths::{Engine, classifier::Complexity};
//! use lcl_paths::problem::{Instance, Topology};
//! use lcl_paths::problems;
//!
//! # fn main() -> Result<(), lcl_paths::Error> {
//! let engine = Engine::new();
//!
//! // Classify one problem; a second call is served from the memo cache.
//! let verdict = engine.classify(&problems::coloring(3))?;
//! assert_eq!(verdict.complexity(), Complexity::LogStar);
//!
//! // Classify the whole corpus in parallel, verdicts in input order.
//! let corpus: Vec<_> = problems::corpus().into_iter().map(|e| e.problem).collect();
//! let verdicts = engine.classify_many(&corpus);
//! assert_eq!(verdicts.len(), corpus.len());
//!
//! // Classify, synthesize the optimal LOCAL algorithm, and run it.
//! let instance = Instance::from_indices(Topology::Cycle, &[0; 50]);
//! let solution = engine.solve(&problems::coloring(3), &instance)?;
//! assert_eq!(solution.labeling().len(), 50);
//! # Ok(())
//! # }
//! ```
//!
//! # Legacy one-shot entry point
//!
//! The original free function [`classifier::classify`] still works — it is a
//! thin wrapper over a process-wide default engine:
//!
//! ```
//! use lcl_paths::classifier::{classify, Complexity};
//! use lcl_paths::problems;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let verdict = classify(&problems::coloring(3))?;
//! assert_eq!(verdict.complexity(), Complexity::LogStar);
//! # Ok(())
//! # }
//! ```
//!
//! # Wire format
//!
//! Problems and verdicts serialize to versioned JSON for service boundaries:
//!
//! ```
//! use lcl_paths::{Engine, problem::ProblemSpec};
//! use lcl_paths::problems;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let problem = problems::coloring(3);
//! let payload = problem.to_json_string();                 // request body
//! let parsed = ProblemSpec::from_json_str(&payload)?.to_problem()?;
//! let verdict = Engine::new().verdict(&parsed)?;          // response body
//! assert!(verdict.to_json_string().contains("log-star"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;

pub use error::{Error, Result};
pub use lcl_algorithms as algorithms;
pub use lcl_classifier as classifier;
pub use lcl_classifier::{
    CacheStats, Computed, Engine, EngineBuilder, FlightOutcome, LruCache, Solution,
};
pub use lcl_gen as gen;
pub use lcl_hardness as hardness;
pub use lcl_lba as lba;
pub use lcl_local_sim as sim;
pub use lcl_problem as problem;
pub use lcl_problems as problems;
pub use lcl_semigroup as semigroup;

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_are_wired() {
        let p = crate::problems::copy_input();
        assert_eq!(p.num_outputs(), 2);
        assert_eq!(crate::sim::log_star(16), 3);
    }

    #[test]
    fn engine_reexports_are_wired() {
        let engine = crate::Engine::builder().parallelism(1).build();
        let stats: crate::CacheStats = engine.cache_stats();
        assert_eq!(stats.entries, 0);
    }
}
