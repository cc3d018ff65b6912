//! # lcl-problem
//!
//! Representation of *locally checkable labeling* (LCL) problems on labeled
//! paths and cycles, as defined in Naor–Stockmeyer (1995) and used throughout
//! Balliu, Brandt, Chang, Olivetti, Rabie, Suomela, *"The distributed
//! complexity of locally checkable problems on paths is decidable"*
//! (PODC 2019).
//!
//! The crate provides:
//!
//! * [`Alphabet`], [`InLabel`], [`OutLabel`] — constant-size label sets;
//! * [`NormalizedLcl`] — the paper's normalized form (§2): a node constraint
//!   `C_in-out ⊆ Σ_in × Σ_out` and an edge constraint
//!   `C_out-out ⊆ Σ_out × Σ_out` checked against each node's predecessor;
//! * [`WindowLcl`] — general radius-`r` LCLs described by their set of allowed
//!   radius-`r` windows, together with a complexity-preserving conversion to
//!   the normalized form;
//! * [`Instance`] and [`Labeling`] — concrete labeled paths/cycles and output
//!   assignments, with exact verifiers for both problem forms;
//! * transformations (§3.7-style lifts, path↔cycle encodings, relabelings).
//!
//! # Example
//!
//! ```
//! use lcl_problem::{NormalizedLcl, Instance, Labeling};
//!
//! # fn main() -> Result<(), lcl_problem::ProblemError> {
//! // Proper 3-coloring of a directed cycle (inputs are irrelevant).
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
//! let instance = Instance::cycle(vec![0u16.into(); 6]);
//! let labeling = Labeling::from_indices(&[0, 1, 2, 0, 1, 2]);
//! assert!(problem.is_valid(&instance, &labeling));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alphabet;
mod envelope;
mod error;
mod instance;
pub mod json;
mod normalized;
mod spec;
mod stream;
mod transform;
mod verify;
mod window;

pub use alphabet::{Alphabet, InLabel, OutLabel};
pub use envelope::{ErrorReply, RequestEnvelope, ResponseEnvelope, PROTOCOL_VERSION};
pub use error::ProblemError;
pub use instance::{Instance, Labeling, Topology};
pub use normalized::{NormalizedLcl, NormalizedLclBuilder};
pub use spec::{fnv1a, ProblemSpec, PROBLEM_SPEC_VERSION};
pub use stream::{StreamInputs, StreamInstanceSpec, MAX_STREAM_NODES};
pub use transform::{
    lift_path_instance, lift_path_to_cycle, product_output_with_input, project_lifted_labeling,
    relabel_outputs, restrict_inputs, reverse_direction, ENDPOINT_LABEL_NAME, ENDPOINT_OUTPUT_NAME,
};
pub use verify::{ConsistencyReport, Violation, ViolationKind};
pub use window::{Window, WindowLcl, WindowLclBuilder};

/// Convenience result alias used by all fallible functions in this crate.
pub type Result<T> = std::result::Result<T, ProblemError>;
