//! Error type for the semigroup crate.

use std::error::Error as StdError;
use std::fmt;

/// Errors produced by the transfer-relation and type-semigroup machinery.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum SemigroupError {
    /// Two relations of different dimensions were combined.
    DimensionMismatch {
        /// Dimension of the left operand.
        left: usize,
        /// Dimension of the right operand.
        right: usize,
    },
    /// A word contained a label outside the problem's input alphabet.
    UnknownInputLabel {
        /// The offending label index.
        index: usize,
        /// Size of the input alphabet.
        alphabet_len: usize,
    },
    /// An operation required a non-empty word but received an empty one.
    EmptyWord,
    /// The semigroup enumeration exceeded the configured element budget.
    TooManyTypes {
        /// The configured budget that was exceeded.
        budget: usize,
    },
    /// A stage of work would have passed its [`crate::WorkMeter`] cap.
    WorkCapReached {
        /// The per-stage cap, in work units.
        cap: u64,
    },
}

impl fmt::Display for SemigroupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemigroupError::DimensionMismatch { left, right } => {
                write!(f, "relation dimensions differ: {left} vs {right}")
            }
            SemigroupError::UnknownInputLabel {
                index,
                alphabet_len,
            } => write!(
                f,
                "input label {index} is outside the alphabet of size {alphabet_len}"
            ),
            SemigroupError::EmptyWord => write!(f, "operation requires a non-empty word"),
            SemigroupError::TooManyTypes { budget } => {
                write!(f, "type semigroup exceeded the budget of {budget} elements")
            }
            SemigroupError::WorkCapReached { cap } => {
                write!(f, "a stage of work passed its cap of {cap} units")
            }
        }
    }
}

impl StdError for SemigroupError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(SemigroupError::DimensionMismatch { left: 2, right: 3 }
            .to_string()
            .contains("2 vs 3"));
        assert!(SemigroupError::EmptyWord.to_string().contains("non-empty"));
        assert!(SemigroupError::TooManyTypes { budget: 10 }
            .to_string()
            .contains("10"));
        assert!(SemigroupError::WorkCapReached { cap: 77 }
            .to_string()
            .contains("77 units"));
        assert!(SemigroupError::UnknownInputLabel {
            index: 5,
            alphabet_len: 2
        }
        .to_string()
        .contains("size 2"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: StdError + Send + Sync + 'static>() {}
        assert_err::<SemigroupError>();
    }
}
