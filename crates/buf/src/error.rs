//! Error type for buffer operations.

use std::fmt;

/// Errors produced by buffer and aggregate operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BufError {
    /// A range extends past the end of an aggregate or slice.
    OutOfRange {
        /// Requested end offset.
        requested: u64,
        /// Available length.
        available: u64,
    },
    /// An allocation exceeded the pool's chunk size.
    TooLarge {
        /// Requested allocation size.
        requested: usize,
        /// Maximum supported single allocation.
        max: usize,
    },
}

impl fmt::Display for BufError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BufError::OutOfRange {
                requested,
                available,
            } => write!(
                f,
                "range end {requested} exceeds available length {available}"
            ),
            BufError::TooLarge { requested, max } => {
                write!(
                    f,
                    "allocation of {requested} bytes exceeds chunk size {max}"
                )
            }
        }
    }
}

impl std::error::Error for BufError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = BufError::OutOfRange {
            requested: 10,
            available: 5,
        };
        assert!(e.to_string().contains("10"));
        let t = BufError::TooLarge {
            requested: 100,
            max: 64,
        };
        assert!(t.to_string().contains("100"));
    }
}
