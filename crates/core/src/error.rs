//! Workspace-wide error type.

use core::fmt;

/// Errors surfaced by the streamsum public API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Invalid window specification (zero extents, slide > win, …).
    InvalidWindow(String),
    /// Invalid clustering query parameters.
    InvalidQuery(String),
    /// A point with the wrong dimensionality was fed to a stream.
    DimensionMismatch {
        /// Dimensionality the consumer was configured with.
        expected: usize,
        /// Dimensionality of the offending point.
        got: usize,
    },
    /// A point carried a coordinate that is not finite, or whose grid
    /// cell index would not fit the cell arithmetic of the query it was
    /// fed to (the message names the value, the axis and the bound).
    InvalidCoordinate(String),
    /// Timestamps must be non-decreasing for time-based windows.
    OutOfOrderTimestamp {
        /// Most recent accepted timestamp.
        last: u64,
        /// The offending (earlier) timestamp.
        got: u64,
    },
    /// An archived pattern handle no longer resolves.
    UnknownPattern(u64),
    /// Invalid matching-query configuration (weights, thresholds, …).
    InvalidMatchQuery(String),
}

/// Convenience alias used across the workspace.
pub type Result<T, E = Error> = core::result::Result<T, E>;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidWindow(msg) => write!(f, "invalid window: {msg}"),
            Error::InvalidQuery(msg) => write!(f, "invalid cluster query: {msg}"),
            Error::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            Error::InvalidCoordinate(msg) => write!(f, "invalid coordinate: {msg}"),
            Error::OutOfOrderTimestamp { last, got } => {
                write!(f, "out-of-order timestamp {got} (last accepted {last})")
            }
            Error::UnknownPattern(id) => write!(f, "unknown pattern id {id}"),
            Error::InvalidMatchQuery(msg) => write!(f, "invalid match query: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = Error::DimensionMismatch {
            expected: 4,
            got: 2,
        };
        assert_eq!(e.to_string(), "dimension mismatch: expected 4, got 2");
        assert!(Error::InvalidWindow("x".into()).to_string().contains('x'));
        assert!(Error::UnknownPattern(9).to_string().contains('9'));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::InvalidQuery("q".into()));
    }
}
