//! R-tree error type.

use cpq_storage::{PageId, StorageError};
use std::fmt;

/// Result alias for R-tree operations.
pub type RTreeResult<T> = Result<T, RTreeError>;

/// Errors raised by R-tree operations.
#[derive(Debug)]
pub enum RTreeError {
    /// Failure in the underlying paged store.
    Storage(StorageError),
    /// A node page could not be decoded.
    CorruptNode {
        /// Page holding the node.
        page: PageId,
        /// Description of the defect.
        reason: String,
    },
    /// The tree parameters do not fit the page size.
    InvalidParams(String),
    /// Structural invariant violated (reported by the validator).
    InvariantViolation(String),
    /// A query description broke a contract of the query it describes
    /// (for example an asymmetric window on a self-join).
    InvalidQuery(String),
    /// A cooperative cancellation point observed a tripped token (deadline
    /// expiry or explicit cancel). Query drivers catch this to return the
    /// partial result accumulated so far; it never escapes the cancellable
    /// entry points.
    Cancelled,
}

impl fmt::Display for RTreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RTreeError::Storage(e) => write!(f, "storage error: {e}"),
            RTreeError::CorruptNode { page, reason } => {
                write!(f, "corrupt node on {page}: {reason}")
            }
            RTreeError::InvalidParams(msg) => write!(f, "invalid parameters: {msg}"),
            RTreeError::InvariantViolation(msg) => write!(f, "invariant violation: {msg}"),
            RTreeError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            RTreeError::Cancelled => write!(f, "operation cancelled"),
        }
    }
}

impl std::error::Error for RTreeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RTreeError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for RTreeError {
    fn from(e: StorageError) -> Self {
        RTreeError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = RTreeError::CorruptNode {
            page: PageId(3),
            reason: "bad level".into(),
        };
        assert!(e.to_string().contains("PageId(3)"));
        let e: RTreeError = StorageError::PageOutOfBounds(PageId(1)).into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
