//! Storage error types.

use std::fmt;

/// Result alias for storage operations.
pub type StorageResult<T> = Result<T, StorageError>;

/// Errors raised by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// The requested page does not exist on the disk manager.
    PageNotFound(u64),
    /// A record does not fit into a single page.
    RecordTooLarge {
        /// The record's payload size in bytes.
        size: usize,
        /// Maximum payload a fresh page accepts.
        max: usize,
    },
    /// The requested record id does not exist (or was never written).
    RecordNotFound {
        /// Page containing the slot.
        page: u64,
        /// Slot index within the page.
        slot: u16,
    },
    /// Page bytes failed structural validation when loaded.
    CorruptPage(u64, &'static str),
    /// An underlying I/O failure (file-backed disk manager only).
    Io(std::io::Error),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::PageNotFound(id) => write!(f, "page {id} not found"),
            Self::RecordTooLarge { size, max } => {
                write!(f, "record of {size} bytes exceeds page capacity {max}")
            }
            Self::RecordNotFound { page, slot } => {
                write!(f, "record (page {page}, slot {slot}) not found")
            }
            Self::CorruptPage(id, why) => write!(f, "page {id} corrupt: {why}"),
            Self::Io(e) => write!(f, "storage I/O error: {e}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(StorageError::PageNotFound(7).to_string(), "page 7 not found");
        let e = StorageError::RecordTooLarge { size: 9000, max: 8100 };
        assert!(e.to_string().contains("9000"));
        let e = StorageError::RecordNotFound { page: 1, slot: 2 };
        assert!(e.to_string().contains("slot 2"));
    }

    #[test]
    fn io_error_wraps() {
        let io = std::io::Error::other("boom");
        let e: StorageError = io.into();
        assert!(e.to_string().contains("boom"));
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
