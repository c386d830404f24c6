//! The unified error type for the `charisma` facade.
//!
//! Each simulation crate has its own error enum (`CfsError`, the trace
//! codec's `DecodeError`/`TraceFileError`, …). The facade wraps them all
//! in one [`Error`] so every fallible entry point in this crate — and any
//! application built on the prelude — can return `Result<_, charisma::Error>`
//! and use `?` across crate boundaries.

use std::fmt;

use charisma_cfs::CfsError;
use charisma_serve::ServeError;
use charisma_store::StoreError;
use charisma_trace::codec::DecodeError;
use charisma_trace::file::TraceFileError;
use charisma_workload::ShardFailure;

/// Any error the charisma pipeline can raise.
#[derive(Debug)]
pub enum Error {
    /// The pipeline was configured with a non-finite or non-positive
    /// workload scale.
    InvalidScale(f64),
    /// The pipeline was configured with zero worker shards.
    InvalidShards(usize),
    /// A Concurrent File System operation failed.
    Cfs(CfsError),
    /// A trace file could not be read or written.
    TraceFile(TraceFileError),
    /// A trace record could not be decoded.
    Decode(DecodeError),
    /// A shard worker panicked and exhausted its contained-retry budget.
    ShardFailed(ShardFailure),
    /// A columnar trace archive could not be written, opened, or scanned.
    Store(StoreError),
    /// The archive service rejected an ingest, flush or snapshot.
    Serve(ServeError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidScale(s) => {
                write!(f, "workload scale must be finite and positive, got {s}")
            }
            Error::InvalidShards(n) => {
                write!(f, "shard worker count must be at least 1, got {n}")
            }
            Error::Cfs(e) => write!(f, "CFS error: {e}"),
            Error::TraceFile(e) => write!(f, "{e}"),
            Error::Decode(e) => write!(f, "trace decode error: {e}"),
            Error::ShardFailed(e) => write!(f, "{e}"),
            Error::Store(e) => write!(f, "trace archive error: {e}"),
            Error::Serve(e) => write!(f, "archive service error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Cfs(e) => Some(e),
            Error::TraceFile(e) => Some(e),
            Error::ShardFailed(e) => Some(e),
            Error::Store(e) => Some(e),
            Error::Serve(e) => Some(e),
            Error::InvalidScale(_) | Error::InvalidShards(_) | Error::Decode(_) => None,
        }
    }
}

impl From<CfsError> for Error {
    fn from(e: CfsError) -> Self {
        Error::Cfs(e)
    }
}

impl From<TraceFileError> for Error {
    fn from(e: TraceFileError) -> Self {
        Error::TraceFile(e)
    }
}

impl From<DecodeError> for Error {
    fn from(e: DecodeError) -> Self {
        Error::Decode(e)
    }
}

impl From<ShardFailure> for Error {
    fn from(e: ShardFailure) -> Self {
        Error::ShardFailed(e)
    }
}

impl From<StoreError> for Error {
    fn from(e: StoreError) -> Self {
        Error::Store(e)
    }
}

impl From<ServeError> for Error {
    fn from(e: ServeError) -> Self {
        Error::Serve(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::TraceFile(TraceFileError::Io(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = Error::InvalidScale(f64::NAN);
        assert!(e.to_string().contains("scale"));
        let e = Error::InvalidShards(0);
        assert!(e.to_string().contains("at least 1"));
    }

    #[test]
    fn wraps_cfs_errors_with_source() {
        let e: Error = CfsError::NotOpen { session: 7 }.into();
        assert!(matches!(e, Error::Cfs(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn wraps_store_errors_with_source() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: Error = StoreError::Io(io).into();
        assert!(matches!(e, Error::Store(_)));
        assert!(e.to_string().contains("trace archive"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn wraps_io_errors_as_trace_file() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: Error = io.into();
        assert!(matches!(e, Error::TraceFile(TraceFileError::Io(_))));
    }
}
