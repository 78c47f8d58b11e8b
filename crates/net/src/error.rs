//! The failure modes of the wire.
//!
//! [`NetError`] separates the three things that can go wrong on a
//! mediator↔wrapper link — the transport failed ([`NetError::Io`]), the
//! peer spoke the protocol wrong ([`NetError::Protocol`]), or the peer
//! spoke the protocol *right* and reported a fault of its own
//! ([`NetError::Remote`]). `mix-mediator` folds these onto its
//! `SourceError` fault model (DESIGN.md §9) so retries, circuit breakers,
//! and degradation reports work identically over sockets and in-process
//! wrappers.

use std::fmt;
use std::io;

/// Why a wire operation failed.
#[derive(Debug)]
pub enum NetError {
    /// The transport failed: refused connection, timeout, reset,
    /// mid-frame disconnect. The `io::ErrorKind` carries the diagnosis.
    Io(io::Error),
    /// The peer violated the protocol: wrong version byte, unknown
    /// message type, oversized frame, payload that is not UTF-8, or a
    /// response type the request cannot be answered with.
    Protocol(String),
    /// The peer answered with an `Err` message: a fault that happened on
    /// the *remote* side, forwarded verbatim. `kind` uses the stable
    /// labels of the mediator's `SourceError::kind()` ("transient",
    /// "timeout", "unavailable", …).
    Remote {
        /// Stable machine-readable fault label.
        kind: String,
        /// Human-readable detail.
        msg: String,
    },
    /// The peers speak incompatible frame versions. Unlike a refused
    /// connection or a timeout this is **not retryable** — reconnecting
    /// to the same peer cannot change its build — so `mix-mediator` maps
    /// it to a deployment fault that circuit breakers do *not* count.
    VersionMismatch {
        /// The version byte the peer sent.
        theirs: u8,
        /// [`crate::FRAME_VERSION`] of this build.
        ours: u8,
    },
    /// The peer's admission control shed this request (a
    /// [`crate::Msg::Throttled`] reply): backpressure, not a fault of
    /// either side. The caller should back off for at least
    /// `retry_after_ms` before asking again.
    Throttled {
        /// The peer's suggested minimum backoff, in milliseconds.
        retry_after_ms: u64,
    },
}

impl NetError {
    /// Shorthand for a protocol violation.
    pub fn protocol(msg: impl Into<String>) -> NetError {
        NetError::Protocol(msg.into())
    }

    /// Whether this is a transport timeout (`TimedOut` / `WouldBlock` —
    /// platforms disagree on which one a socket read deadline raises).
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            NetError::Io(e) if matches!(
                e.kind(),
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            )
        )
    }

    /// Whether this is a refused / unreachable connection.
    pub fn is_refused(&self) -> bool {
        matches!(
            self,
            NetError::Io(e) if matches!(
                e.kind(),
                io::ErrorKind::ConnectionRefused
                    | io::ErrorKind::AddrNotAvailable
                    | io::ErrorKind::NotFound
            )
        )
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport error: {e}"),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            NetError::Remote { kind, msg } => write!(f, "remote fault [{kind}]: {msg}"),
            NetError::VersionMismatch { theirs, ours } => write!(
                f,
                "protocol version mismatch: peer speaks {theirs}, this build speaks {ours}"
            ),
            NetError::Throttled { retry_after_ms } => {
                write!(f, "throttled by peer: retry after {retry_after_ms}ms")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> NetError {
        NetError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeout_and_refusal_classification() {
        let t = NetError::Io(io::Error::new(io::ErrorKind::TimedOut, "deadline"));
        assert!(t.is_timeout());
        assert!(!t.is_refused());
        let r = NetError::Io(io::Error::new(io::ErrorKind::ConnectionRefused, "refused"));
        assert!(r.is_refused());
        assert!(!r.is_timeout());
        assert!(!NetError::protocol("bad byte").is_timeout());
    }

    #[test]
    fn version_mismatch_and_throttle_are_neither_timeout_nor_refusal() {
        let v = NetError::VersionMismatch { theirs: 9, ours: 1 };
        assert!(!v.is_timeout() && !v.is_refused());
        assert_eq!(
            v.to_string(),
            "protocol version mismatch: peer speaks 9, this build speaks 1"
        );
        let t = NetError::Throttled { retry_after_ms: 40 };
        assert!(!t.is_timeout() && !t.is_refused());
        assert_eq!(t.to_string(), "throttled by peer: retry after 40ms");
    }
}
