//! Error type shared by the wire protocol, the endpoints and the
//! drivers.

use std::fmt;

/// Everything that can go wrong between a socket and the slot loop.
#[derive(Debug)]
pub enum NetError {
    /// A frame violated the wire grammar (bad tag, bad length,
    /// oversized payload). Decoding never panics — corrupt input lands
    /// here, naming the offending rule.
    Frame(&'static str),
    /// A well-formed frame arrived at the wrong point of the session
    /// protocol (offer before hello, slot going backwards, …).
    Protocol(&'static str),
    /// The peer speaks a different protocol version.
    Version {
        /// Version this side implements.
        ours: u16,
        /// Version the peer announced.
        theirs: u16,
    },
    /// The peer closed the connection before a graceful shutdown.
    Closed,
    /// Reconnect backoff ran out of retries.
    RetriesExhausted,
    /// At shutdown a driver's own count disagrees with the engine's
    /// ledger: an offer went missing, or a verdict frame was sent for
    /// no decision or not sent for one.
    Ledger {
        /// Which count: `"offered"`, `"admitted"` or `"rejected"`.
        field: &'static str,
        /// The driver's count.
        driver: u64,
        /// The engine's count.
        engine: u64,
    },
    /// An underlying socket error.
    Io(std::io::Error),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Frame(rule) => write!(f, "malformed frame: {rule}"),
            NetError::Protocol(rule) => write!(f, "protocol violation: {rule}"),
            NetError::Version { ours, theirs } => {
                write!(f, "version mismatch: ours {ours}, peer {theirs}")
            }
            NetError::Closed => write!(f, "peer closed before shutdown"),
            NetError::RetriesExhausted => write!(f, "reconnect retries exhausted"),
            NetError::Ledger {
                field,
                driver,
                engine,
            } => write!(
                f,
                "ledger mismatch at shutdown: driver counted {driver} {field}, engine {engine}"
            ),
            NetError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}
