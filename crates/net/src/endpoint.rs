//! Session endpoints: TCP / Unix-socket transport with the fleet's
//! recovery discipline.
//!
//! The transport layer deliberately knows nothing about frames or
//! slots — it moves bytes and fails loudly. What it *does* import from
//! the simulated core is the recovery vocabulary: reconnect backoff is
//! [`RecoveryConfig::backoff_slots`] scaled into wall-clock time by a
//! slot duration ([`ReconnectPolicy::delay`]). The schedule is
//! therefore exactly as deterministic as the simulated one — same
//! config, same delays — which the reconnect tests pin down without
//! opening a single socket: [`Reconnector`] is a pure state machine,
//! and the blocking [`connect_with_backoff`] helper merely executes it.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

use dms_serve::RecoveryConfig;

use crate::error::NetError;

/// Where an endpoint lives: a TCP address or a Unix socket path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EndpointAddr {
    /// A `host:port` TCP address, e.g. `127.0.0.1:4070`.
    Tcp(String),
    /// A filesystem Unix-domain socket path.
    Unix(PathBuf),
}

impl EndpointAddr {
    /// Parses `tcp:HOST:PORT` or `unix:PATH`.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on an unrecognized scheme.
    pub fn parse(s: &str) -> Result<EndpointAddr, NetError> {
        if let Some(rest) = s.strip_prefix("tcp:") {
            Ok(EndpointAddr::Tcp(rest.to_string()))
        } else if let Some(rest) = s.strip_prefix("unix:") {
            Ok(EndpointAddr::Unix(PathBuf::from(rest)))
        } else {
            Err(NetError::Protocol("endpoint scheme must be tcp: or unix:"))
        }
    }
}

/// A bound, accepting server socket over either transport.
#[derive(Debug)]
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener.
    Unix(UnixListener),
}

impl Listener {
    /// Binds the address. For [`EndpointAddr::Unix`] a stale socket
    /// file from a previous run is removed first.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] from the underlying bind.
    pub fn bind(addr: &EndpointAddr) -> Result<Listener, NetError> {
        match addr {
            EndpointAddr::Tcp(a) => Ok(Listener::Tcp(TcpListener::bind(a.as_str())?)),
            EndpointAddr::Unix(p) => {
                let _ = std::fs::remove_file(p);
                Ok(Listener::Unix(UnixListener::bind(p)?))
            }
        }
    }

    /// The address actually bound — lets `tcp:127.0.0.1:0` callers
    /// discover the kernel-assigned port.
    ///
    /// Test access: `tcp_loopback_matches_direct_injection` learns its
    /// ephemeral port through it.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the socket cannot report its address.
    pub fn local_addr(&self) -> Result<EndpointAddr, NetError> {
        match self {
            Listener::Tcp(l) => Ok(EndpointAddr::Tcp(l.local_addr()?.to_string())),
            Listener::Unix(l) => {
                let addr = l.local_addr()?;
                let path = addr.as_pathname().map(PathBuf::from).unwrap_or_default();
                Ok(EndpointAddr::Unix(path))
            }
        }
    }

    /// Blocks until a peer connects.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] from the underlying accept.
    pub fn accept(&self) -> Result<NetConnection, NetError> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nodelay(true)?;
                Ok(NetConnection::Tcp(stream))
            }
            Listener::Unix(l) => {
                let (stream, _) = l.accept()?;
                Ok(NetConnection::Unix(stream))
            }
        }
    }
}

/// One byte stream to a peer, over either transport. Implements
/// [`Read`] + [`Write`]; [`NetConnection::try_clone`] yields an
/// independent handle so a reader thread can drain the peer's frames
/// while the main thread writes — the standard full-duplex shape that
/// keeps large offer/verdict exchanges from deadlocking on socket
/// buffers.
#[derive(Debug)]
pub enum NetConnection {
    /// TCP stream.
    Tcp(TcpStream),
    /// Unix-domain stream.
    Unix(UnixStream),
}

impl NetConnection {
    /// An in-process connected pair (Unix socketpair) — the loopback
    /// transport the differential tests and `net_loopback_perf` use;
    /// no filesystem bind, no port allocation.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the kernel refuses a socketpair.
    pub fn pair() -> Result<(NetConnection, NetConnection), NetError> {
        let (a, b) = UnixStream::pair()?;
        Ok((NetConnection::Unix(a), NetConnection::Unix(b)))
    }

    /// A second handle to the same stream (for a reader thread).
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the descriptor cannot be duplicated.
    pub fn try_clone(&self) -> Result<NetConnection, NetError> {
        match self {
            NetConnection::Tcp(s) => Ok(NetConnection::Tcp(s.try_clone()?)),
            NetConnection::Unix(s) => Ok(NetConnection::Unix(s.try_clone()?)),
        }
    }
}

impl Read for NetConnection {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            NetConnection::Tcp(s) => s.read(buf),
            NetConnection::Unix(s) => s.read(buf),
        }
    }
}

impl Write for NetConnection {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            NetConnection::Tcp(s) => s.write(buf),
            NetConnection::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            NetConnection::Tcp(s) => s.flush(),
            NetConnection::Unix(s) => s.flush(),
        }
    }
}

/// Reconnect policy: the fleet's [`RecoveryConfig`] backoff curve
/// scaled into wall-clock time.
#[derive(Debug, Clone, Copy)]
pub struct ReconnectPolicy {
    /// Backoff shape and retry budget — the *same* policy type the
    /// simulated server and cluster retry under.
    pub recovery: RecoveryConfig,
    /// Wall-clock duration of one slot; converts `backoff_slots` into
    /// sleep time.
    pub slot_unit: Duration,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            recovery: RecoveryConfig::default(),
            slot_unit: Duration::from_millis(10),
        }
    }
}

impl ReconnectPolicy {
    /// Wall-clock delay before retry `attempt` (0-based):
    /// `backoff_slots(attempt) × slot_unit`, saturating.
    #[must_use]
    pub fn delay(&self, attempt: u32) -> Duration {
        let slots = self.recovery.backoff_slots(attempt);
        self.slot_unit
            .saturating_mul(u32::try_from(slots).unwrap_or(u32::MAX))
    }
}

/// Pure reconnect state machine: yields the deterministic delay
/// schedule, independent of any socket. [`connect_with_backoff`]
/// executes it; tests assert on it directly.
#[derive(Debug)]
pub struct Reconnector {
    policy: ReconnectPolicy,
    attempt: u32,
}

impl Reconnector {
    /// A fresh schedule under `policy`.
    #[must_use]
    pub fn new(policy: ReconnectPolicy) -> Self {
        Reconnector { policy, attempt: 0 }
    }

    /// The delay to sleep before the *next* retry, or `None` once the
    /// retry budget (`max_retries`) is exhausted.
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.attempt >= self.policy.recovery.max_retries {
            return None;
        }
        let d = self.policy.delay(self.attempt);
        self.attempt += 1;
        Some(d)
    }
}

/// Connects to `addr`, retrying with the policy's exponential backoff.
/// The first attempt is immediate; each failure sleeps
/// [`ReconnectPolicy::delay`] for the attempt number, exactly like a
/// crashed session re-offering itself in the simulated cluster.
///
/// # Errors
///
/// [`NetError::RetriesExhausted`] once `max_retries` reconnects have
/// failed (the last I/O error is dropped in its favour — the schedule,
/// not the socket, is the contract under test).
pub fn connect_with_backoff(
    addr: &EndpointAddr,
    policy: &ReconnectPolicy,
) -> Result<NetConnection, NetError> {
    let mut reconnector = Reconnector::new(*policy);
    loop {
        match try_connect(addr) {
            Ok(conn) => return Ok(conn),
            Err(_) => match reconnector.next_delay() {
                Some(delay) => std::thread::sleep(delay),
                None => return Err(NetError::RetriesExhausted),
            },
        }
    }
}

fn try_connect(addr: &EndpointAddr) -> Result<NetConnection, NetError> {
    match addr {
        EndpointAddr::Tcp(a) => {
            let stream = TcpStream::connect(a.as_str())?;
            stream.set_nodelay(true)?;
            Ok(NetConnection::Tcp(stream))
        }
        EndpointAddr::Unix(p) => Ok(NetConnection::Unix(UnixStream::connect(p)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconnect_schedule_is_the_recovery_backoff_curve() {
        let policy = ReconnectPolicy {
            recovery: RecoveryConfig {
                backoff_base_slots: 4,
                backoff_factor: 2,
                max_retries: 3,
                timeout_miss_slots: 8,
                stall_window_slots: 3,
            },
            slot_unit: Duration::from_millis(10),
        };
        let mut r = Reconnector::new(policy);
        // base·factor^a × slot_unit: 40ms, 80ms, 160ms, then exhausted.
        assert_eq!(r.next_delay(), Some(Duration::from_millis(40)));
        assert_eq!(r.next_delay(), Some(Duration::from_millis(80)));
        assert_eq!(r.next_delay(), Some(Duration::from_millis(160)));
        assert_eq!(r.next_delay(), None);
        assert_eq!(r.next_delay(), None, "an exhausted budget stays exhausted");
    }

    #[test]
    fn endpoint_addr_parses_both_schemes() {
        assert_eq!(
            EndpointAddr::parse("tcp:127.0.0.1:4070").unwrap(),
            EndpointAddr::Tcp("127.0.0.1:4070".into())
        );
        assert_eq!(
            EndpointAddr::parse("unix:/tmp/dms.sock").unwrap(),
            EndpointAddr::Unix(PathBuf::from("/tmp/dms.sock"))
        );
        assert!(EndpointAddr::parse("udp:1.2.3.4:5").is_err());
    }

    #[test]
    fn connect_with_backoff_exhausts_against_a_dead_address() {
        let policy = ReconnectPolicy {
            recovery: RecoveryConfig {
                backoff_base_slots: 1,
                backoff_factor: 1,
                max_retries: 2,
                timeout_miss_slots: 8,
                stall_window_slots: 3,
            },
            slot_unit: Duration::from_millis(1),
        };
        let addr = EndpointAddr::Unix(PathBuf::from("/tmp/dms-net-no-such-socket.sock"));
        assert!(matches!(
            connect_with_backoff(&addr, &policy),
            Err(NetError::RetriesExhausted)
        ));
    }

    #[test]
    fn socketpair_round_trips_bytes() {
        let (mut a, mut b) = NetConnection::pair().unwrap();
        a.write_all(b"holistic").unwrap();
        a.flush().unwrap();
        let mut buf = [0u8; 8];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"holistic");
    }
}
