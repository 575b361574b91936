//! Process graphs: the application model.
//!
//! "A natural choice is to use process graphs where each node corresponds
//! to a process in the multimedia application, while each edge represents
//! a communication channel (link) which allows data to be exchanged
//! (usually asynchronously) between different communicating processes"
//! (§2.1). Channels carry tokens through finite-length buffers.

use crate::error::CoreError;

/// Identifier of a process within a [`ProcessGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub(crate) usize);

impl ProcessId {
    /// The process's index within its graph.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of a channel within a [`ProcessGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub(crate) usize);

impl ChannelId {
    /// The channel's index within its graph.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// A computational process (graph node).
#[derive(Debug, Clone, PartialEq)]
pub struct Process {
    /// Human-readable name ("VLD", "IDCT", …).
    pub name: String,
    /// Average computation cost per consumed token, in cycles.
    ///
    /// Multimedia systems are designed for the *average* case (§2), so
    /// this is an expected value, not a WCET.
    pub cycles_per_token: u64,
}

/// A communication channel (graph edge) with a finite buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    /// Producing process.
    pub src: ProcessId,
    /// Consuming process.
    pub dst: ProcessId,
    /// Buffer capacity in tokens.
    pub capacity: usize,
    /// Size of one token in bytes (e.g. 188 for an MPEG-2 TS packet).
    pub token_bytes: u64,
}

/// A directed process graph with finite-buffer channels.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), dms_core::CoreError> {
/// use dms_core::graph::ProcessGraph;
///
/// let mut g = ProcessGraph::new("decoder");
/// let vld = g.add_process("VLD", 120);
/// let idct = g.add_process("IDCT", 300);
/// let b3 = g.connect(vld, idct, 16, 64)?;
/// let (id, channel) = g.successors(vld).next().expect("one successor");
/// assert_eq!((id, channel.capacity), (b3, 16));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessGraph {
    name: String,
    processes: Vec<Process>,
    channels: Vec<Channel>,
}

impl ProcessGraph {
    /// Creates an empty graph with a descriptive name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        ProcessGraph {
            name: name.into(),
            processes: Vec::new(),
            channels: Vec::new(),
        }
    }

    /// The application's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a process and returns its id.
    pub fn add_process(&mut self, name: impl Into<String>, cycles_per_token: u64) -> ProcessId {
        let id = ProcessId(self.processes.len());
        self.processes.push(Process {
            name: name.into(),
            cycles_per_token,
        });
        id
    }

    /// Connects `src` to `dst` with a buffer of `capacity` tokens of
    /// `token_bytes` bytes each.
    ///
    /// # Errors
    ///
    /// * [`CoreError::UnknownProcess`] if either endpoint is not in the graph.
    /// * [`CoreError::ZeroCapacityChannel`] if `capacity == 0`.
    pub fn connect(
        &mut self,
        src: ProcessId,
        dst: ProcessId,
        capacity: usize,
        token_bytes: u64,
    ) -> Result<ChannelId, CoreError> {
        self.check_process(src)?;
        self.check_process(dst)?;
        if capacity == 0 {
            return Err(CoreError::ZeroCapacityChannel);
        }
        let id = ChannelId(self.channels.len());
        self.channels.push(Channel {
            src,
            dst,
            capacity,
            token_bytes,
        });
        Ok(id)
    }

    /// Number of channels.
    #[must_use]
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Looks up a process.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownProcess`] for a stale or foreign id.
    pub fn process(&self, id: ProcessId) -> Result<&Process, CoreError> {
        self.processes
            .get(id.0)
            .ok_or(CoreError::UnknownProcess(id.0))
    }

    /// Iterates over `(id, process)` pairs.
    pub fn processes(&self) -> impl Iterator<Item = (ProcessId, &Process)> {
        self.processes
            .iter()
            .enumerate()
            .map(|(i, p)| (ProcessId(i), p))
    }

    /// Iterates over `(id, channel)` pairs.
    pub fn channels(&self) -> impl Iterator<Item = (ChannelId, &Channel)> {
        self.channels
            .iter()
            .enumerate()
            .map(|(i, c)| (ChannelId(i), c))
    }

    /// Channels produced by `p` (outgoing edges).
    pub fn successors(&self, p: ProcessId) -> impl Iterator<Item = (ChannelId, &Channel)> {
        self.channels().filter(move |(_, c)| c.src == p)
    }

    /// Channels consumed by `p` (incoming edges).
    pub fn predecessors(&self, p: ProcessId) -> impl Iterator<Item = (ChannelId, &Channel)> {
        self.channels().filter(move |(_, c)| c.dst == p)
    }

    /// Processes with no incoming channels — the stream *sources*
    /// (encoders) of Fig. 1.
    #[must_use]
    pub fn sources(&self) -> Vec<ProcessId> {
        (0..self.processes.len())
            .map(ProcessId)
            .filter(|&p| self.predecessors(p).next().is_none())
            .collect()
    }

    /// Processes with no outgoing channels — the stream *sinks*
    /// (decoders/displays) of Fig. 1.
    #[must_use]
    pub fn sinks(&self) -> Vec<ProcessId> {
        (0..self.processes.len())
            .map(ProcessId)
            .filter(|&p| self.successors(p).next().is_none())
            .collect()
    }

    fn check_process(&self, id: ProcessId) -> Result<(), CoreError> {
        if id.0 < self.processes.len() {
            Ok(())
        } else {
            Err(CoreError::UnknownProcess(id.0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (ProcessGraph, [ProcessId; 4]) {
        let mut g = ProcessGraph::new("diamond");
        let a = g.add_process("a", 1);
        let b = g.add_process("b", 2);
        let c = g.add_process("c", 3);
        let d = g.add_process("d", 4);
        g.connect(a, b, 4, 10).expect("valid");
        g.connect(a, c, 4, 20).expect("valid");
        g.connect(b, d, 4, 30).expect("valid");
        g.connect(c, d, 4, 40).expect("valid");
        (g, [a, b, c, d])
    }

    #[test]
    fn build_and_query() {
        let (g, [a, b, _, d]) = diamond();
        assert_eq!(g.channel_count(), 4);
        assert_eq!(g.process(a).expect("exists").name, "a");
        assert_eq!(g.successors(a).count(), 2);
        assert_eq!(g.predecessors(d).count(), 2);
        assert_eq!(g.predecessors(b).count(), 1);
    }

    #[test]
    fn sources_and_sinks() {
        let (g, [a, _, _, d]) = diamond();
        assert_eq!(g.sources(), vec![a]);
        assert_eq!(g.sinks(), vec![d]);
    }

    #[test]
    fn connect_rejects_bad_endpoints() {
        let mut g = ProcessGraph::new("g");
        let a = g.add_process("a", 1);
        let ghost = ProcessId(17);
        assert_eq!(
            g.connect(a, ghost, 4, 1),
            Err(CoreError::UnknownProcess(17))
        );
        assert_eq!(
            g.connect(ghost, a, 4, 1),
            Err(CoreError::UnknownProcess(17))
        );
    }

    #[test]
    fn connect_rejects_zero_capacity() {
        let mut g = ProcessGraph::new("g");
        let a = g.add_process("a", 1);
        let b = g.add_process("b", 1);
        assert_eq!(g.connect(a, b, 0, 1), Err(CoreError::ZeroCapacityChannel));
    }

    #[test]
    fn unknown_lookups_error() {
        let (g, _) = diamond();
        assert!(g.process(ProcessId(99)).is_err());
    }

    #[test]
    fn self_loop_is_allowed() {
        // Feedback (e.g. a rate-control loop) is legitimate in process networks.
        let mut g = ProcessGraph::new("fb");
        let a = g.add_process("a", 1);
        let ch = g.connect(a, a, 2, 8).expect("self loop ok");
        let (id, channel) = g.successors(a).next().expect("the loop leaves a");
        assert_eq!((id, channel.dst), (ch, a));
        assert!(g.sources().is_empty());
        assert!(g.sinks().is_empty());
    }
}
