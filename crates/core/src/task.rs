//! Deadline-carrying task graphs for scheduling.
//!
//! §3.3's last design step "includes deciding on the assignment of tasks
//! and communication transactions onto different computation and
//! communication resources ... and fixing the order of their execution".
//! A [`TaskGraph`] is the DAG those schedulers (EDF baseline and the
//! energy-aware scheduler in `dms-noc`) consume: tasks carry a cycle
//! count and an absolute deadline; edges carry communication volumes.

use crate::error::CoreError;

/// Identifier of a task within a [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub(crate) usize);

impl TaskId {
    /// The task's index within its graph.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// Reconstructs an id from an index previously obtained via
    /// [`TaskId::index`]. The caller is responsible for pairing it with
    /// the right graph; lookups with a stale id fail with
    /// [`CoreError::UnknownTask`].
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        TaskId(index)
    }
}

/// One schedulable task.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Human-readable name.
    pub name: String,
    /// Average-case execution demand in cycles.
    pub cycles: u64,
    /// Absolute deadline in seconds from graph release (soft; see
    /// [`crate::qos::QosRequirement::max_miss_ratio`]).
    pub deadline_s: f64,
}

/// A precedence edge with a communication payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dependency {
    /// The producing task.
    pub from: TaskId,
    /// The consuming task.
    pub to: TaskId,
    /// Data transferred once `from` completes, in bytes.
    pub bytes: u64,
}

/// A directed acyclic task graph.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), dms_core::CoreError> {
/// use dms_core::task::TaskGraph;
///
/// let mut g = TaskGraph::new("pipeline");
/// let a = g.add_task("produce", 1_000, 0.01);
/// let b = g.add_task("consume", 2_000, 0.02);
/// g.add_dependency(a, b, 512)?;
/// let order = g.topological_order()?;
/// assert_eq!(order, vec![a, b]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGraph {
    name: String,
    tasks: Vec<Task>,
    deps: Vec<Dependency>,
}

impl TaskGraph {
    /// Creates an empty task graph.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        TaskGraph {
            name: name.into(),
            tasks: Vec::new(),
            deps: Vec::new(),
        }
    }

    /// Adds a task and returns its id.
    pub fn add_task(&mut self, name: impl Into<String>, cycles: u64, deadline_s: f64) -> TaskId {
        let id = TaskId(self.tasks.len());
        self.tasks.push(Task {
            name: name.into(),
            cycles,
            deadline_s,
        });
        id
    }

    /// Adds a precedence edge carrying `bytes` of data.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownTask`] if either endpoint is missing.
    /// Cycle detection is deferred to [`TaskGraph::topological_order`]
    /// so graphs can be built incrementally.
    pub fn add_dependency(
        &mut self,
        from: TaskId,
        to: TaskId,
        bytes: u64,
    ) -> Result<(), CoreError> {
        self.check(from)?;
        self.check(to)?;
        self.deps.push(Dependency { from, to, bytes });
        Ok(())
    }

    /// Number of tasks.
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Looks up a task.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownTask`] for a stale or foreign id.
    pub fn task(&self, id: TaskId) -> Result<&Task, CoreError> {
        self.tasks.get(id.0).ok_or(CoreError::UnknownTask(id.0))
    }

    /// Iterates over `(id, task)` pairs.
    pub fn tasks(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.tasks.iter().enumerate().map(|(i, t)| (TaskId(i), t))
    }

    /// All dependency edges.
    #[must_use]
    pub fn dependencies(&self) -> &[Dependency] {
        &self.deps
    }

    /// Direct predecessors of `t`.
    pub fn predecessors(&self, t: TaskId) -> impl Iterator<Item = &Dependency> {
        self.deps.iter().filter(move |d| d.to == t)
    }

    /// Kahn topological sort.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CyclicTaskGraph`] if the graph has a cycle.
    pub fn topological_order(&self) -> Result<Vec<TaskId>, CoreError> {
        let n = self.tasks.len();
        let mut indegree = vec![0usize; n];
        for d in &self.deps {
            indegree[d.to.0] += 1;
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        // Pop smallest-id first for determinism.
        ready.sort_unstable_by(|a, b| b.cmp(a));
        let mut order = Vec::with_capacity(n);
        while let Some(i) = ready.pop() {
            order.push(TaskId(i));
            for d in self.deps.iter().filter(|d| d.from.0 == i) {
                indegree[d.to.0] -= 1;
                if indegree[d.to.0] == 0 {
                    // Insert keeping descending order so pop() yields ascending ids.
                    let pos = ready.partition_point(|&x| x > d.to.0);
                    ready.insert(pos, d.to.0);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(CoreError::CyclicTaskGraph)
        }
    }

    fn check(&self, id: TaskId) -> Result<(), CoreError> {
        if id.0 < self.tasks.len() {
            Ok(())
        } else {
            Err(CoreError::UnknownTask(id.0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> (TaskGraph, [TaskId; 3]) {
        let mut g = TaskGraph::new("chain");
        let a = g.add_task("a", 10, 1.0);
        let b = g.add_task("b", 20, 2.0);
        let c = g.add_task("c", 30, 3.0);
        g.add_dependency(a, b, 100).expect("valid");
        g.add_dependency(b, c, 200).expect("valid");
        (g, [a, b, c])
    }

    #[test]
    fn topo_order_of_chain() {
        let (g, [a, b, c]) = chain();
        assert_eq!(g.topological_order().expect("acyclic"), vec![a, b, c]);
    }

    #[test]
    fn topo_order_is_deterministic_for_parallel_tasks() {
        let mut g = TaskGraph::new("par");
        let ids: Vec<TaskId> = (0..5)
            .map(|i| g.add_task(format!("t{i}"), 1, 1.0))
            .collect();
        assert_eq!(g.topological_order().expect("acyclic"), ids);
    }

    #[test]
    fn cycle_is_detected() {
        let (mut g, [a, _, c]) = chain();
        g.add_dependency(c, a, 1).expect("endpoints valid");
        assert_eq!(g.topological_order(), Err(CoreError::CyclicTaskGraph));
    }

    #[test]
    fn unknown_task_errors() {
        let (mut g, [a, _, _]) = chain();
        assert_eq!(
            g.add_dependency(a, TaskId(99), 1),
            Err(CoreError::UnknownTask(99))
        );
        assert!(g.task(TaskId(99)).is_err());
    }

    #[test]
    fn empty_graph() {
        let g = TaskGraph::new("empty");
        assert!(g.topological_order().expect("trivially acyclic").is_empty());
    }
}
