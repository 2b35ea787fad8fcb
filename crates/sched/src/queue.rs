//! Admission queue and scheduling policy.
//!
//! The queue decides in what order admitted jobs enter service. Ordering is
//! deterministic: FIFO follows submission order; the priority policy orders
//! by (priority desc, submission order asc). Whether a job is admitted at
//! all is the engine core's one check (`complete::Core::admit`): the
//! capacity bounds queued *and* in-flight work, so a saturated service
//! degrades by rejecting instead of growing without bound.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Instant;

use crate::job::{JobId, JobSpec};

/// Order in which admitted jobs enter service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Strict submission order.
    #[default]
    Fifo,
    /// Higher [`crate::job::Priority`] first; ties in submission order.
    Priority,
}

impl SchedPolicy {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::Priority => "priority",
        }
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The queue is at capacity; the client should retry later.
    QueueFull {
        /// The configured capacity that was exceeded.
        capacity: usize,
    },
    /// The service has begun a graceful shutdown and no longer accepts jobs.
    ShuttingDown,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            AdmissionError::ShuttingDown => {
                write!(f, "service is shutting down; submissions are closed")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// One queued entry.
#[derive(Debug, Clone)]
pub(crate) struct QueuedJob {
    pub id: JobId,
    pub spec: JobSpec,
    pub submitted_at: Instant,
}

/// Max-heap entry for the priority policy: higher [`crate::job::Priority`]
/// wins; ties go to the earlier submission (smaller id).
#[derive(Debug)]
struct PriorityEntry(QueuedJob);

impl Ord for PriorityEntry {
    fn cmp(&self, other: &PriorityEntry) -> Ordering {
        self.0
            .spec
            .priority
            .cmp(&other.0.spec.priority)
            .then_with(|| other.0.id.cmp(&self.0.id))
    }
}

impl PartialOrd for PriorityEntry {
    fn partial_cmp(&self, other: &PriorityEntry) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for PriorityEntry {
    fn eq(&self, other: &PriorityEntry) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for PriorityEntry {}

/// Policy-specific backing store: a deque for FIFO (O(1) pops), a binary
/// heap for the priority policy (O(log n) pops). `pop_next` is the service
/// executor's per-dispatch hot path and runs under the global service lock,
/// so a linear scan there would serialize submitters behind every dispatch.
#[derive(Debug)]
enum Pending {
    Fifo(VecDeque<QueuedJob>),
    Priority(BinaryHeap<PriorityEntry>),
}

impl Pending {
    fn len(&self) -> usize {
        match self {
            Pending::Fifo(queue) => queue.len(),
            Pending::Priority(heap) => heap.len(),
        }
    }

    fn push(&mut self, job: QueuedJob) {
        match self {
            Pending::Fifo(queue) => queue.push_back(job),
            Pending::Priority(heap) => heap.push(PriorityEntry(job)),
        }
    }
}

/// The admission queue.
#[derive(Debug)]
pub(crate) struct JobQueue {
    next_id: u64,
    pending: Pending,
}

impl JobQueue {
    /// Creates an empty queue with the given policy.
    pub fn new(policy: SchedPolicy) -> JobQueue {
        JobQueue {
            next_id: 0,
            pending: match policy {
                SchedPolicy::Fifo => Pending::Fifo(VecDeque::new()),
                SchedPolicy::Priority => Pending::Priority(BinaryHeap::new()),
            },
        }
    }

    /// Number of jobs waiting.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Returns `true` if no jobs are waiting.
    pub fn is_empty(&self) -> bool {
        self.pending.len() == 0
    }

    /// Queues a job submitted at `now` under the next id.
    pub fn submit(&mut self, spec: JobSpec, now: Instant) -> JobId {
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.pending.push(QueuedJob {
            id,
            spec,
            submitted_at: now,
        });
        id
    }

    /// Removes and returns the next job to serve under the policy.
    ///
    /// This is the live dispatch path of the service executor: the decision
    /// is taken at pop time over whatever is queued *now*, so jobs submitted
    /// while the engine runs compete under the policy immediately. O(1) for
    /// FIFO, O(log n) under the priority policy (the heap's explicit id
    /// tie-break keeps submission order within each priority).
    pub(crate) fn pop_next(&mut self) -> Option<QueuedJob> {
        match &mut self.pending {
            Pending::Fifo(queue) => queue.pop_front(),
            Pending::Priority(heap) => heap.pop().map(|entry| entry.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Priority;
    use megis_genomics::read::ReadSet;
    use megis_genomics::sample::Sample;

    fn spec(label: &str, priority: Priority) -> JobSpec {
        JobSpec::new(label, Sample::from_reads(ReadSet::new())).with_priority(priority)
    }

    /// The labels in the order `pop_next` serves them.
    fn served(q: &mut JobQueue) -> Vec<String> {
        std::iter::from_fn(|| q.pop_next())
            .map(|j| j.spec.label)
            .collect()
    }

    #[test]
    fn fifo_preserves_submission_order() {
        let mut q = JobQueue::new(SchedPolicy::Fifo);
        for (label, p) in [
            ("a", Priority::Low),
            ("b", Priority::High),
            ("c", Priority::Normal),
        ] {
            q.submit(spec(label, p), Instant::now());
        }
        let order: Vec<String> = served(&mut q);
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn priority_policy_orders_by_priority_then_submission() {
        let mut q = JobQueue::new(SchedPolicy::Priority);
        for (label, p) in [
            ("a", Priority::Low),
            ("b", Priority::Normal),
            ("c", Priority::High),
            ("d", Priority::Normal),
            ("e", Priority::High),
        ] {
            q.submit(spec(label, p), Instant::now());
        }
        let order: Vec<String> = served(&mut q);
        assert_eq!(order, ["c", "e", "b", "d", "a"]);
    }

    #[test]
    fn job_ids_are_monotonic_across_policies() {
        let mut q = JobQueue::new(SchedPolicy::Priority);
        let a = q.submit(spec("a", Priority::Low), Instant::now());
        let b = q.submit(spec("b", Priority::High), Instant::now());
        assert!(a < b, "ids follow submission order, not service order");
    }
}
