//! Admission queue and scheduling policy.
//!
//! The queue decides two things: whether a job is admitted at all (bounded
//! queue depth, so a saturated service degrades by rejecting instead of
//! growing without bound) and in what order admitted jobs enter service.
//! Ordering is deterministic: FIFO follows submission order; the priority
//! policy orders by (priority desc, submission order asc).

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
    capacity: usize,
    next_id: u64,
    pending: Pending,
}

impl JobQueue {
    /// Creates a queue with the given policy and capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(policy: SchedPolicy, capacity: usize) -> JobQueue {
        assert!(capacity > 0, "queue capacity must be positive");
        JobQueue {
            capacity,
            next_id: 0,
            pending: match policy {
                SchedPolicy::Fifo => Pending::Fifo(VecDeque::new()),
                SchedPolicy::Priority => Pending::Priority(BinaryHeap::new()),
            },
        }
    }

    /// The configured admission capacity.
    ///
    /// A standalone queue bounds only *queued* jobs; the streaming service
    /// additionally counts in-flight work against this capacity (see
    /// [`crate::StreamingEngine::submit`]), so a job occupies its slot from
    /// admission to delivery.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of jobs waiting.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Returns `true` if no jobs are waiting.
    pub fn is_empty(&self) -> bool {
        self.pending.len() == 0
    }

    /// Admits a job, or rejects it if the queue is full.
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobId, AdmissionError> {
        if self.pending.len() >= self.capacity {
            return Err(AdmissionError::QueueFull {
                capacity: self.capacity,
            });
        }
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.pending.push(QueuedJob {
            id,
            spec,
            submitted_at: Instant::now(),
        });
        Ok(id)
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
        let mut q = JobQueue::new(SchedPolicy::Fifo, 8);
        for (label, p) in [
            ("a", Priority::Low),
            ("b", Priority::High),
            ("c", Priority::Normal),
        ] {
            q.submit(spec(label, p)).unwrap();
        }
        let order: Vec<String> = served(&mut q);
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn priority_policy_orders_by_priority_then_submission() {
        let mut q = JobQueue::new(SchedPolicy::Priority, 8);
        for (label, p) in [
            ("a", Priority::Low),
            ("b", Priority::Normal),
            ("c", Priority::High),
            ("d", Priority::Normal),
            ("e", Priority::High),
        ] {
            q.submit(spec(label, p)).unwrap();
        }
        let order: Vec<String> = served(&mut q);
        assert_eq!(order, ["c", "e", "b", "d", "a"]);
    }

    #[test]
    fn admission_rejects_when_full() {
        let mut q = JobQueue::new(SchedPolicy::Fifo, 2);
        q.submit(spec("a", Priority::Normal)).unwrap();
        q.submit(spec("b", Priority::Normal)).unwrap();
        let err = q.submit(spec("c", Priority::Normal)).unwrap_err();
        assert_eq!(err, AdmissionError::QueueFull { capacity: 2 });
        // Draining frees capacity again.
        q.pop_next().unwrap();
        assert!(q.submit(spec("c", Priority::Normal)).is_ok());
    }

    #[test]
    fn job_ids_are_monotonic_across_policies() {
        let mut q = JobQueue::new(SchedPolicy::Priority, 8);
        let a = q.submit(spec("a", Priority::Low)).unwrap();
        let b = q.submit(spec("b", Priority::High)).unwrap();
        assert!(a < b, "ids follow submission order, not service order");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        JobQueue::new(SchedPolicy::Fifo, 0);
    }
}
