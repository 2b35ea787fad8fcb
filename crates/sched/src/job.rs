//! Jobs: what clients submit to the engine and what they get back.

use std::time::Duration;

use megis::MegisOutput;
use megis_genomics::sample::Sample;

use crate::trace::StageBreakdown;

/// Identifier of one submitted job (its admission sequence number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// Scheduling priority of a job. Under the priority policy, higher
/// priorities start Step 1 first; ties are broken by submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Background work (e.g. re-analysis sweeps).
    Low,
    /// Default for cohort samples.
    #[default]
    Normal,
    /// Time-critical samples (e.g. clinical pathogen identification).
    High,
}

impl Priority {
    /// All priorities, lowest first.
    pub const ALL: [Priority; 3] = [Priority::Low, Priority::Normal, Priority::High];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

/// One sample submitted for analysis.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Client-facing label (e.g. the sample accession).
    pub label: String,
    /// Scheduling priority.
    pub priority: Priority,
    /// The sample to analyze.
    pub sample: Sample,
}

impl JobSpec {
    /// Creates a normal-priority job.
    pub fn new(label: impl Into<String>, sample: Sample) -> JobSpec {
        JobSpec {
            label: label.into(),
            priority: Priority::Normal,
            sample,
        }
    }

    /// Returns the job with a different priority.
    pub fn with_priority(mut self, priority: Priority) -> JobSpec {
        self.priority = priority;
        self
    }
}

/// Completed job: the analysis output plus per-job operational metrics.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's identifier.
    pub id: JobId,
    /// The job's label.
    pub label: String,
    /// The job's priority.
    pub priority: Priority,
    /// Position at which the job entered service (Step 1 start): 0 for the
    /// first job dispatched. Under FIFO this equals submission order; under
    /// the priority policy, higher priorities get smaller positions.
    pub start_position: usize,
    /// Position at which the in-SSD stage (Steps 2–3) served the job. The
    /// engine reorders Step 1 completions before issuing the per-shard
    /// commands, and the completer delivers results in dispatch order even
    /// though per-shard completions arrive out of order, so this always
    /// equals [`JobResult::start_position`] — the in-SSD stage follows
    /// policy order for any worker count and command-queue depth
    /// (asserted by the regression tests).
    pub isp_position: usize,
    /// End-to-end analysis output — byte-identical to
    /// `MegisAnalyzer::analyze` on the same sample.
    pub output: MegisOutput,
    /// Time spent queued before Step 1 started.
    pub queue_wait: Duration,
    /// Wall-clock time of host-side Step 1.
    pub step1_time: Duration,
    /// Wall-clock time of the in-SSD stage (sharded intersection, taxID
    /// retrieval, Step 3).
    pub isp_time: Duration,
    /// Total latency from submission to completion.
    pub latency: Duration,
    /// Per-stage decomposition of the job's latency, folded by the completer
    /// from the job's own timeline: `None` when tracing was disabled
    /// ([`crate::EngineConfig::tracing`]); it never reads the trace ring.
    /// [`StageBreakdown::total`] matches
    /// [`JobResult::latency`] to well under 1% (the two are measured
    /// independently).
    pub breakdown: Option<StageBreakdown>,
}

/// Why a job failed while the engine kept serving others. A
/// [`crate::JobHandle`] resolves to `Err(JobError)` for the affected job
/// only; whole-engine poison is reserved for a pool thread dying outside
/// the serving seam (see the failure model in `service.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// A command kept failing transiently until the per-command retry
    /// budget ran out.
    RetriesExhausted {
        /// The failed job.
        job: JobId,
        /// Stage label of the exhausted command (`"intersect"`/`"step3"`).
        stage: &'static str,
        /// Shard-of-record of the exhausted command.
        shard: usize,
        /// Attempts made (initial issue plus retries).
        attempts: u32,
    },
    /// Serving one of the job's commands panicked (caught at the serving
    /// seam; non-recoverable for this job).
    WorkerPanicked {
        /// The failed job.
        job: JobId,
        /// Shard-of-record of the command being served.
        shard: usize,
    },
    /// Every device died before the job's commands could be served —
    /// there is no survivor to fail over to.
    NoLiveShards {
        /// The failed job.
        job: JobId,
    },
    /// The engine stopped (or its result channel closed) before delivering
    /// the job.
    EngineStopped {
        /// The undelivered job.
        job: JobId,
    },
}

impl JobError {
    /// The failed job's identifier.
    pub fn job(&self) -> JobId {
        match self {
            JobError::RetriesExhausted { job, .. }
            | JobError::WorkerPanicked { job, .. }
            | JobError::NoLiveShards { job }
            | JobError::EngineStopped { job } => *job,
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::RetriesExhausted {
                job,
                stage,
                shard,
                attempts,
            } => write!(
                f,
                "{job} failed: {stage} command on shard {shard} still failing after {attempts} attempts (retry budget exhausted)"
            ),
            JobError::WorkerPanicked { job, shard } => {
                write!(f, "{job} failed: shard {shard} worker panicked serving its command")
            }
            JobError::NoLiveShards { job } => {
                write!(f, "{job} failed: no live shard left to serve its commands")
            }
            JobError::EngineStopped { job } => {
                write!(f, "{job} failed: engine stopped before delivering the result")
            }
        }
    }
}

impl std::error::Error for JobError {}

#[cfg(test)]
mod tests {
    use super::*;
    use megis_genomics::read::ReadSet;

    #[test]
    fn priority_ordering_is_low_to_high() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn job_spec_builder() {
        let sample = Sample::from_reads(ReadSet::new());
        let spec = JobSpec::new("s1", sample).with_priority(Priority::High);
        assert_eq!(spec.label, "s1");
        assert_eq!(spec.priority, Priority::High);
    }

    #[test]
    fn job_id_displays_compactly() {
        assert_eq!(JobId(7).to_string(), "job#7");
    }

    #[test]
    fn job_error_is_a_std_error_with_a_cause_in_display() {
        let errors: Vec<Box<dyn std::error::Error>> = vec![
            Box::new(JobError::RetriesExhausted {
                job: JobId(3),
                stage: "intersect",
                shard: 1,
                attempts: 4,
            }),
            Box::new(JobError::WorkerPanicked {
                job: JobId(3),
                shard: 0,
            }),
            Box::new(JobError::NoLiveShards { job: JobId(3) }),
            Box::new(JobError::EngineStopped { job: JobId(3) }),
        ];
        for e in &errors {
            let text = e.to_string();
            assert!(text.contains("job#3"), "{text}");
            assert!(text.contains("failed"), "{text}");
        }
        assert_eq!(
            JobError::NoLiveShards { job: JobId(9) }.job(),
            JobId(9),
            "the job accessor names the failed job"
        );
    }
}
