//! Deterministic, seeded fault injection for the simulated device array.
//!
//! A real SSD array fails in ways a clean simulation never exercises:
//! transient command errors, latency spikes, and whole-device loss. A
//! [`FaultPlan`] injects exactly those failures at the shard-worker seam —
//! the point where a `ShardCommand` would be served — so every recovery
//! path in the service (retry, failover, per-job failure isolation) runs
//! under test against the same byte-parity oracle as the clean engine.
//!
//! # Determinism
//!
//! Every decision is a pure function of `(plan seed, seq, shard-of-record,
//! stage, attempt)` via a splitmix64-style hash: no RNG state, no
//! dependence on thread interleaving, wall clock, or which physical worker
//! happens to serve the command (decisions key on the *record* shard, which
//! failover never changes). Two runs with the same plan and workload inject
//! byte-identical fault schedules, which is what makes the chaos property
//! suite reproducible.
//!
//! The transient-fault hash deliberately excludes the attempt number: a
//! command the plan samples for failure fails on attempts
//! `0..transient_burst` and then succeeds, so the retry accounting in
//! `ShardStats` is exact (`faults == retries` whenever every fault is
//! recoverable) rather than probabilistic per attempt.

use std::time::Duration;

use crate::shard::{CommandFailure, ShardCommand};
use crate::trace::TraceStage;

/// What the plan injects for one `(seq, shard, stage, attempt)` service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// The command fails with a transient device error; the completer
    /// retries it against its budget.
    Transient,
    /// The command is served correctly but the device stalls for the extra
    /// duration first (a latency spike — what the command deadline exists
    /// to cut short).
    Spike(Duration),
    /// The worker panics while serving this command (caught at the seam;
    /// fails the owning job only).
    Panic,
}

/// A deterministic, seeded schedule of injected device faults.
///
/// Installed with `EngineConfig::with_fault_plan`; the default engine has
/// no plan and pays nothing for the feature. All builder methods are
/// chainable and the plan is immutable once the engine starts.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    transient_rate: f64,
    transient_burst: u32,
    spike_rate: f64,
    spike: Duration,
    dead_shards: Vec<(usize, u64)>,
    panic_faults: Vec<(usize, usize)>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults; add faults with the
    /// `with_*` builders.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            transient_burst: 1,
            ..FaultPlan::default()
        }
    }

    /// Samples each `(seq, shard, stage)` command for a transient failure
    /// with the given probability. `1.0` fails every command (once per
    /// burst — see [`FaultPlan::with_transient_burst`]).
    pub fn with_transient_rate(mut self, rate: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        self.transient_rate = rate;
        self
    }

    /// How many consecutive attempts of a sampled command fail before it
    /// succeeds (default 1). A burst larger than the engine's retry budget
    /// exhausts the budget and fails the job.
    pub fn with_transient_burst(mut self, burst: u32) -> FaultPlan {
        assert!(burst >= 1, "a transient burst fails at least once");
        self.transient_burst = burst;
        self
    }

    /// Samples each command's first attempt for a latency spike: the device
    /// dwells for `extra` before serving it. This is the engine's only
    /// simulated device time (everything else it spends is real CPU time),
    /// which also makes rate `1.0` the way a test holds commands in flight.
    /// A spike is not a fault: no counter moves and no `Fault` event is
    /// traced.
    pub fn with_latency_spike(mut self, rate: f64, extra: Duration) -> FaultPlan {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        self.spike_rate = rate;
        self.spike = extra;
        self
    }

    /// Kills the given shard's worker permanently after it has popped
    /// `after_commands` commands: from then on it rejects every command it
    /// pops with a dead-shard error. The completer re-issues each rejected
    /// command to a survivor against its retry budget — so a command
    /// already queued on the shard when it dies costs a retry too — and
    /// routes the shard's later commands to the survivor directly.
    pub fn with_shard_death(mut self, shard: usize, after_commands: u64) -> FaultPlan {
        self.dead_shards.push((shard, after_commands));
        self
    }

    /// Injects a worker panic on the first attempt of the given
    /// `(seq, shard-of-record)` command — the non-recoverable per-job
    /// failure (caught at the seam; the rest of the engine keeps serving).
    pub fn with_worker_panic(mut self, seq: usize, shard: usize) -> FaultPlan {
        self.panic_faults.push((seq, shard));
        self
    }

    /// The decision for serving `(seq, shard-of-record, stage)` on its
    /// `attempt`-th try (0-based), or `None` for a clean service.
    pub fn decide(
        &self,
        seq: usize,
        shard: usize,
        stage: TraceStage,
        attempt: u32,
    ) -> Option<FaultDecision> {
        if attempt == 0 && self.panic_faults.contains(&(seq, shard)) {
            return Some(FaultDecision::Panic);
        }
        if attempt < self.transient_burst
            && self.sample(seq, shard, stage, 0x7261_7473) < self.transient_rate
        {
            return Some(FaultDecision::Transient);
        }
        if attempt == 0 && self.sample(seq, shard, stage, 0x6b69_7073) < self.spike_rate {
            return Some(FaultDecision::Spike(self.spike));
        }
        None
    }

    /// If the plan kills this shard, the number of commands its worker
    /// serves before dying.
    pub fn death_after(&self, shard: usize) -> Option<u64> {
        self.dead_shards
            .iter()
            .find(|(s, _)| *s == shard)
            .map(|(_, after)| *after)
    }

    /// What `device` does with `command`, the `popped`-th command it
    /// popped: `Ok(spike)` to serve it after dwelling for `spike` (zero for
    /// a clean service), or `Err` with the failure to answer it with —
    /// `ShardDead` once the plan has killed the device, and `Panicked` when
    /// the device must panic at the serving seam. Only death keys on the
    /// device; every other decision keys on the command identity (see
    /// [`FaultPlan::decide`]), so failover routing never changes it.
    pub(crate) fn verdict(
        &self,
        device: usize,
        popped: u64,
        command: &ShardCommand,
    ) -> Result<Duration, CommandFailure> {
        if self.death_after(device).is_some_and(|after| popped > after) {
            return Err(CommandFailure::ShardDead);
        }
        let (seq, shard) = (command.seq(), command.record_shard());
        match self.decide(seq, shard, command.stage(), command.attempt()) {
            None => Ok(Duration::ZERO),
            Some(FaultDecision::Spike(extra)) => Ok(extra),
            Some(FaultDecision::Transient) => Err(CommandFailure::Transient),
            Some(FaultDecision::Panic) => Err(CommandFailure::Panicked),
        }
    }

    /// A uniform draw in `[0, 1)` keyed on the command identity and a
    /// per-fault-kind salt (never the attempt — see the module docs).
    fn sample(&self, seq: usize, shard: usize, stage: TraceStage, salt: u64) -> f64 {
        let stage_tag = match stage {
            TraceStage::Intersect => 1u64,
            TraceStage::Step3 => 2u64,
        };
        let mut x = self.seed ^ salt;
        x = splitmix64(x.wrapping_add(seq as u64));
        x = splitmix64(x.wrapping_add((shard as u64) << 32 | stage_tag));
        // 53 high bits → an exact f64 in [0, 1).
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_a_pure_function_of_the_key() {
        let plan = FaultPlan::seeded(42)
            .with_transient_rate(0.5)
            .with_latency_spike(0.3, Duration::from_millis(1));
        for seq in 0..50 {
            for shard in 0..4 {
                for stage in [TraceStage::Intersect, TraceStage::Step3] {
                    let first = plan.decide(seq, shard, stage, 0);
                    for _ in 0..3 {
                        assert_eq!(plan.decide(seq, shard, stage, 0), first);
                    }
                }
            }
        }
    }

    #[test]
    fn seeds_produce_different_schedules() {
        let a = FaultPlan::seeded(1).with_transient_rate(0.5);
        let b = FaultPlan::seeded(2).with_transient_rate(0.5);
        let differs = (0..100).any(|seq| {
            a.decide(seq, 0, TraceStage::Intersect, 0) != b.decide(seq, 0, TraceStage::Intersect, 0)
        });
        assert!(differs, "different seeds must not share a fault schedule");
    }

    #[test]
    fn rate_one_faults_every_attempt_inside_the_burst_then_none() {
        let plan = FaultPlan::seeded(7)
            .with_transient_rate(1.0)
            .with_transient_burst(3);
        for seq in 0..10 {
            for attempt in 0..3 {
                assert_eq!(
                    plan.decide(seq, 1, TraceStage::Step3, attempt),
                    Some(FaultDecision::Transient),
                    "attempt {attempt} inside the burst must fail"
                );
            }
            assert_eq!(
                plan.decide(seq, 1, TraceStage::Step3, 3),
                None,
                "the attempt after the burst must succeed"
            );
        }
    }

    #[test]
    fn rate_zero_injects_nothing_and_is_inactive() {
        let plan = FaultPlan::seeded(9);
        for seq in 0..100 {
            assert_eq!(plan.decide(seq, 0, TraceStage::Intersect, 0), None);
        }
    }

    #[test]
    fn panic_faults_hit_only_their_exact_command_first_attempt() {
        let plan = FaultPlan::seeded(3).with_worker_panic(4, 1);
        assert_eq!(
            plan.decide(4, 1, TraceStage::Intersect, 0),
            Some(FaultDecision::Panic)
        );
        assert_eq!(
            plan.decide(4, 1, TraceStage::Step3, 0),
            Some(FaultDecision::Panic),
            "the panic keys on (seq, shard), not the stage"
        );
        assert_eq!(plan.decide(4, 1, TraceStage::Intersect, 1), None);
        assert_eq!(plan.decide(4, 0, TraceStage::Intersect, 0), None);
        assert_eq!(plan.decide(5, 1, TraceStage::Intersect, 0), None);
    }

    #[test]
    fn shard_death_is_looked_up_per_shard() {
        let plan = FaultPlan::seeded(0).with_shard_death(2, 5);
        assert_eq!(plan.death_after(2), Some(5));
        assert_eq!(plan.death_after(0), None);
    }

    #[test]
    fn observed_transient_rate_tracks_the_configured_rate() {
        let plan = FaultPlan::seeded(1234).with_transient_rate(0.25);
        let n = 4000;
        let hits = (0..n)
            .filter(|&seq| plan.decide(seq, 0, TraceStage::Intersect, 0).is_some())
            .count();
        let observed = hits as f64 / n as f64;
        assert!(
            (observed - 0.25).abs() < 0.05,
            "observed transient rate {observed} far from configured 0.25"
        );
    }
}
