//! Modeled-time account: what a batch of the shape the engine executes
//! would cost at paper scale, cross-checked against the analytic models.
//!
//! The engine runs functionally on synthetic in-memory data, so its wall
//! clock says nothing about terabyte-scale behavior. This module evaluates
//! the same batch shape (sample count, shard count, scheduling overlap)
//! through [`MegisTimingModel`], reporting:
//!
//! * the *independent-runs baseline* — every sample analyzed back-to-back
//!   ([`baseline_multi_sample`], the `1 sample` bars of Fig. 21),
//! * the *pipelined* plan — Step 1 of sample `i+1` overlapped with the
//!   in-SSD Steps 2–3 of sample `i`, with k-mer buffering across samples
//!   ([`MegisTimingModel::multi_sample_breakdown`], §4.7), and
//! * the *shard scaling* series — the in-SSD intersection phase as the
//!   database is partitioned across 1..N SSDs (Fig. 15).

use megis::pipeline::{baseline_multi_sample, MegisTimingModel};
use megis_host::system::SystemConfig;
use megis_ssd::timing::SimDuration;
use megis_tools::timing::Breakdown;
use megis_tools::workload::WorkloadSpec;

/// Paper-scale account of one batch shape.
#[derive(Debug, Clone)]
pub struct ModeledAccount {
    /// Number of samples in the batch.
    pub samples: usize,
    /// Number of SSDs the database is sharded across.
    pub shards: usize,
    /// Every sample analyzed independently, back to back.
    pub independent: Breakdown,
    /// The §4.7 pipelined multi-sample plan.
    pub pipelined: Breakdown,
    /// `(ssd_count, speedup)` of the in-SSD intersection phase relative to
    /// one SSD, for each count in `1..=shards` (Fig. 15 scaling).
    pub shard_speedups: Vec<(usize, f64)>,
    /// Modeled time for one shard's device to stream its disjoint database
    /// partition at internal bandwidth — the per-device Step 2 cost that the
    /// Fig. 15 partitioning divides across SSDs.
    pub shard_stream_time: SimDuration,
    /// Modeled time for one device to stream a job's whole candidate
    /// reference-index volume — Step 3's in-SSD index generation (Fig. 9)
    /// as the engine runs it: one self-contained command per job, served by
    /// one device, so the shard count does not divide it.
    pub step3_stream_time: SimDuration,
}

impl ModeledAccount {
    /// Evaluates the account for a batch of `samples` on the base (typically
    /// single-SSD) `system`.
    ///
    /// The two series are the paper's two separate axes: the
    /// pipelined-vs-independent comparison is evaluated on `system` as given
    /// (Fig. 21 compares scheduling plans on one machine), while the shard
    /// series replicates `system`'s first SSD over `1..=shards` devices
    /// (Fig. 15 sweeps the device count).
    ///
    /// # Panics
    ///
    /// Panics if `samples` or `shards` is zero.
    pub fn compute(
        system: &SystemConfig,
        workload: &WorkloadSpec,
        samples: usize,
        shards: usize,
    ) -> ModeledAccount {
        assert!(samples > 0, "at least one sample is required");
        assert!(shards > 0, "at least one shard is required");
        let model = MegisTimingModel::full();
        let single = model.presence_breakdown(system, workload);
        let independent = baseline_multi_sample(&single, samples);
        let pipelined = model.multi_sample_breakdown(system, workload, samples);

        #[expect(
            clippy::expect_used,
            reason = "the full timing model's presence breakdown always has an intersection \
                      finding phase"
        )]
        let intersection_at = |count: usize| -> SimDuration {
            let sys = system.clone().with_ssd_count(count);
            model
                .presence_breakdown(&sys, workload)
                .phase("intersection finding")
                .expect("model reports an intersection phase")
        };
        let base = intersection_at(1);
        let shard_speedups = (1..=shards)
            .map(|count| (count, base / intersection_at(count)))
            .collect();

        // Per-shard service time: each device's single-SSD view streams its
        // partition. `ShardSet` builds ceiling-sized contiguous chunks, so
        // the critical-path shard holds ceil(db / shards) bytes — a floor
        // split would under-model it whenever the size doesn't divide evenly.
        #[expect(
            clippy::expect_used,
            reason = "`shards` is positive (asserted above), so the sharded system has a device"
        )]
        let shard_view = system
            .clone()
            .with_ssd_count(shards)
            .shard_systems()
            .into_iter()
            .next()
            .expect("sharded system has at least one device");
        let shard_stream_time = per_shard_bytes(workload.metalign_db, shards)
            .time_at(shard_view.aggregate_internal_read_bandwidth());
        let step3_stream_time = workload
            .candidate_reference_indexes
            .time_at(shard_view.aggregate_internal_read_bandwidth());

        ModeledAccount {
            samples,
            shards,
            independent,
            pipelined,
            shard_speedups,
            shard_stream_time,
            step3_stream_time,
        }
    }

    /// Total modeled time of the independent-runs baseline.
    pub fn independent_total(&self) -> SimDuration {
        self.independent.total()
    }

    /// Total modeled time of the pipelined plan.
    pub fn pipelined_total(&self) -> SimDuration {
        self.pipelined.total()
    }

    /// Speedup of the pipelined plan over independent runs (> 1 whenever
    /// batching amortizes anything).
    pub fn pipelining_speedup(&self) -> f64 {
        self.independent_total() / self.pipelined_total()
    }

    /// Modeled intersection-phase speedup at the account's shard count,
    /// relative to one SSD.
    pub fn shard_speedup(&self) -> f64 {
        self.shard_speedups.last().map(|(_, s)| *s).unwrap_or(1.0)
    }

    /// Returns `true` if the account satisfies the paper's qualitative
    /// claims: pipelined strictly below independent for multi-sample
    /// batches, and intersection scaling within `tolerance` of linear in the
    /// shard count (e.g. `0.9` accepts ≥ 90% of linear).
    pub fn is_consistent(&self, tolerance: f64) -> bool {
        let pipelining_ok = self.samples == 1 || self.pipelined_total() < self.independent_total();
        let scaling_ok = self
            .shard_speedups
            .iter()
            .all(|(count, speedup)| *speedup >= tolerance * *count as f64);
        pipelining_ok && scaling_ok
    }
}

/// Bytes held by the critical-path shard of an `shards`-way split: the
/// ceiling division matching `ShardSet::build`'s chunking, so that
/// `shards * per_shard_bytes(db, shards)` always covers the whole database.
///
/// These are *device-resident* bytes — what each simulated SSD stores and
/// streams during Step 2, which genuinely divides across devices. Host
/// memory is accounted separately: the functional shards are zero-copy
/// views over one shared columnar storage (`ShardSet::resident_bytes`
/// stays ≈ 1× the database at any shard count), so the modeled per-device
/// split must not be mistaken for an N-way host copy.
fn per_shard_bytes(
    database: megis_ssd::timing::ByteSize,
    shards: usize,
) -> megis_ssd::timing::ByteSize {
    megis_ssd::timing::ByteSize::from_bytes(database.as_bytes().div_ceil(shards as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use megis_genomics::sample::Diversity;
    use megis_ssd::config::SsdConfig;
    use megis_ssd::timing::ByteSize;

    fn account(samples: usize, shards: usize) -> ModeledAccount {
        let system = SystemConfig::reference(SsdConfig::ssd_c());
        let workload = WorkloadSpec::cami(Diversity::Medium);
        ModeledAccount::compute(&system, &workload, samples, shards)
    }

    #[test]
    fn pipelined_beats_independent_for_batches() {
        let acct = account(16, 1);
        assert!(acct.pipelined_total() < acct.independent_total());
        assert!(acct.pipelining_speedup() > 1.0);
        assert!(acct.is_consistent(0.9));
    }

    #[test]
    fn shard_scaling_is_near_linear_to_eight() {
        let acct = account(4, 8);
        assert_eq!(acct.shard_speedups.len(), 8);
        for (count, speedup) in &acct.shard_speedups {
            assert!(
                *speedup >= 0.9 * *count as f64,
                "{count} shards give only {speedup:.2}x"
            );
        }
        assert!(acct.shard_speedup() >= 7.0);
    }

    #[test]
    fn shard_stream_time_divides_with_shard_count() {
        let one = account(4, 1).shard_stream_time;
        let four = account(4, 4).shard_stream_time;
        let ratio = one / four;
        assert!(
            (ratio - 4.0).abs() < 0.01,
            "4-way split should quarter the per-shard stream, got {ratio:.3}x"
        );
    }

    #[test]
    fn step3_stream_time_is_one_device_at_any_shard_count() {
        // One Step 3 command per job, on one device: adding devices does
        // not divide it.
        let one = account(4, 1).step3_stream_time;
        assert!(one > SimDuration::from_secs(0.0));
        assert_eq!(account(4, 8).step3_stream_time, one);
    }

    #[test]
    fn per_shard_split_uses_ceiling_like_shard_set() {
        // 10 bytes over 4 shards: the biggest chunk holds 3 bytes, and four
        // such chunks cover the database. A floor split (2 bytes) would
        // leave 2 bytes unaccounted on the critical path.
        assert_eq!(per_shard_bytes(ByteSize::from_bytes(10), 4).as_bytes(), 3);
        assert_eq!(per_shard_bytes(ByteSize::from_bytes(12), 4).as_bytes(), 3);
        assert_eq!(per_shard_bytes(ByteSize::from_bytes(701), 8).as_bytes(), 88);
        for (bytes, shards) in [(10u64, 3usize), (701, 8), (1, 5), (1024, 7)] {
            let per = per_shard_bytes(ByteSize::from_bytes(bytes), shards).as_bytes();
            assert!(
                per * shards as u64 >= bytes,
                "{shards} shards x {per} B fail to cover {bytes} B"
            );
        }
    }

    #[test]
    fn shard_stream_time_models_critical_path_at_non_dividing_counts() {
        // 701 GB over 3 shards does not divide evenly; the account must
        // price the ceiling-sized shard that `ShardSet` actually builds.
        let system = SystemConfig::reference(SsdConfig::ssd_c());
        let workload = WorkloadSpec::cami(Diversity::Medium);
        let acct = ModeledAccount::compute(&system, &workload, 4, 3);
        let shard_view = system
            .clone()
            .with_ssd_count(3)
            .shard_systems()
            .into_iter()
            .next()
            .unwrap();
        let expected = per_shard_bytes(workload.metalign_db, 3)
            .time_at(shard_view.aggregate_internal_read_bandwidth());
        assert!(
            (acct.shard_stream_time / expected - 1.0).abs() < 1e-12,
            "stream time must price the ceiling-sized shard"
        );
    }

    #[test]
    fn single_sample_account_is_consistent() {
        // No pipelining gain exists for one sample; consistency must not
        // demand one.
        let acct = account(1, 2);
        assert!(acct.is_consistent(0.9));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_rejected() {
        account(0, 1);
    }
}
