// Fixture: shardstats-accessor negative cases — reads, comparisons,
// struct-literal and struct-update construction, same-named fields on
// other structs, and a reasoned suppression all stay clean.

fn merge_the_tally_at_teardown(stats: ShardStats, tally: &CompleterTally) -> ShardStats {
    ShardStats {
        peak_inflight: tally.peak_inflight[stats.shard],
        retries: tally.retries[stats.shard],
        failovers: tally.failovers[stats.shard],
        ..stats
    }
}

fn reads_and_comparisons(stats: &ShardStats) -> u64 {
    assert!(stats.retries == stats.faults);
    stats.jobs + stats.step3_jobs
}

fn literal_construction(served: u64) -> ShardStats {
    ShardStats {
        jobs: served,
        ..ShardStats::default()
    }
}

fn other_structs_share_field_names(usage: &mut [DeviceUsage], shard: usize, width: Duration) {
    // `usage` is not a stats receiver: the rule keys on the name.
    usage[shard].busy += width;
}

fn reasoned_exception(stats: &mut ShardStats) {
    // lint:allow(shardstats-accessor, fixture demonstrating a reviewed direct write)
    stats.stolen_items += 1;
}
