// Fixture: shardstats-accessor negative cases — reads, comparisons,
// struct-literal and struct-update construction, same-named fields on
// other structs, and a reasoned suppression all stay clean.

// A new count is a fact added to the fold in `metrics.rs`; outside it, a
// struct update builds a new value and writes no counter.
fn add_the_fact_to_the_fold_in_metrics(stats: ShardStats, retries: u64) -> ShardStats {
    ShardStats { retries, ..stats }
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
