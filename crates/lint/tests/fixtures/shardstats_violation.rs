// Fixture: shardstats-accessor violations — `ShardStats` counter fields
// mutated outside the tally fold in `metrics.rs`: a plain assignment, a
// compound `+=`, and an `[..]`-indexed receiver (the per-shard table shape).

fn count_outside_the_fold(stats: &mut ShardStats, retries: u64) {
    stats.retries = retries;
    stats.faults += 1;
}

fn bump_indexed(shard_stats: &mut [ShardStats], shard: usize) {
    shard_stats[shard].query_items += 2;
}
