// Fixture: shardstats-accessor violations — `ShardStats` counter fields
// mutated after the value is built, outside `metrics.rs`: a plain
// assignment, a compound `+=`, and an `[..]`-indexed receiver (the
// teardown-aggregation shape).

fn aggregate_teardown(stats: &mut ShardStats, tally: &CompleterTally) {
    stats.retries = tally.retries[stats.shard];
    stats.faults += 1;
}

fn bump_indexed(shard_stats: &mut [ShardStats], shard: usize) {
    shard_stats[shard].query_items += 2;
}
