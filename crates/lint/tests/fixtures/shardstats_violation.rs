// Fixture: shardstats-accessor violations — `ShardStats` counter fields
// mutated directly outside `metrics.rs` instead of through their named
// accessors: a plain assignment, a compound `+=`, and an `[..]`-indexed
// receiver (the teardown-aggregation shape).

fn aggregate_teardown(stats: &mut ShardStats, state: &SharedState) {
    stats.retries = state.shard_retries[stats.shard];
    stats.faults += 1;
}

fn bump_indexed(shard_stats: &mut [ShardStats], shard: usize) {
    shard_stats[shard].query_items += 2;
}
