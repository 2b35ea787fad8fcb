// Fixture: malformed allow annotations. A reasonless or unknown-rule
// annotation is an `allow-hygiene` diagnostic and suppresses nothing, so
// the underlying shardstats-accessor violation still fires too.

fn reasonless(stats: &mut ShardStats) {
    // lint:allow(shardstats-accessor)
    stats.retries = 3;
}

// lint:allow(not-a-rule, the rule name does not exist)
fn unknown_rule() {}
