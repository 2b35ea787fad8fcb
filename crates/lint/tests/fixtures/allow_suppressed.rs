// Fixture: well-formed allow annotations — every violation below is
// deliberately suppressed with a reason, so the file has no diagnostics but
// three recorded suppressions.

use std::thread;

fn reviewed_direct_write(stats: &mut ShardStats) {
    // lint:allow(shardstats-accessor, this helper only builds test fixtures,
    // whose counters no cross-check reads)
    stats.retries = 3;
}

fn delivery_under_lock(m: &Lock<u32>, tx: &std::sync::mpsc::Sender<u32>) {
    let guard = m.lock();
    // lint:allow(guard-across-blocking, unbounded std mpsc send never blocks)
    tx.send(*guard).ok();
}

fn worker_with_deliberate_panic() {
    thread::spawn(|| {
        panic!("poison the pipeline on purpose"); // lint:allow(panic-hygiene, this panic is the poison signal under test)
    });
}
