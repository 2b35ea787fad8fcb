// Fixture: well-formed allow annotations — every violation below is
// deliberately suppressed with a reason, so the file has no diagnostics but
// two recorded suppressions.

use std::sync::mpsc::Sender;

fn delivery_under_lock(m: &Lock<u32>, tx: &Sender<u32>) {
    let guard = m.lock();
    // lint:allow(guard-across-blocking, unbounded std mpsc send never
    // blocks, and the value must leave under the lock)
    tx.send(*guard).ok();
}

fn echo_under_lock(m: &Lock<u32>, tx: &Sender<u32>) {
    let guard = m.lock();
    tx.send(*guard).ok(); // lint:allow(guard-across-blocking, unbounded send)
}
