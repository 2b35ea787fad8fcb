// Fixture: malformed allow annotations. A reasonless or unknown-rule
// annotation is an `allow-hygiene` diagnostic and suppresses nothing, so
// the underlying guard-across-blocking violation still fires too.

fn reasonless(m: &Lock<u32>, tx: &std::sync::mpsc::Sender<u32>) {
    let guard = m.lock();
    // lint:allow(guard-across-blocking)
    tx.send(*guard).ok();
}

// lint:allow(not-a-rule, the rule name does not exist)
fn unknown_rule() {}
