// Fixture: panic-hygiene follows a thread body out of its closure — into
// every same-file function the spawn body calls by name, transitively —
// and no further.

use std::sync::mpsc::Receiver;
use std::thread;

fn spawn_worker(rx: Receiver<u32>) {
    thread::spawn(move || worker_body(&rx));
}

fn worker_body(rx: &Receiver<u32>) -> u32 {
    let value = rx.recv().unwrap();
    next_step(value)
}

fn next_step(value: u32) -> u32 {
    value.checked_add(1).expect("overflow")
}

fn never_on_a_thread(input: Option<u32>) -> u32 {
    input.unwrap()
}
