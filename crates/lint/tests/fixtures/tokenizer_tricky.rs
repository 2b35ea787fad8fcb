// Fixture: tokenization traps. Every forbidden pattern below is inert —
// hidden in strings, raw strings or comments, or blocking with no guard
// live — so this file must lint clean.

use std::sync::{Mutex, PoisonError};

// .lock().unwrap() in a comment is not code.
/* Neither is thread::spawn(|| { panic!("boom") })
   in a /* nested */ block comment. */

fn strings_hide_everything() -> Vec<String> {
    vec![
        "state.lock().unwrap()".to_string(),
        "tx.send(x) while holding the guard".to_string(),
        r#"thread::spawn(move || { rx.recv().unwrap() })"#.to_string(),
        r##"raw with "# inner fence: m.lock().expect("poisoned")"##.to_string(),
        String::from_utf8_lossy(b"Instant::now() in a byte string").into_owned(),
    ]
}

fn escaped_quotes_do_not_leak(m: &Mutex<u32>) -> u32 {
    let label = "say \"m.lock().unwrap()\" and stay clean";
    let guard = m.lock().unwrap_or_else(PoisonError::into_inner);
    label.len() as u32 + *guard
}

fn a_closed_scope_ends_the_guard(m: &Mutex<u32>, rx: std::sync::mpsc::Receiver<u32>) {
    // The guard dies with the closure body that bound it; the receive in
    // the outer body runs with no guard live.
    let read = || {
        let guard = m.lock().unwrap_or_else(PoisonError::into_inner);
        *guard
    };
    let _ = read() + rx.recv().unwrap_or(0);
}

fn lifetimes_are_not_chars<'a>(source: &'a str) -> &'a str {
    let marker = '\'';
    let _ = marker;
    source
}

fn r#match(range: std::ops::Range<usize>) -> usize {
    // Raw idents and `0..4`-style ranges lex cleanly.
    let windows = [0_usize; 4];
    windows[range.len() % 4]
}
