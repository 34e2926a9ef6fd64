//! Fixture worker pool inside a sim crate, which `clippy.toml` bans.

use std::thread;
use std::sync::mpsc;

/// Fan a batch of jobs out to spawned threads (banned here).
pub fn run_all(jobs: Vec<fn()>) {
    let (tx, rx) = mpsc::channel::<()>();
    for job in jobs {
        let tx = tx.clone();
        thread::spawn(move || {
            job();
            tx.send(()).ok();
        });
    }
    drop(tx);
    for _ in rx.iter() {}
}

/// Reading the current thread's name spawns nothing, so it stays legal.
pub fn current_name() -> Option<String> {
    std::thread::current().name().map(str::to_owned)
}

/// The other spawning and channel forms (banned here too).
pub fn run_scoped(job: fn()) {
    let (tx, _rx) = mpsc::sync_channel::<()>(1);
    thread::scope(|s| {
        s.spawn(job);
    });
    let _ = thread::Builder::new().spawn(job);
    drop(tx);
}
