//! The run engine — the one file where thread primitives are allowed.

#![expect(clippy::disallowed_methods, reason = "the runner is the one home of worker threads")]

/// Run jobs on scoped worker threads.
pub fn run_jobs(jobs: Vec<fn()>) {
    std::thread::scope(|s| {
        for job in jobs {
            s.spawn(job);
        }
    });
}
