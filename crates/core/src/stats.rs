//! Per-session scheduling counters.
//!
//! `chef-serve`'s shared worker pool dispatches sessions one checkpoint
//! slice at a time; these counters record how the scheduler treated a
//! session across its whole lifetime — slices dispatched, preemptions
//! (slices that ended with work remaining), cumulative runnable-but-
//! waiting time, and low-level instructions charged against the session's
//! quota — plus the session's other `status` counters (tests added and
//! seeded, the resume seed split, watchdog activity). They are persisted
//! next to the session's checkpoint (as a `chef_core::wire` frame) so they
//! survive daemon restarts and a session the daemon drops from memory and
//! later rehydrates, and surfaced verbatim by the `status` protocol command.

/// Scheduling counters of one `chef-serve` session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Fair-share weight: sessions receive pool time proportional to
    /// their quota (the scheduler's stride is inverse to it).
    pub quota: u64,
    /// Checkpoint slices the pool has dispatched for this session.
    pub slices: u64,
    /// Slices that ended at the slice budget with work remaining — the
    /// session was preempted in favor of its peers, not finished.
    pub preemptions: u64,
    /// Cumulative milliseconds spent runnable in the queue, waiting for a
    /// pool worker.
    pub wait_ms: u64,
    /// Low-level instructions executed on the session's behalf, lifetime
    /// (the quantity fair-share accounting meters).
    pub cpu_ll: u64,
    /// New tests the session added to its target's corpus.
    pub new_tests: u64,
    /// Corpus tests replayed to warm-start the session's latest run.
    pub seeded_tests: u64,
    /// Checkpoint seeds the latest resume restored through the fork-point
    /// snapshot.
    pub resume_snapshot_seeds: u64,
    /// Checkpoint seeds the latest resume replayed from the root instead.
    pub resume_full_seeds: u64,
    /// Milli-tests per second over the session's last checkpoint slice.
    pub tests_per_sec_milli: u64,
    /// Slices the watchdog aborted, lifetime.
    pub watchdog_aborts: u64,
    /// Checkpoint seeds quarantined after repeated watchdog timeouts.
    pub poisoned_seeds: u64,
}
