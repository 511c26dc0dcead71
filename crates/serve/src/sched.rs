//! chef-sched — the daemon's shared worker pool and fair-share scheduler.
//!
//! The original daemon spawned one unbounded OS thread per session, so a
//! dozen submitters oversubscribed the host and a greedy session starved
//! everyone else. This module replaces that with a *fixed* pool of N
//! workers pulling runnable sessions from a stride-scheduled run queue:
//!
//! - **Dispatch granularity** is one checkpoint slice (the PR-4 budget
//!   slices double as preemption points): a worker runs one slice of one
//!   session via [`chef_fleet::run_fleet_slice`], persists its results,
//!   and requeues the session behind its peers.
//! - **Fairness** is stride scheduling over per-session low-level
//!   instruction accounting. Every session has a `pass` (virtual time);
//!   workers always dispatch the minimum-pass session, and a completed
//!   slice advances the session's pass by `ll_executed × QUOTA_UNIT /
//!   quota`. Equal quotas therefore share the pool's instruction
//!   throughput equally; a session with quota 200 receives twice the
//!   share of one with quota 100. New admissions join at the queue's
//!   current virtual time, so they neither starve incumbents nor wait
//!   behind them forever.
//! - **Admission control** caps the admitted-and-unsettled session count:
//!   a submit (or resume) beyond `max_sessions` is rejected with a typed
//!   `retry_after_ms` response instead of silently piling up threads.
//! - **Graceful drain**: shutdown marks the scheduler draining (further
//!   admissions are refused), pause-requests every session, and joins the
//!   workers; every in-flight slice ends at its next preemption point
//!   with its checkpoint on disk.
//!
//! Determinism: a session's slice sequence depends only on its own spec
//! and checkpoint interval — never on what its neighbors do — so K
//! sessions interleaved on a 2-worker pool generate byte-identical
//! canonical test sets to the same sessions run sequentially (asserted by
//! `tests/sched.rs` and the `serve_multitenant` bench).

use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::{
    poison_head_seed, session_slice, Inner, SessionState, SliceError, SliceVerdict,
    POISON_AFTER_TIMEOUTS,
};

/// Pass advance per low-level instruction for a session with the default
/// quota: `pass += ll * QUOTA_UNIT / quota`. With `quota == QUOTA_UNIT`
/// the pass advances by exactly the instructions executed.
pub const QUOTA_UNIT: u64 = 100;

/// Configuration of the shared worker pool.
#[derive(Clone, Debug)]
pub struct SchedConfig {
    /// Pool workers executing session slices. The pool bounds *session*
    /// concurrency; a session whose spec asks for fleet `jobs > 1` still
    /// spawns its scoped fleet threads for the duration of its slice.
    pub workers: usize,
    /// Maximum admitted-and-unsettled sessions (executing + queued).
    /// Submits and resumes beyond it receive a typed `retry_after`
    /// rejection.
    pub max_sessions: usize,
    /// Fair-share weight assigned to sessions that do not request one.
    pub default_quota: u64,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            workers: 2,
            max_sessions: 32,
            default_quota: QUOTA_UNIT,
        }
    }
}

/// One runnable session in the queue.
struct Entry {
    /// Stride-scheduling virtual time; the minimum-pass entry runs next.
    pass: u64,
    /// Admission order, tie-breaking equal passes FIFO (and making the
    /// dispatch order deterministic).
    seq: u64,
    /// When the session (re)entered the queue, for wait accounting.
    enqueued: Instant,
    sess: Arc<SessionState>,
}

struct SchedState {
    /// Runnable sessions. Kept unordered; dispatch scans for the minimum
    /// `(pass, seq)` — session counts are capped at `max_sessions`, so a
    /// linear scan beats heap bookkeeping at this scale.
    queue: Vec<Entry>,
    /// Sessions currently executing a slice on a worker.
    executing: usize,
    /// Admitted and unsettled sessions (executing + queued).
    active: usize,
    /// Global virtual time: the maximum pass ever dispatched. Admissions
    /// join here.
    vtime: u64,
    /// Admission sequence counter.
    seq: u64,
    /// Set once shutdown begins; admissions are refused and workers exit
    /// when the queue empties.
    draining: bool,
}

/// The shared worker pool. Owned by the daemon's `Inner`; workers hold an
/// `Arc<Inner>` back to it, and are started by `Server::run` and joined by
/// the shutdown drain.
pub(crate) struct Scheduler {
    cfg: SchedConfig,
    state: Mutex<SchedState>,
    cv: Condvar,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    pub(crate) fn new(cfg: SchedConfig) -> Self {
        Scheduler {
            cfg,
            state: Mutex::new(SchedState {
                queue: Vec::new(),
                executing: 0,
                active: 0,
                vtime: 0,
                seq: 0,
                draining: false,
            }),
            cv: Condvar::new(),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// Spawns the pool workers and the slice watchdog (idempotent; called
    /// by `Server::run`). Spawn failures degrade instead of panicking: the
    /// pool runs with however many workers materialized, as long as that
    /// is at least one.
    pub(crate) fn start(&self, inner: &Arc<Inner>) {
        let mut workers = self.workers.lock().unwrap();
        if !workers.is_empty() {
            return;
        }
        for w in 0..self.cfg.workers.max(1) {
            let inner = Arc::clone(inner);
            match std::thread::Builder::new()
                .name(format!("chef-sched-{w}"))
                .spawn(move || worker_loop(inner))
            {
                Ok(h) => workers.push(h),
                Err(e) => eprintln!("chef-serve: pool worker spawn failed: {e}"),
            }
        }
        assert!(
            !workers.is_empty(),
            "could not spawn any pool worker thread"
        );
        if inner.config.slice_timeout_ms > 0 {
            let inner = Arc::clone(inner);
            if let Ok(h) = std::thread::Builder::new()
                .name("chef-watchdog".into())
                // Watchdog loss is not fatal: slices just lose their
                // deadline enforcement.
                .spawn(move || watchdog_loop(inner))
            {
                workers.push(h);
            }
        }
    }

    /// Whether the shutdown drain has begun.
    pub(crate) fn is_draining(&self) -> bool {
        self.state.lock().unwrap().draining
    }

    /// The queue's current virtual time (the maximum pass ever
    /// dispatched); stamps daemon trace events so an operator can line
    /// them up with fair-share progress.
    pub(crate) fn vtime(&self) -> u64 {
        self.state.lock().unwrap().vtime
    }

    /// Reserves one admission slot. `Err(retry_after_ms)` means the pool
    /// is at capacity (or draining) and the client should retry later; the
    /// estimate scales with the backlog each worker would have to clear
    /// first.
    pub(crate) fn reserve(&self) -> Result<(), u64> {
        let mut st = self.state.lock().unwrap();
        if st.draining {
            return Err(1_000);
        }
        if st.active >= self.cfg.max_sessions.max(1) {
            let backlog = st.active as u64;
            let per_worker = backlog.div_ceil(self.cfg.workers.max(1) as u64);
            return Err((250 * per_worker).clamp(250, 30_000));
        }
        st.active += 1;
        Ok(())
    }

    /// Releases a reservation that never became a queued session (e.g.
    /// spec persistence failed after `reserve`).
    pub(crate) fn release(&self) {
        let mut st = self.state.lock().unwrap();
        st.active = st.active.saturating_sub(1);
    }

    /// Enqueues a reserved session at the current virtual time.
    pub(crate) fn enqueue(&self, sess: Arc<SessionState>) {
        let mut st = self.state.lock().unwrap();
        st.seq += 1;
        let entry = Entry {
            pass: st.vtime,
            seq: st.seq,
            enqueued: Instant::now(),
            sess,
        };
        st.queue.push(entry);
        drop(st);
        self.cv.notify_one();
    }

    /// Dispatches the minimum-pass runnable session to the calling worker.
    /// `None` means the scheduler is draining and the queue is empty — the
    /// worker should exit.
    fn next(&self) -> Option<Entry> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(i) = min_entry(&st.queue) {
                let entry = st.queue.swap_remove(i);
                st.executing += 1;
                st.vtime = st.vtime.max(entry.pass);
                let waited = entry.enqueued.elapsed();
                entry
                    .sess
                    .wait_ms
                    .fetch_add(waited.as_millis() as u64, Ordering::Relaxed);
                // Runs on the dispatching pool worker, so the wait lands
                // in the thread-local that the session's next slice
                // drains — queue time is attributed to the session that
                // actually waited.
                chef_trace::record_phase(chef_trace::Phase::SchedWait, waited);
                entry.sess.executing.store(true, Ordering::SeqCst);
                return Some(entry);
            }
            if st.draining {
                return None;
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Returns a dispatched session to the queue, charging `ll` executed
    /// low-level instructions against its quota.
    fn requeue(&self, mut entry: Entry, ll: u64) {
        entry.sess.executing.store(false, Ordering::SeqCst);
        entry.pass = entry
            .pass
            .saturating_add(ll.saturating_mul(QUOTA_UNIT) / entry.sess.quota.max(1));
        entry.enqueued = Instant::now();
        let mut st = self.state.lock().unwrap();
        st.executing -= 1;
        st.queue.push(entry);
        drop(st);
        self.cv.notify_one();
    }

    /// Retires a dispatched session (done / exhausted / paused / failed):
    /// its admission slot frees up.
    fn retire(&self, entry: &Entry) {
        entry.sess.executing.store(false, Ordering::SeqCst);
        let mut st = self.state.lock().unwrap();
        st.executing -= 1;
        st.active = st.active.saturating_sub(1);
        drop(st);
        self.cv.notify_one();
    }

    /// A session's place in line: `0` while executing on a worker, `k ≥ 1`
    /// as the k-th waiting session in dispatch order, `-1` when the
    /// scheduler does not hold it (settled, paused, or never admitted).
    pub(crate) fn queue_position(&self, sess: &SessionState) -> i64 {
        if sess.executing.load(Ordering::SeqCst) {
            return 0;
        }
        let st = self.state.lock().unwrap();
        let mut order: Vec<(u64, u64, &str)> = st
            .queue
            .iter()
            .map(|e| (e.pass, e.seq, e.sess.id.as_str()))
            .collect();
        order.sort();
        match order.iter().position(|(_, _, id)| *id == sess.id) {
            Some(i) => (i + 1) as i64,
            None => -1,
        }
    }

    /// Begins the shutdown drain: no further admissions; workers exit once
    /// the queue empties. The caller is responsible for pause-requesting
    /// the sessions themselves (so in-flight slices stop at their next
    /// preemption point).
    pub(crate) fn begin_drain(&self) {
        self.state.lock().unwrap().draining = true;
        self.cv.notify_all();
    }

    /// Joins the pool workers (after [`Scheduler::begin_drain`]).
    pub(crate) fn join_workers(&self) {
        let workers: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        for w in workers {
            let _ = w.join();
        }
    }
}

/// Index of the minimum-`(pass, seq)` entry, if any.
fn min_entry(queue: &[Entry]) -> Option<usize> {
    queue
        .iter()
        .enumerate()
        .min_by_key(|(_, e)| (e.pass, e.seq))
        .map(|(i, _)| i)
}

/// Moves `sess` to a rest state and lets the registry trim itself. Its
/// counters must be on disk by now: the registry may drop the session
/// from memory from here on.
fn settle(inner: &Inner, sess: &SessionState, state: &str) {
    sess.set_state(&inner.corpus, state);
    inner.note_settled(sess);
}

/// One pool worker: dispatch → run one slice → account → requeue/retire,
/// until the drain empties the queue.
fn worker_loop(inner: Arc<Inner>) {
    while let Some(entry) = inner.sched.next() {
        let sess = Arc::clone(&entry.sess);
        // A pause that landed while the session sat in the queue parks it
        // without burning a slice (shutdown drains whole queues this way).
        if sess.ctl.pause_requested() {
            inner.sched.retire(&entry);
            settle(&inner, &sess, "paused");
            continue;
        }
        // Arm the watchdog for this slice. The deadline covers the whole
        // slice including (re)preparation — a hung snapshot restore counts.
        if inner.config.slice_timeout_ms > 0 {
            *sess.slice_deadline.lock().unwrap() =
                Some(Instant::now() + Duration::from_millis(inner.config.slice_timeout_ms));
        }
        inner.trace_event("slice_start", &sess.id, String::new());
        let result = session_slice(&inner, &sess);
        *sess.slice_deadline.lock().unwrap() = None;
        // Was the pause we may be about to observe a watchdog abort? The
        // swap also absorbs stale fires (watchdog fired right as the slice
        // finished on its own) so they cannot leak into the next slice.
        let fired = sess.watchdog_fired.swap(false, Ordering::SeqCst);
        let disposition = match &result {
            Ok((SliceVerdict::Continue, _)) => "continue",
            Ok((SliceVerdict::Paused, _)) if fired && !inner.sched.is_draining() => {
                "watchdog_abort"
            }
            Ok((SliceVerdict::Paused, _)) => "paused",
            Ok((SliceVerdict::Done, _)) => "done",
            Ok((SliceVerdict::Exhausted, _)) => "exhausted",
            Err(SliceError::Io(_)) => "io_error",
            Err(SliceError::Fatal(_)) => "failed",
        };
        inner.trace_event("slice_end", &sess.id, disposition.to_string());
        match result {
            Ok((SliceVerdict::Continue, ll)) => {
                sess.consecutive_timeouts.store(0, Ordering::Relaxed);
                if fired && !inner.sched.is_draining() {
                    // The watchdog fired in the gap after the slice's last
                    // preemption check: absorb the stale pause request so
                    // it cannot park the next (innocent) slice.
                    sess.ctl.clear_pause();
                }
                inner.trace_event("preempt", &sess.id, format!("ll={ll}"));
                inner.sched.requeue(entry, ll);
            }
            Ok((SliceVerdict::Paused, ll)) if fired && !inner.sched.is_draining() => {
                // Watchdog abort, not a user pause: degrade and continue.
                // The slice checkpointed at its abort point, so nothing is
                // lost; repeated offenders get their head seed poisoned
                // (snapshot stripped, then quarantined) so one pathological
                // seed cannot monopolize a pool worker forever.
                let strikes = sess.consecutive_timeouts.fetch_add(1, Ordering::Relaxed) + 1;
                if strikes >= POISON_AFTER_TIMEOUTS {
                    poison_head_seed(&inner, &sess);
                }
                sess.ctl.clear_pause();
                inner.sched.requeue(entry, ll);
            }
            Ok((SliceVerdict::Paused, _)) => {
                inner.sched.retire(&entry);
                settle(&inner, &sess, "paused");
            }
            Ok((SliceVerdict::Exhausted, _)) => {
                inner.sched.retire(&entry);
                settle(&inner, &sess, "exhausted");
            }
            Ok((SliceVerdict::Done, _)) => {
                inner.sched.retire(&entry);
                settle(&inner, &sess, "done");
                // Corpus lifecycle: a finished session is the natural
                // compaction point for its target (drops any truncated
                // tail and trims to the per-target budget).
                let _ = inner.corpus.compact_tests(&sess.target);
            }
            Err(SliceError::Io(e)) => {
                // Transient disk trouble pauses, never kills: the previous
                // checkpoint is still consistent, so the session resumes
                // (re-preparing from it) once the operator clears the
                // fault. The failed slice re-executes deterministically.
                inner.io_pauses.fetch_add(1, Ordering::Relaxed);
                inner.sched.retire(&entry);
                // The slice stopped before persisting its counters.
                let _ = inner.corpus.save_sched(&sess.id, &sess.sched_stats());
                inner.trace_event("io_pause", &sess.id, e.clone());
                eprintln!("chef-serve: session {} paused on io error: {e}", sess.id);
                settle(&inner, &sess, "paused");
            }
            Err(SliceError::Fatal(e)) => {
                inner.sched.retire(&entry);
                settle(&inner, &sess, &format!("failed: {e}"));
            }
        }
    }
}

/// The slice watchdog: periodically sweeps executing sessions and
/// pause-aborts any whose deadline has passed. The abort lands at the
/// slice's next preemption check (the same safe point user pauses use), so
/// the checkpoint written on the way out is consistent; the worker then
/// requeues the session and exploration continues degraded.
fn watchdog_loop(inner: Arc<Inner>) {
    let timeout = inner.config.slice_timeout_ms.max(1);
    let tick = Duration::from_millis((timeout / 4).clamp(5, 50));
    loop {
        if inner.sched.is_draining() {
            return;
        }
        let now = Instant::now();
        let sessions: Vec<Arc<SessionState>> =
            inner.sessions.lock().unwrap().values().cloned().collect();
        for sess in sessions {
            if !sess.executing.load(Ordering::SeqCst) {
                continue;
            }
            let overdue = sess
                .slice_deadline
                .lock()
                .unwrap()
                .is_some_and(|d| now >= d);
            // One fire per slice: the flag stays set until the worker
            // consumes it, so subsequent ticks do not double-count.
            if overdue && !sess.watchdog_fired.swap(true, Ordering::SeqCst) {
                sess.watchdog_aborts.fetch_add(1, Ordering::Relaxed);
                inner.watchdog_aborts.fetch_add(1, Ordering::Relaxed);
                inner.trace_event(
                    "watchdog_abort",
                    &sess.id,
                    format!("timeout_ms={}", inner.config.slice_timeout_ms),
                );
                sess.ctl.request_pause();
                eprintln!(
                    "chef-serve: watchdog aborting overrunning slice of session {}",
                    sess.id
                );
            }
        }
        std::thread::sleep(tick);
    }
}
