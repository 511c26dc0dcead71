//! Deterministic observability plane for the chef stack.
//!
//! Every other crate records *counters*; this one answers *where the wall
//! time went*. Three pieces:
//!
//! - **Phase spans** ([`span`]): RAII guards that attribute wall time to a
//!   fixed [`Phase`] taxonomy (symbolic stepping, the concrete segment VM,
//!   SAT solving, bit-blasting, snapshot capture/restore, corpus and wire
//!   I/O, scheduler queue wait). Attribution is *self-time*: a nested span
//!   pauses its parent, so the per-phase totals are non-overlapping and sum
//!   to observed busy time. The clock is read only at phase transitions —
//!   never per interpreted instruction — which keeps the fully-instrumented
//!   overhead within the <3% budget.
//! - **Attributed profiles**: per-HL-PC fast-forward attempt/retired/abort
//!   counters ([`ff_attempt`] & co.) and a log2-bucketed [`Histogram`] of
//!   solver query latencies, exported as a folded-stack text profile
//!   ([`TraceStats::folded`], flamegraph-compatible).
//! - **A global [`TraceLevel`]**: `Off` (spans are a single relaxed atomic
//!   load), `Counters` (counts only, zero clock reads), `Spans` (full time
//!   attribution). The level gates *reporting only* — execution never
//!   observes the clock or the level, so canonical test sets, hl_sigs,
//!   snapshots, and ExprId allocation are byte-identical at every level.
//!
//! Accumulation is per-thread (no contention on hot paths); callers drain
//! a thread's stats with [`take_local`] and combine them across workers
//! with [`TraceStats::merge`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Number of [`Phase`] variants (array sizes, wire encoding).
pub const PHASE_COUNT: usize = 9;

/// The fixed cost-center taxonomy every span charges against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Phase {
    /// Symbolic interpretation: everything inside an engine step round
    /// not claimed by a nested phase.
    SymStep = 0,
    /// Concrete fast-forward segments on the LIR segment VM.
    ConcreteSeg = 1,
    /// SAT solving proper (`solve_under_assumptions`).
    SolverSat = 2,
    /// Bit-blasting / CNF guard activation ahead of a SAT call.
    Blast = 3,
    /// Fork-point snapshot capture.
    SnapshotCap = 4,
    /// Snapshot restore (seed rehydration).
    SnapshotRestore = 5,
    /// Corpus disk I/O (test append, coverage merge, checkpointing).
    CorpusIo = 6,
    /// Daemon wire I/O (reading requests, writing replies).
    WireIo = 7,
    /// Time a runnable session waited in the scheduler queue.
    SchedWait = 8,
}

impl Phase {
    /// All phases, in wire order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::SymStep,
        Phase::ConcreteSeg,
        Phase::SolverSat,
        Phase::Blast,
        Phase::SnapshotCap,
        Phase::SnapshotRestore,
        Phase::CorpusIo,
        Phase::WireIo,
        Phase::SchedWait,
    ];

    /// Stable snake_case name (folded profiles, JSON fields, CLI output).
    pub fn name(self) -> &'static str {
        match self {
            Phase::SymStep => "sym_step",
            Phase::ConcreteSeg => "concrete_seg",
            Phase::SolverSat => "solver_sat",
            Phase::Blast => "blast",
            Phase::SnapshotCap => "snapshot_cap",
            Phase::SnapshotRestore => "snapshot_restore",
            Phase::CorpusIo => "corpus_io",
            Phase::WireIo => "wire_io",
            Phase::SchedWait => "sched_wait",
        }
    }
}

/// How much the tracing plane records. Process-global; see [`set_level`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceLevel {
    /// No recording; spans are one relaxed atomic load.
    #[default]
    Off = 0,
    /// Phase entry counts and fast-forward site counters; no clock reads.
    Counters = 1,
    /// Full wall-time attribution and latency histograms.
    Spans = 2,
}

static LEVEL: AtomicU8 = AtomicU8::new(TraceLevel::Off as u8);

/// Sets the process-global trace level. Affects reporting only — the
/// engine never branches on it.
pub fn set_level(level: TraceLevel) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current process-global trace level.
pub fn level() -> TraceLevel {
    match LEVEL.load(Ordering::Relaxed) {
        0 => TraceLevel::Off,
        1 => TraceLevel::Counters,
        _ => TraceLevel::Spans,
    }
}

/// Parses a `--trace-level` argument (`off`, `counters`, `spans`).
pub fn parse_level(s: &str) -> Option<TraceLevel> {
    match s {
        "off" => Some(TraceLevel::Off),
        "counters" => Some(TraceLevel::Counters),
        "spans" => Some(TraceLevel::Spans),
        _ => None,
    }
}

/// Number of log2 latency buckets (bucket `i` holds values whose bit
/// length is `i`, i.e. `[2^(i-1), 2^i)` for `i ≥ 1`, and `0` for `i = 0`).
pub const HIST_BUCKETS: usize = 64;

/// A log2-bucketed latency histogram over `u64` nanoseconds. Integer-only:
/// percentiles come back as the upper bound of the bucket the rank falls
/// in, which is within 2x of the true value — plenty for p50/p90/p99
/// triage without floats on the wire.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("p50_ns", &self.percentile(50))
            .field("p99_ns", &self.percentile(99))
            .finish()
    }
}

fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).min(HIST_BUCKETS - 1)
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
    }

    /// Adds another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&b| b == 0)
    }

    /// The upper bound of the bucket containing the `p`-th percentile
    /// sample (`p` in 0..=100), or 0 when empty.
    pub fn percentile(&self, p: u64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        // Rank of the percentile sample, 1-based, ceiling semantics.
        let rank = (total * p.min(100)).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if idx == 0 { 0 } else { (1u64 << idx) - 1 };
            }
        }
        (1u64 << (HIST_BUCKETS - 1)) - 1
    }

    /// Non-empty `(bucket_index, count)` pairs, for sparse encoding.
    pub fn nonzero(&self) -> impl Iterator<Item = (u8, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (i as u8, c))
    }

    /// Adds `count` samples to bucket `idx` (sparse decoding).
    pub fn add_bucket(&mut self, idx: u8, count: u64) {
        if (idx as usize) < HIST_BUCKETS {
            self.buckets[idx as usize] += count;
        }
    }
}

/// Per-HL-PC fast-forward profile: how often the executor attempted a
/// concrete segment at this site, how often it retired instructions, how
/// often it aborted mid-segment, and the total instructions retired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FfSite {
    /// Segments attempted (after backoff gating).
    pub attempts: u64,
    /// Attempts that retired at least one concrete instruction.
    pub retired: u64,
    /// Segments aborted mid-flight (tainted load / out of fuel).
    pub aborts: u64,
    /// Total concrete instructions retired at this site.
    pub steps: u64,
    /// Current adaptive backoff interval at this site (attempts the
    /// executor will skip after the next degenerate segment; 0 = eager).
    /// A gauge, not a counter: merging keeps the maximum.
    pub backoff: u64,
}

impl FfSite {
    fn merge(&mut self, other: &FfSite) {
        self.attempts += other.attempts;
        self.retired += other.retired;
        self.aborts += other.aborts;
        self.steps += other.steps;
        self.backoff = self.backoff.max(other.backoff);
    }
}

/// Accumulated trace data for one thread, engine run, or whole fleet.
/// Everything is mergeable and deterministic to iterate (BTreeMap sites).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceStats {
    /// Span entries per phase.
    pub phase_count: [u64; PHASE_COUNT],
    /// Self-time nanoseconds per phase (non-overlapping; `Spans` only).
    pub phase_ns: [u64; PHASE_COUNT],
    /// Total (inclusive) span durations, all phases pooled.
    pub span_ns: Histogram,
    /// Per-query SAT latencies.
    pub solver_query_ns: Histogram,
    /// Fast-forward profile keyed by high-level PC.
    pub ff_sites: BTreeMap<u64, FfSite>,
    /// Retired-instructions-per-segment distribution (log2 buckets), all
    /// sites pooled: where the fast-forward win actually comes from.
    pub ff_seg_len: Histogram,
}

impl TraceStats {
    /// Folds another stats bundle into this one.
    pub fn merge(&mut self, other: &TraceStats) {
        for i in 0..PHASE_COUNT {
            self.phase_count[i] += other.phase_count[i];
            self.phase_ns[i] += other.phase_ns[i];
        }
        self.span_ns.merge(&other.span_ns);
        self.solver_query_ns.merge(&other.solver_query_ns);
        for (pc, site) in &other.ff_sites {
            self.ff_sites.entry(*pc).or_default().merge(site);
        }
        self.ff_seg_len.merge(&other.ff_seg_len);
    }

    /// Whether nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.phase_count.iter().all(|&c| c == 0)
            && self.phase_ns.iter().all(|&n| n == 0)
            && self.span_ns.is_empty()
            && self.solver_query_ns.is_empty()
            && self.ff_sites.is_empty()
            && self.ff_seg_len.is_empty()
    }

    /// Total attributed busy nanoseconds across all phases.
    pub fn busy_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// `phase`'s share of attributed busy time, in permille (0..=1000).
    pub fn phase_permille(&self, phase: Phase) -> u64 {
        (self.phase_ns[phase as usize] * 1000)
            .checked_div(self.busy_ns())
            .unwrap_or(0)
    }

    /// One-line digest: phase percentages (by self time when available,
    /// entry counts otherwise) plus solver latency percentiles.
    pub fn summary(&self) -> String {
        let mut parts = Vec::new();
        let timed = self.busy_ns() > 0;
        for phase in Phase::ALL {
            let i = phase as usize;
            if timed {
                if self.phase_ns[i] > 0 {
                    parts.push(format!(
                        "{}={}.{}%",
                        phase.name(),
                        self.phase_permille(phase) / 10,
                        self.phase_permille(phase) % 10
                    ));
                }
            } else if self.phase_count[i] > 0 {
                parts.push(format!("{}={}", phase.name(), self.phase_count[i]));
            }
        }
        if !self.solver_query_ns.is_empty() {
            parts.push(format!(
                "solver_p50={}us solver_p99={}us",
                self.solver_query_ns.percentile(50) / 1_000,
                self.solver_query_ns.percentile(99) / 1_000
            ));
        }
        if parts.is_empty() {
            "no trace data".into()
        } else {
            parts.join(" ")
        }
    }

    /// Flamegraph-compatible folded-stack profile. Phase frames are
    /// weighted by self-time microseconds (entry counts at `Counters`
    /// level); fast-forward site frames by retired instructions, attempt
    /// counts, and abort counts. Feed the output to any `flamegraph.pl`
    /// style renderer, or read the `ff;hlpc_…` lines directly to aim the
    /// adaptive backoff.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        let timed = self.busy_ns() > 0;
        for phase in Phase::ALL {
            let i = phase as usize;
            let weight = if timed {
                self.phase_ns[i] / 1_000
            } else {
                self.phase_count[i]
            };
            if weight > 0 {
                out.push_str(&format!("chef;{} {}\n", phase.name(), weight));
            }
        }
        for (pc, site) in &self.ff_sites {
            if site.steps > 0 {
                out.push_str(&format!("chef;ff;hlpc_{pc:#x};retired {}\n", site.steps));
            }
            if site.attempts > 0 {
                out.push_str(&format!(
                    "chef;ff;hlpc_{pc:#x};attempted {}\n",
                    site.attempts
                ));
            }
            if site.aborts > 0 {
                out.push_str(&format!("chef;ff;hlpc_{pc:#x};aborted {}\n", site.aborts));
            }
        }
        out
    }
}

/// Thread-local accumulator plus the self-time phase stack.
struct Local {
    stats: TraceStats,
    /// Phases currently on this thread's stack, outermost first.
    stack: Vec<Phase>,
    /// When the time since the last transition started accruing.
    last: Option<Instant>,
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            stats: TraceStats {
                phase_count: [0; PHASE_COUNT],
                phase_ns: [0; PHASE_COUNT],
                span_ns: Histogram { buckets: [0; HIST_BUCKETS] },
                solver_query_ns: Histogram { buckets: [0; HIST_BUCKETS] },
                ff_sites: BTreeMap::new(),
                ff_seg_len: Histogram { buckets: [0; HIST_BUCKETS] },
            },
            stack: Vec::new(),
            last: None,
        })
    };
}

/// Drains and returns this thread's accumulated stats. Call at a natural
/// collection point (end of an engine run, end of a daemon slice) — the
/// phase stack must be empty, i.e. no live spans.
pub fn take_local() -> TraceStats {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.last = None;
        std::mem::take(&mut l.stats)
    })
}

/// Puts back stats an earlier [`take_local`] set aside, replacing whatever
/// this thread accumulated since (a caller that ran an engine on its own
/// thread keeps its own attribution and none of the engine's).
pub fn restore_local(stats: TraceStats) {
    LOCAL.with(|l| l.borrow_mut().stats = stats);
}

/// Charges `now - last` to the phase on top of the stack.
fn charge_top(l: &mut Local, now: Instant) {
    if let (Some(&top), Some(last)) = (l.stack.last(), l.last) {
        l.stats.phase_ns[top as usize] += now.duration_since(last).as_nanos() as u64;
    }
}

/// RAII phase guard. At `Spans` level the guard pauses the enclosing
/// phase (self-time accounting); at `Counters` it bumps the entry count;
/// at `Off` it is a no-op.
pub struct Span {
    state: SpanState,
}

enum SpanState {
    Noop,
    Counted,
    Timed { phase: Phase, entered: Instant },
}

/// Opens a span attributing subsequent wall time to `phase`.
#[inline]
pub fn span(phase: Phase) -> Span {
    match level() {
        TraceLevel::Off => Span {
            state: SpanState::Noop,
        },
        TraceLevel::Counters => {
            LOCAL.with(|l| l.borrow_mut().stats.phase_count[phase as usize] += 1);
            Span {
                state: SpanState::Counted,
            }
        }
        TraceLevel::Spans => {
            let now = Instant::now();
            LOCAL.with(|l| {
                let mut l = l.borrow_mut();
                charge_top(&mut l, now);
                l.stats.phase_count[phase as usize] += 1;
                l.stack.push(phase);
                l.last = Some(now);
            });
            Span {
                state: SpanState::Timed {
                    phase,
                    entered: now,
                },
            }
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let SpanState::Timed { phase, entered } = self.state {
            let now = Instant::now();
            LOCAL.with(|l| {
                let mut l = l.borrow_mut();
                charge_top(&mut l, now);
                // Spans are strictly nested (RAII), so the top must be us;
                // pop defensively in case a guard was leaked across a drain.
                if l.stack.last() == Some(&phase) {
                    l.stack.pop();
                }
                l.last = Some(now);
                let total = now.duration_since(entered).as_nanos() as u64;
                l.stats.span_ns.record(total);
            });
        }
    }
}

/// Records an externally-measured duration against `phase` without a
/// guard (e.g. the scheduler's queue-wait, already clocked by the
/// scheduler itself). Counts at `Counters`, counts + time at `Spans`.
pub fn record_phase(phase: Phase, d: Duration) {
    match level() {
        TraceLevel::Off => {}
        TraceLevel::Counters => {
            LOCAL.with(|l| l.borrow_mut().stats.phase_count[phase as usize] += 1);
        }
        TraceLevel::Spans => {
            LOCAL.with(|l| {
                let mut l = l.borrow_mut();
                l.stats.phase_count[phase as usize] += 1;
                l.stats.phase_ns[phase as usize] += d.as_nanos() as u64;
            });
        }
    }
}

/// Feeds one SAT query latency into the histogram (`Spans` level only —
/// the duration is measured by the solver regardless, so this adds no
/// clock reads).
pub fn record_solver_query(d: Duration) {
    if level() == TraceLevel::Spans {
        LOCAL.with(|l| {
            l.borrow_mut()
                .stats
                .solver_query_ns
                .record(d.as_nanos() as u64)
        });
    }
}

/// Records a fast-forward segment attempt at high-level PC `hlpc`.
#[inline]
pub fn ff_attempt(hlpc: u64) {
    if level() != TraceLevel::Off {
        LOCAL.with(|l| {
            l.borrow_mut()
                .stats
                .ff_sites
                .entry(hlpc)
                .or_default()
                .attempts += 1
        });
    }
}

/// Records a fast-forward attempt at `hlpc` that retired `steps`
/// concrete instructions.
#[inline]
pub fn ff_retired(hlpc: u64, steps: u64) {
    if level() != TraceLevel::Off {
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let site = l.stats.ff_sites.entry(hlpc).or_default();
            site.retired += 1;
            site.steps += steps;
            l.stats.ff_seg_len.record(steps);
        });
    }
}

/// Records the adaptive gate's current backoff interval at `hlpc` (a
/// gauge; overwrites the previous value for the site).
#[inline]
pub fn ff_backoff(hlpc: u64, backoff: u64) {
    if level() != TraceLevel::Off {
        LOCAL.with(|l| {
            l.borrow_mut()
                .stats
                .ff_sites
                .entry(hlpc)
                .or_default()
                .backoff = backoff
        });
    }
}

/// Records a mid-segment abort (tainted load / out of fuel) at `hlpc`.
#[inline]
pub fn ff_abort(hlpc: u64) {
    if level() != TraceLevel::Off {
        LOCAL.with(|l| {
            l.borrow_mut()
                .stats
                .ff_sites
                .entry(hlpc)
                .or_default()
                .aborts += 1
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The trace level is process-global; tests that flip it must not
    /// interleave.
    fn level_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let mut h = Histogram::default();
        assert_eq!(h.percentile(50), 0);
        h.record(0);
        h.record(1);
        h.record(1);
        h.record(1000);
        assert_eq!(h.count(), 4);
        // Ranks: p50 → 2nd sample (value 1, bucket 1, upper bound 1).
        assert_eq!(h.percentile(50), 1);
        // p99 → 4th sample (1000 lives in bucket 10, upper bound 1023).
        assert_eq!(h.percentile(99), 1023);
        assert_eq!(h.percentile(0), 0);
        // Bucket boundaries: 2^k lands in bucket k+1.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_sparse_roundtrip() {
        let mut h = Histogram::default();
        for v in [0u64, 5, 5, 123, 1 << 40] {
            h.record(v);
        }
        let mut h2 = Histogram::default();
        for (idx, count) in h.nonzero() {
            h2.add_bucket(idx, count);
        }
        assert_eq!(h, h2);
        h2.add_bucket(200, 7); // out-of-range buckets are ignored
        assert_eq!(h, h2);
    }

    #[test]
    fn spans_attribute_self_time() {
        let _guard = level_lock();
        set_level(TraceLevel::Spans);
        take_local();
        {
            let _outer = span(Phase::SymStep);
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = span(Phase::SolverSat);
                std::thread::sleep(Duration::from_millis(2));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        set_level(TraceLevel::Off);
        let stats = take_local();
        assert_eq!(stats.phase_count[Phase::SymStep as usize], 1);
        assert_eq!(stats.phase_count[Phase::SolverSat as usize], 1);
        let sym = stats.phase_ns[Phase::SymStep as usize];
        let sat = stats.phase_ns[Phase::SolverSat as usize];
        // Self time: the inner span's sleep must not be double counted.
        assert!(sym >= 2_000_000, "outer self time too small: {sym}");
        assert!(sat >= 1_500_000, "inner self time too small: {sat}");
        // Two span totals pooled in the histogram.
        assert_eq!(stats.span_ns.count(), 2);
        assert!(stats.busy_ns() >= sym + sat);
    }

    #[test]
    fn off_level_records_nothing() {
        let _guard = level_lock();
        set_level(TraceLevel::Off);
        take_local();
        {
            let _s = span(Phase::CorpusIo);
            ff_attempt(42);
            ff_retired(42, 100);
            ff_abort(42);
            ff_backoff(42, 8);
            record_solver_query(Duration::from_micros(10));
            record_phase(Phase::SchedWait, Duration::from_micros(10));
        }
        assert!(take_local().is_empty());
    }

    #[test]
    fn counters_level_counts_without_clocks() {
        let _guard = level_lock();
        set_level(TraceLevel::Counters);
        take_local();
        {
            let _s = span(Phase::SymStep);
            ff_attempt(7);
            ff_retired(7, 50);
        }
        record_phase(Phase::SchedWait, Duration::from_millis(5));
        set_level(TraceLevel::Off);
        let stats = take_local();
        assert_eq!(stats.phase_count[Phase::SymStep as usize], 1);
        assert_eq!(stats.phase_count[Phase::SchedWait as usize], 1);
        assert_eq!(stats.busy_ns(), 0, "counters level must not read clocks");
        let site = stats.ff_sites[&7];
        assert_eq!(site.attempts, 1);
        assert_eq!(site.retired, 1);
        assert_eq!(site.steps, 50);
        assert!(stats.span_ns.is_empty());
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = TraceStats::default();
        a.phase_count[0] = 2;
        a.phase_ns[0] = 100;
        a.ff_sites.insert(
            1,
            FfSite {
                attempts: 3,
                retired: 2,
                aborts: 1,
                steps: 500,
                backoff: 16,
            },
        );
        a.solver_query_ns.record(10);
        a.ff_seg_len.record(500);
        let mut b = TraceStats::default();
        b.phase_count[0] = 5;
        b.phase_ns[0] = 50;
        b.ff_sites.insert(
            1,
            FfSite {
                attempts: 1,
                retired: 1,
                aborts: 0,
                steps: 40,
                backoff: 4,
            },
        );
        b.ff_sites.insert(9, FfSite::default());
        b.ff_seg_len.record(40);
        a.merge(&b);
        assert_eq!(a.phase_count[0], 7);
        assert_eq!(a.phase_ns[0], 150);
        assert_eq!(a.ff_sites[&1].attempts, 4);
        assert_eq!(a.ff_sites[&1].steps, 540);
        assert_eq!(a.ff_sites[&1].backoff, 16, "backoff merges as a max gauge");
        assert_eq!(a.ff_sites.len(), 2);
        assert_eq!(a.solver_query_ns.count(), 1);
        assert_eq!(a.ff_seg_len.count(), 2);
    }

    #[test]
    fn folded_profile_shape() {
        let mut s = TraceStats::default();
        s.phase_ns[Phase::SymStep as usize] = 3_000_000;
        s.phase_ns[Phase::SolverSat as usize] = 1_000_000;
        s.ff_sites.insert(
            0x2a,
            FfSite {
                attempts: 10,
                retired: 8,
                aborts: 2,
                steps: 4_000,
                backoff: 0,
            },
        );
        let folded = s.folded();
        assert!(folded.contains("chef;sym_step 3000"));
        assert!(folded.contains("chef;solver_sat 1000"));
        assert!(folded.contains("chef;ff;hlpc_0x2a;retired 4000"));
        assert!(folded.contains("chef;ff;hlpc_0x2a;attempted 10"));
        assert!(folded.contains("chef;ff;hlpc_0x2a;aborted 2"));
        assert_eq!(s.phase_permille(Phase::SymStep), 750);
        assert!(s.summary().contains("sym_step=75.0%"));
    }

    #[test]
    fn level_parsing() {
        assert_eq!(parse_level("off"), Some(TraceLevel::Off));
        assert_eq!(parse_level("counters"), Some(TraceLevel::Counters));
        assert_eq!(parse_level("spans"), Some(TraceLevel::Spans));
        assert_eq!(parse_level("verbose"), None);
    }
}
