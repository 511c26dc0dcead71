//! # chef-fleet — parallel, work-sharing symbolic execution
//!
//! Runs one Chef exploration across N worker threads. A worker owns a full
//! engine stack ([`chef_core::Chef`] with its own expression pool, solver,
//! and high-level tree), because expression ids and solver caches are only
//! valid within one pool — states cannot migrate directly. What migrates
//! instead is a [`WorkSeed`]: the recorded sequence of nondeterministic
//! decisions from the program root (see [`chef_symex::State::trace`]),
//! paired with a reference to the fleet's shared fork-point [`Snapshot`].
//! A receiving worker restores the snapshot — skipping the interpreter
//! prologue — and replays only the post-snapshot decision suffix (full
//! prefix replay remains the fallback when no snapshot exists). The
//! snapshot ships once per fleet: the first worker to execute
//! `make_symbolic` captures it, and every seed thereafter carries an
//! `Arc` to the same image. This is the Cloud9-style job shipping the
//! Chef authors used to scale out, with the paper's fork-point snapshot
//! discipline on top: ship the path *and* the snapshot, never the
//! prologue.
//!
//! The coordinator provides:
//!
//! - a shared injector queue seeded with the root job; idle workers steal
//!   exported fork prefixes from busy ones (work stealing),
//! - global deduplication of generated test cases by canonical input
//!   bytes, so the merged suite equals a single-threaded run's,
//! - merged coverage, timelines, and per-worker executor/solver statistics
//!   ([`FleetReport`]),
//! - a portfolio mode running a different [`StrategyKind`] on each worker
//!   against a shared coverage map (workers exchange high-level CFG edges,
//!   sharpening each other's §3.4 weights).
//!
//! # Examples
//!
//! A fleet of four workers generates exactly the test suite of a
//! single-threaded run, deduplicated across workers:
//!
//! ```
//! use chef_core::ChefConfig;
//! use chef_fleet::{run_fleet, FleetConfig};
//! use chef_minipy::{build_program, compile, InterpreterOptions, SymbolicTest};
//!
//! let src = "def f(s):\n    if s == \"ok\":\n        return 1\n    return 0\n";
//! let module = compile(src)?;
//! let test = SymbolicTest::new("f").sym_str("s", 2);
//! let prog = build_program(&module, &InterpreterOptions::all(), &test)?;
//!
//! let config = FleetConfig { jobs: 4, base: ChefConfig::default(), ..Default::default() };
//! let report = run_fleet(&prog, config);
//! assert!(report.tests.iter().any(|t| t.inputs["s"] == b"ok"));
//! assert_eq!(report.per_worker.len(), 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use chef_core::{
    Chef, ChefConfig, EngineStatus, Report, Snapshot, StrategyKind, TestCase, WorkSeed,
};
use chef_lir::Program;
use chef_solver::SolverStats;
use chef_symex::ExecStats;

/// Configuration of a fleet exploration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of worker threads.
    pub jobs: usize,
    /// Per-worker engine configuration. `max_ll_instructions` and
    /// `max_tests` are treated as *fleet-wide* budgets (matching the
    /// single-engine semantics; the merged, deduplicated suite is capped
    /// at `max_tests`); the RNG seed is diversified per worker.
    pub base: ChefConfig,
    /// Portfolio mode: run these strategies round-robin across workers
    /// (worker `i` gets `portfolio[i % len]`) against a shared coverage
    /// map. `None` runs `base.strategy` everywhere.
    pub portfolio: Option<Vec<StrategyKind>>,
    /// Maximum seeds a busy worker exports per sharing opportunity.
    pub steal_batch: usize,
    /// Low-level instructions between coverage-map synchronizations
    /// (portfolio mode only).
    pub sync_interval_ll: u64,
    /// High-level CFG edges every worker absorbs before exploring —
    /// `chef-serve`'s corpus warm start: edges recovered by concretely
    /// replaying stored tests pre-populate the §3.4 coverage weights.
    pub seed_cfg_edges: Vec<(u64, u64, u64)>,
    /// Learned fast-forward site table every worker absorbs before
    /// exploring — the adaptive gate's warm start, so a resumed serve
    /// session does not re-pay the discovery cost of cold regions.
    pub seed_ff_sites: chef_symex::FfSiteTable,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            jobs: 1,
            base: ChefConfig::default(),
            portfolio: None,
            steal_batch: 4,
            sync_interval_ll: 25_000,
            seed_cfg_edges: Vec::new(),
            seed_ff_sites: Vec::new(),
        }
    }
}

/// External control surface of a resumable fleet run (see
/// [`run_fleet_with`]): a pause request flag plus live progress gauges a
/// monitoring thread (the `chef-serve` status endpoint) can read without
/// touching the workers.
#[derive(Debug, Default)]
pub struct FleetControl {
    pause: AtomicBool,
    /// Fleet-wide low-level instructions executed so far (gauge).
    pub ll_instructions: AtomicU64,
    /// Fleet-wide test cases generated so far, pre-deduplication (gauge).
    pub tests_generated: AtomicUsize,
}

impl FleetControl {
    /// Creates a control block with no pause requested.
    pub fn new() -> Self {
        Self::default()
    }

    /// Asks the fleet to stop at the next scheduling round and export its
    /// remaining frontier instead of finishing the exploration.
    pub fn request_pause(&self) {
        self.pause.store(true, Ordering::SeqCst);
    }

    /// Whether a pause has been requested.
    pub fn pause_requested(&self) -> bool {
        self.pause.load(Ordering::SeqCst)
    }

    /// Clears a previous pause request, so the control block can drive the
    /// resumed continuation of the same session.
    pub fn clear_pause(&self) {
        self.pause.store(false, Ordering::SeqCst);
    }
}

/// Outcome of a resumable fleet run: the merged report plus whatever work
/// was left unexplored when the run stopped.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Merged, deduplicated results of the explored part.
    pub report: FleetReport,
    /// The unexplored frontier as portable seeds — empty iff the
    /// exploration ran to natural completion. Re-running with these seeds
    /// continues exactly where this run stopped; serialized (via
    /// `chef_core::wire`) they are a session checkpoint.
    pub frontier: Vec<chef_core::WorkSeed>,
    /// Whether the run stopped because of a pause request (as opposed to
    /// exhausting a budget or completing).
    pub paused: bool,
    /// The fleet's shared fork-point snapshot, if any worker reached
    /// `make_symbolic`. `chef-serve` persists it once per corpus target so
    /// checkpoint resume restores from instruction ~N instead of 0; the
    /// frontier seeds reference it by fingerprint.
    pub snapshot: Option<Arc<Snapshot>>,
}

impl FleetConfig {
    /// The default strategy portfolio: the paper's two CUPA instantiations
    /// plus the random baseline and DFS, round-robin across workers.
    pub fn default_portfolio() -> Vec<StrategyKind> {
        vec![
            StrategyKind::CupaPath,
            StrategyKind::CupaCoverage,
            StrategyKind::Random,
            StrategyKind::Dfs,
        ]
    }
}

/// Merged outcome of a fleet exploration.
#[derive(Debug)]
pub struct FleetReport {
    /// Deduplicated test cases (by canonical input bytes), in a
    /// deterministic order, with ids and `new_hl_path` reassigned.
    pub tests: Vec<TestCase>,
    /// Tests discarded as duplicates of another worker's.
    pub duplicates: usize,
    /// Distinct high-level paths across the fleet (by path signature).
    pub hl_paths: usize,
    /// Low-level paths terminated across the fleet (duplicates included).
    pub ll_paths: usize,
    /// Union of covered high-level locations.
    pub covered_hlpcs: HashSet<u64>,
    /// Summed executor counters.
    pub exec_stats: ExecStats,
    /// Summed solver counters (including SAT time, for attributing fleet
    /// time to solving vs. interpretation).
    pub solver_stats: SolverStats,
    /// Exception class name → count over deduplicated tests.
    pub exceptions: BTreeMap<String, usize>,
    /// Hang tests after deduplication.
    pub hangs: usize,
    /// Crash tests after deduplication.
    pub crashes: usize,
    /// Wall-clock duration of the whole fleet session.
    pub elapsed: Duration,
    /// Number of workers.
    pub jobs: usize,
    /// Work seeds shipped between workers.
    pub seeds_shipped: u64,
    /// Each worker's full single-engine report (per-worker `ExecStats`,
    /// `SolverStats`, strategy, and timeline).
    pub per_worker: Vec<Report>,
    /// Merged phase time attribution and fast-forward profile across all
    /// workers (empty unless a `chef_trace` level is enabled).
    pub trace: chef_trace::TraceStats,
    /// The adaptive fast-forward gate's learned site tables, merged across
    /// workers in worker-index order (so the result is deterministic) and
    /// sorted by HL PC. Feed it back via [`FleetConfig::seed_ff_sites`].
    pub ff_sites: chef_symex::FfSiteTable,
}

impl FleetReport {
    /// Low-level paths terminated per second of fleet wall clock.
    pub fn paths_per_sec(&self) -> f64 {
        self.ll_paths as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Deduplicated tests generated per second of fleet wall clock.
    pub fn tests_per_sec(&self) -> f64 {
        self.tests.len() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Ratio of summed SAT-backend time to *fleet wall clock*, raw. With
    /// several workers solving concurrently this legitimately exceeds 1.0
    /// (more solver-seconds than wall-seconds) — that oversubscription is
    /// the signal, so it is not clamped away. Divide by
    /// [`FleetReport::wall_utilization`] × `jobs` for a per-worker share.
    pub fn sat_share(&self) -> f64 {
        let wall = self.elapsed.as_secs_f64();
        if wall <= 0.0 {
            0.0
        } else {
            self.solver_stats.sat_time.as_secs_f64() / wall
        }
    }

    /// Worker-seconds actually burned per available worker-second:
    /// `sum(worker elapsed) / (fleet elapsed × jobs)`, in `[0, 1]` up to
    /// clock skew. Low utilization means workers idled (starved injector,
    /// early exhaustion); it is the denominator that makes an
    /// oversubscribed [`FleetReport::sat_share`] interpretable.
    pub fn wall_utilization(&self) -> f64 {
        let capacity = self.elapsed.as_secs_f64() * self.jobs.max(1) as f64;
        if capacity <= 0.0 {
            return 0.0;
        }
        let burned: f64 = self
            .per_worker
            .iter()
            .map(|r| r.elapsed.as_secs_f64())
            .sum();
        burned / capacity
    }
}

struct Injector {
    seeds: VecDeque<WorkSeed>,
    idle: usize,
}

struct Shared {
    injector: Mutex<Injector>,
    cv: Condvar,
    /// Mirror of `Injector::idle` readable without the lock; busy workers
    /// use it to decide when to export seeds.
    waiting: AtomicUsize,
    done: AtomicBool,
    paused: AtomicBool,
    ll_total: AtomicU64,
    tests_total: AtomicUsize,
    cfg_edges: Mutex<HashSet<(u64, u64, u64)>>,
}

impl Shared {
    fn finish(&self) {
        self.done.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }
}

/// Runs a fleet exploration of `prog` and merges the results.
///
/// With `jobs = 1` this is behaviorally identical to
/// [`Chef::run`](chef_core::Chef::run) on the same configuration (the
/// single worker steals the root seed and explores everything).
pub fn run_fleet(prog: &Program, config: FleetConfig) -> FleetReport {
    run_fleet_with(prog, config, vec![WorkSeed::root()], None).report
}

/// Runs a resumable fleet exploration: the initial work is `seeds`
/// (typically `[WorkSeed::root()]` for a fresh run, or a checkpointed
/// frontier for a resumed one), and an optional [`FleetControl`] can pause
/// the run. Whatever remains unexplored when the run stops — because of a
/// pause request or an exhausted budget — comes back as
/// [`FleetOutcome::frontier`]; feeding it to another `run_fleet_with` call
/// continues the exploration, and the union of the runs' deduplicated
/// tests equals what one uninterrupted run would have generated.
/// Runs exactly one scheduler slice of an exploration: at most `slice_ll`
/// low-level instructions over `seeds`, returning the outcome with the
/// unexplored remainder as the frontier. This is the dispatch granularity
/// of `chef-serve`'s shared worker pool — a pool worker runs one slice of
/// one session, checkpoints the frontier, and requeues the session behind
/// its fair-share peers; the slice budget overrides whatever total budget
/// `config.base` carries (the *caller* accounts the session's cumulative
/// spend across slices).
pub fn run_fleet_slice(
    prog: &Program,
    mut config: FleetConfig,
    seeds: Vec<WorkSeed>,
    ctl: Option<&FleetControl>,
    slice_ll: u64,
) -> FleetOutcome {
    config.base.max_ll_instructions = slice_ll.max(1);
    run_fleet_with(prog, config, seeds, ctl)
}

pub fn run_fleet_with(
    prog: &Program,
    config: FleetConfig,
    seeds: Vec<WorkSeed>,
    ctl: Option<&FleetControl>,
) -> FleetOutcome {
    let started = Instant::now();
    let jobs = config.jobs.max(1);
    // Initial seeds are handed to workers in contiguous sorted chunks and
    // injected as a group (`Chef::inject_frontier`), so seeds sharing a
    // decision prefix replay it once instead of once each — the dominant
    // cost of resuming a deep checkpointed frontier. The injector starts
    // empty and only carries stolen work.
    let mut seeds = seeds;
    seeds.sort_by(|a, b| a.choices.cmp(&b.choices));
    let chunk = seeds.len().div_ceil(jobs).max(1);
    let mut initial: Vec<Vec<WorkSeed>> = seeds.chunks(chunk).map(<[WorkSeed]>::to_vec).collect();
    initial.resize(jobs, Vec::new());
    let shared = Shared {
        injector: Mutex::new(Injector {
            seeds: VecDeque::new(),
            idle: 0,
        }),
        cv: Condvar::new(),
        waiting: AtomicUsize::new(0),
        done: AtomicBool::new(false),
        paused: AtomicBool::new(false),
        ll_total: AtomicU64::new(0),
        tests_total: AtomicUsize::new(0),
        cfg_edges: Mutex::new(HashSet::new()),
    };
    // Worker 0 runs on the calling thread and only workers 1.. get threads
    // of their own, so a single-worker fleet (every daemon slice) spawns
    // nothing: a thread per slice made a long-lived daemon's heap grow
    // with the slices it ran. The caller's own trace stats are set aside
    // meanwhile, so the report holds only the fleet's.
    let caller_trace = chef_trace::take_local();
    let results: Vec<(Report, Vec<WorkSeed>, Option<Arc<Snapshot>>)> = std::thread::scope(|s| {
        let mut initial = initial.into_iter();
        let first = initial.next().unwrap_or_default();
        let handles: Vec<_> = initial
            .enumerate()
            .map(|(i, mine)| {
                let shared = &shared;
                let config = &config;
                s.spawn(move || worker(i + 1, prog, config, jobs, mine, shared, ctl))
            })
            .collect();
        // Worker index order, so the merge is deterministic regardless of
        // thread scheduling.
        let mut results = vec![worker(0, prog, &config, jobs, first, &shared, ctl)];
        results.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked")),
        );
        results
    });
    chef_trace::restore_local(caller_trace);
    let mut frontier: Vec<WorkSeed> = Vec::new();
    let mut reports = Vec::with_capacity(results.len());
    // All workers capture the same deterministic fork-point image; keep
    // the first (identical fingerprints — the snapshot is shared content,
    // not per-worker state).
    let mut snapshot: Option<Arc<Snapshot>> = None;
    for (report, worker_frontier, worker_snap) in results {
        frontier.extend(worker_frontier);
        reports.push(report);
        if snapshot.is_none() {
            snapshot = worker_snap;
        }
    }
    // Seeds still queued in the injector are unexplored work too.
    frontier.extend(shared.injector.into_inner().unwrap().seeds);
    if let Some(sn) = &snapshot {
        // A queued seed exported before the capture (or the root seed a
        // resume passed in) may lack the reference; attach where it fits.
        for seed in &mut frontier {
            if seed.snapshot.is_none() {
                seed.attach_snapshot(sn);
            }
        }
    }
    frontier.sort_by(|a, b| a.choices.cmp(&b.choices));
    frontier.dedup();
    FleetOutcome {
        report: merge(reports, jobs, config.base.max_tests, started.elapsed()),
        frontier,
        paused: shared.paused.into_inner(),
        snapshot,
    }
}

fn worker(
    w: usize,
    prog: &Program,
    config: &FleetConfig,
    jobs: usize,
    mine: Vec<WorkSeed>,
    shared: &Shared,
    ctl: Option<&FleetControl>,
) -> (Report, Vec<WorkSeed>, Option<Arc<Snapshot>>) {
    let mut cfg = config.base.clone();
    // Diversify per-worker RNG streams; budgets are enforced fleet-wide.
    cfg.seed = cfg
        .seed
        .wrapping_add((w as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let max_tests = cfg.max_tests.take();
    let share_coverage = config.portfolio.is_some();
    if let Some(portfolio) = &config.portfolio {
        if !portfolio.is_empty() {
            cfg.strategy = portfolio[w % portfolio.len()];
        }
    }
    let budget = cfg.max_ll_instructions;
    let mut chef = Chef::from_seeds(prog, cfg, &mine);
    if !config.seed_cfg_edges.is_empty() {
        chef.absorb_cfg_edges(config.seed_cfg_edges.iter().copied());
    }
    if !config.seed_ff_sites.is_empty() {
        chef.absorb_ff_sites(config.seed_ff_sites.iter().copied());
    }
    let mut last_ll = 0u64;
    let mut last_tests = 0usize;
    let mut last_cov_sync = 0u64;
    let mut known_edges: HashSet<(u64, u64, u64)> = HashSet::new();
    'work: loop {
        if shared.done.load(Ordering::SeqCst) {
            break;
        }
        if ctl.is_some_and(|c| c.pause_requested()) {
            shared.paused.store(true, Ordering::SeqCst);
            shared.finish();
            break;
        }
        match chef.step_round() {
            EngineStatus::Running => {
                let ll = chef.ll_instructions();
                let delta = ll - last_ll;
                last_ll = ll;
                let total = shared.ll_total.fetch_add(delta, Ordering::SeqCst) + delta;
                if total >= budget {
                    shared.finish();
                    break;
                }
                let tests = chef.tests_generated();
                if tests > last_tests {
                    let delta_t = tests - last_tests;
                    last_tests = tests;
                    let t = shared.tests_total.fetch_add(delta_t, Ordering::SeqCst) + delta_t;
                    if max_tests.is_some_and(|m| t >= m) {
                        shared.finish();
                        break;
                    }
                }
                if let Some(ctl) = ctl {
                    ctl.ll_instructions.store(total, Ordering::Relaxed);
                    ctl.tests_generated.store(
                        shared.tests_total.load(Ordering::Relaxed),
                        Ordering::Relaxed,
                    );
                }
                // Work sharing: feed idle workers from our fork frontier
                // (queued-but-unactivated seeds ship first — they cost
                // nothing to hand off).
                if shared.waiting.load(Ordering::SeqCst) > 0
                    && chef.live_count() + chef.pending_count() > 1
                {
                    let seeds = chef.export_work(config.steal_batch);
                    if !seeds.is_empty() {
                        let mut inj = shared.injector.lock().unwrap();
                        inj.seeds.extend(seeds);
                        drop(inj);
                        shared.cv.notify_all();
                    }
                }
                if share_coverage && ll - last_cov_sync >= config.sync_interval_ll {
                    last_cov_sync = ll;
                    sync_coverage(&mut chef, &mut known_edges, shared);
                }
            }
            EngineStatus::Exhausted => {
                // Budgets are fleet-wide: one exhausted worker ends the run.
                shared.finish();
                break;
            }
            EngineStatus::OutOfWork => {
                let mut inj = shared.injector.lock().unwrap();
                loop {
                    if shared.done.load(Ordering::SeqCst) {
                        break 'work;
                    }
                    if let Some(seed) = inj.seeds.pop_front() {
                        drop(inj);
                        chef.inject_seed(&seed);
                        continue 'work;
                    }
                    inj.idle += 1;
                    shared.waiting.store(inj.idle, Ordering::SeqCst);
                    if inj.idle == jobs {
                        // Everyone idle over an empty queue: exploration
                        // is complete.
                        shared.finish();
                        break 'work;
                    }
                    // Timed wait as a lost-wakeup safety net.
                    let (guard, _) = shared
                        .cv
                        .wait_timeout(inj, Duration::from_millis(50))
                        .unwrap();
                    inj = guard;
                    inj.idle -= 1;
                    shared.waiting.store(inj.idle, Ordering::SeqCst);
                }
            }
        }
    }
    if share_coverage {
        sync_coverage(&mut chef, &mut known_edges, shared);
    }
    // Whatever is still live was never explored: hand it back as the
    // worker's share of the resumable frontier (empty on natural
    // completion, since completion requires every live list to drain).
    let frontier = chef.drain_frontier();
    let snapshot = chef.fork_snapshot();
    (chef.into_report(), frontier, snapshot)
}

/// Two-way exchange with the shared coverage map: publish locally observed
/// CFG edges, absorb everyone else's.
fn sync_coverage(chef: &mut Chef, known: &mut HashSet<(u64, u64, u64)>, shared: &Shared) {
    let mine: Vec<(u64, u64, u64)> = chef
        .hl_cfg()
        .edges()
        .filter(|e| !known.contains(e))
        .collect();
    let mut global = shared.cfg_edges.lock().unwrap();
    for &e in &mine {
        known.insert(e);
        global.insert(e);
    }
    let fresh: Vec<(u64, u64, u64)> = global
        .iter()
        .filter(|e| !known.contains(*e))
        .copied()
        .collect();
    drop(global);
    for &e in &fresh {
        known.insert(e);
    }
    chef.absorb_cfg_edges(fresh);
}

fn merge(
    mut reports: Vec<Report>,
    jobs: usize,
    max_tests: Option<usize>,
    elapsed: Duration,
) -> FleetReport {
    let mut all: Vec<TestCase> = Vec::new();
    let mut exec_stats = ExecStats::default();
    let mut solver_stats = SolverStats::default();
    let mut covered: HashSet<u64> = HashSet::new();
    let mut ll_paths = 0usize;
    let mut seeds_shipped = 0u64;
    let mut trace = chef_trace::TraceStats::default();
    let mut ff_sites: std::collections::BTreeMap<u64, chef_symex::FfSiteState> =
        std::collections::BTreeMap::new();
    for r in reports.iter_mut() {
        all.extend(r.tests.iter().cloned());
        add_exec_stats(&mut exec_stats, &r.exec_stats);
        add_solver_stats(&mut solver_stats, &r.solver_stats);
        trace.merge(&r.trace);
        covered.extend(r.covered_hlpcs.iter().copied());
        ll_paths += r.ll_paths;
        seeds_shipped += r.seeds_exported;
        // Reports arrive in worker-index order, so the absorb sequence —
        // and with it the merged table — is deterministic.
        for &(pc, site) in &r.ff_sites {
            match ff_sites.entry(pc) {
                std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().absorb(&site),
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(site);
                }
            }
        }
    }
    // Deterministic order, then dedup by canonical input bytes.
    all.sort_by_cached_key(|t| (t.canonical_key(), t.hl_sig));
    let mut seen_inputs: HashSet<Vec<(String, Vec<u8>)>> = HashSet::new();
    let mut seen_sigs: HashSet<u64> = HashSet::new();
    let mut tests: Vec<TestCase> = Vec::new();
    let mut duplicates = 0usize;
    let mut exceptions: BTreeMap<String, usize> = BTreeMap::new();
    let mut hangs = 0usize;
    let mut crashes = 0usize;
    for mut t in all {
        // Workers stop soon after the shared test counter passes the cap,
        // but rounds in flight can overshoot it; the merge enforces the
        // single-engine semantics on the deduplicated suite.
        if max_tests.is_some_and(|m| tests.len() >= m) {
            break;
        }
        if !seen_inputs.insert(t.canonical_key()) {
            duplicates += 1;
            continue;
        }
        t.id = tests.len();
        t.new_hl_path = seen_sigs.insert(t.hl_sig);
        match &t.status {
            chef_core::TestStatus::Hang => hangs += 1,
            chef_core::TestStatus::Crash(_) => crashes += 1,
            chef_core::TestStatus::Ok(_) => {}
        }
        if let Some(e) = &t.exception {
            *exceptions.entry(e.clone()).or_insert(0) += 1;
        }
        tests.push(t);
    }
    FleetReport {
        tests,
        duplicates,
        hl_paths: seen_sigs.len(),
        ll_paths,
        covered_hlpcs: covered,
        exec_stats,
        solver_stats,
        exceptions,
        hangs,
        crashes,
        elapsed,
        jobs,
        seeds_shipped,
        per_worker: reports,
        trace,
        ff_sites: ff_sites.into_iter().collect(),
    }
}

fn add_exec_stats(acc: &mut ExecStats, s: &ExecStats) {
    acc.ll_instructions += s.ll_instructions;
    acc.forks += s.forks;
    acc.symptr_forks += s.symptr_forks;
    acc.dropped_ptr_values += s.dropped_ptr_values;
    acc.states_created += s.states_created;
    acc.snapshots_captured += s.snapshots_captured;
    acc.snapshot_restores += s.snapshot_restores;
    acc.prologue_ll_skipped += s.prologue_ll_skipped;
    acc.full_replays += s.full_replays;
    acc.concrete_ll_executed += s.concrete_ll_executed;
    acc.fast_forwards += s.fast_forwards;
    acc.ff_aborts += s.ff_aborts;
    acc.ff_skipped += s.ff_skipped;
}

fn add_solver_stats(acc: &mut SolverStats, s: &SolverStats) {
    acc.queries += s.queries;
    acc.cache_hits += s.cache_hits;
    acc.cache_evictions += s.cache_evictions;
    acc.model_reuse_hits += s.model_reuse_hits;
    acc.const_hits += s.const_hits;
    acc.sat_calls += s.sat_calls;
    acc.assumption_solves += s.assumption_solves;
    acc.blast_cache_hits += s.blast_cache_hits;
    acc.blast_cache_misses += s.blast_cache_misses;
    acc.clauses_deleted += s.clauses_deleted;
    acc.guards_recycled += s.guards_recycled;
    acc.components += s.components;
    acc.unknowns += s.unknowns;
    acc.sat_time += s.sat_time;
}
