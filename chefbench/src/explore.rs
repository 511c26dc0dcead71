//! The three in-process exploration workloads: `fork_dense`,
//! `concrete_heavy`, and `solver_heavy`.
//!
//! Every session does fixed work — an LL budget, or exploration until the
//! tree is exhausted — with no wall-clock cap, so a slowdown shows as a
//! longer session, never as less work. A run executes whole rounds (one
//! session per target, in a seeded order with seeded engine seeds) until
//! its time is up, so every run covers the same target mix.

use std::time::Instant;

use chef_core::{
    Chef, ChefConfig, EngineStatus, Report, Snapshot, StrategyKind, TestStatus, Wire, WorkSeed,
};
use chef_lir::{ConcreteStatus, GuestEvent, Program};
use chef_minipy::{CompileError, CompiledModule, SymbolicTest};
use chef_solver::SolverStats;
use chef_symex::ExecStats;
use chef_targets::{all_packages, Package};
use chef_trace::{Phase, TraceLevel, TraceStats};

use crate::calib;
use crate::plan::Rng;
use crate::setup::{time_setup, Recipe, Setup};
use crate::stats::{self, median, Metrics, Tally};
use crate::{Figures, Mode, Options, Totals};

/// What a session must accomplish.
#[derive(Clone, Copy, Debug)]
pub enum Work {
    /// Retire exactly this many LL instructions (or exhaust the tree first).
    Budget(u64),
    /// Explore until no state is left. The value is a safety cap: reaching
    /// it fails the session.
    Exhaust(u64),
}

/// One exploration workload.
pub struct Explore {
    /// Targets of one round.
    pub targets: Vec<Target>,
    /// Per-path LL budget (the hang detector).
    pub per_path_fuel: u64,
    /// Canonical (minimum-model) test inputs.
    pub canonical_inputs: bool,
}

/// A program to explore: a Table-3 package, or one with an entry script
/// appended.
pub struct Target {
    /// Name in output lines.
    pub name: String,
    source: TargetSource,
    /// Work per session.
    pub work: Work,
    /// Exceptions every session on this target must report (§6.2).
    pub required_exceptions: &'static [&'static str],
    /// Fewest undocumented exception classes a session must report.
    pub min_undocumented: usize,
}

enum TargetSource {
    Package(Package),
    Script { source: String, test: SymbolicTest },
}

impl Target {
    /// A bundled Table-3 package, run on its own symbolic test.
    pub fn package(name: &str, work: Work) -> Target {
        let pkg = all_packages()
            .into_iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("no bundled package named {name}"));
        Target {
            name: name.to_string(),
            source: TargetSource::Package(pkg),
            work,
            required_exceptions: &[],
            min_undocumented: 0,
        }
    }

    /// A MiniPy entry script appended to a bundled package's source.
    pub fn script(name: &str, base: &str, script: &str, test: SymbolicTest, work: Work) -> Target {
        let base = Target::package(base, work);
        let TargetSource::Package(pkg) = base.source else {
            unreachable!("Target::package builds a package source")
        };
        Target {
            name: name.to_string(),
            source: TargetSource::Script {
                source: format!("{}\n{script}", pkg.source),
                test,
            },
            work,
            required_exceptions: &[],
            min_undocumented: 0,
        }
    }

    fn compile(&self) -> Result<CompiledModule, CompileError> {
        match &self.source {
            TargetSource::Package(p) => p.try_compile(),
            TargetSource::Script { source, .. } => chef_minipy::compile(source),
        }
    }

    fn test(&self) -> &SymbolicTest {
        match &self.source {
            TargetSource::Package(p) => &p.test,
            TargetSource::Script { test, .. } => test,
        }
    }

    fn undocumented(&self, report: &Report) -> Vec<String> {
        match &self.source {
            TargetSource::Package(p) => p.classify_exceptions(report).1,
            TargetSource::Script { .. } => Vec::new(),
        }
    }
}

impl Explore {
    fn chef_config(&self, target: &Target, seed: u64) -> ChefConfig {
        let max_ll_instructions = match target.work {
            Work::Budget(b) | Work::Exhaust(b) => b,
        };
        ChefConfig {
            strategy: StrategyKind::CupaPath,
            seed,
            max_ll_instructions,
            per_path_fuel: self.per_path_fuel,
            max_wall: None,
            canonical_inputs: self.canonical_inputs,
            ..ChefConfig::default()
        }
    }

    fn setup(&self) -> Result<Setup, String> {
        let recipes: Vec<Recipe> = self
            .targets
            .iter()
            .map(|t| Recipe {
                name: t.name.clone(),
                compile: Box::new(move || t.compile().map_err(|e| e.to_string())),
                test: t.test().clone(),
                config: self.chef_config(t, 0),
            })
            .collect();
        time_setup(&recipes)
    }
}

/// One planned session: which target, which engine seed.
#[derive(Clone, Copy, Debug)]
struct Planned {
    target: usize,
    seed: u64,
}

/// One round of sessions drawn from the workload seed: every target once,
/// in a seeded order, each with a seeded engine seed.
fn round(rng: &mut Rng, targets: usize) -> Vec<Planned> {
    rng.permutation(targets)
        .into_iter()
        .map(|target| Planned {
            target,
            seed: rng.below(1 << 32),
        })
        .collect()
}

/// Work counts that must repeat exactly for a given session, at every
/// trace level.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Counters {
    ll_instructions: u64,
    hl_paths: usize,
    tests: usize,
    forks: u64,
    queries: u64,
    const_hits: u64,
    cache_hits: u64,
    model_reuse_hits: u64,
    sat_calls: u64,
    unknowns: u64,
}

impl Counters {
    fn of(r: &Report) -> Counters {
        let s = &r.solver_stats;
        Counters {
            ll_instructions: r.ll_instructions,
            hl_paths: r.hl_paths,
            tests: r.tests.len(),
            forks: r.exec_stats.forks,
            queries: s.queries,
            const_hits: s.const_hits,
            cache_hits: s.cache_hits,
            model_reuse_hits: s.model_reuse_hits,
            sat_calls: s.sat_calls,
            unknowns: s.unknowns,
        }
    }
}

/// Timings the traced run takes around public calls.
#[derive(Default)]
struct Outside {
    round_ns: Vec<u64>,
    live_peak: usize,
    pending_peak: usize,
    /// Checkpoint of the final frontier plus fork-point snapshot:
    /// `(encode ns, decode ns, bytes)`.
    checkpoint: Option<(u64, u64, usize)>,
}

/// A finished session: what the metrics need of its report. The report
/// itself is dropped once checked, so a run's peak RSS measures the
/// engine rather than the reports of the sessions before it.
struct Session {
    planned: Planned,
    counters: Counters,
    ll_paths: usize,
    exec: ExecStats,
    solver: SolverStats,
    trace: TraceStats,
    dropped_states: u64,
    infeasible_paths: u64,
    seeds_exported: u64,
    seeds_imported: u64,
    /// `Chef::new` through `Chef::into_report`, excluding the traced
    /// run's checkpoint measurement.
    wall_s: f64,
    init_s: f64,
    report_s: f64,
    status: EngineStatus,
    left_over: usize,
    rounds: u64,
    outside: Outside,
    /// Machine speed read right after the session (see [`calib`]). The
    /// machine's speed changes within seconds, so each session is scaled by
    /// its own reading: one reading per round or per run left the tail
    /// spread over 20% on a noisy machine, against under 5% this way.
    speed: f64,
}

fn run_session(
    prog: &Program,
    cfg: ChefConfig,
    planned: Planned,
    traced: bool,
) -> (Session, Report) {
    let mut outside = Outside::default();
    let t0 = Instant::now();
    let mut chef = Chef::new(prog, cfg);
    let t1 = Instant::now();
    let mut rounds = 0u64;
    let status = if traced {
        loop {
            let r0 = Instant::now();
            let s = chef.step_round();
            outside.round_ns.push(r0.elapsed().as_nanos() as u64);
            rounds += 1;
            outside.live_peak = outside.live_peak.max(chef.live_count());
            outside.pending_peak = outside.pending_peak.max(chef.pending_count());
            if s != EngineStatus::Running {
                break s;
            }
        }
    } else {
        loop {
            let s = chef.step_round();
            rounds += 1;
            if s != EngineStatus::Running {
                break s;
            }
        }
    };
    let left_over = chef.live_count() + chef.pending_count();
    let t2 = Instant::now();
    if traced {
        outside.checkpoint = Some(checkpoint_round_trip(&chef));
    }
    let t3 = Instant::now();
    let mut report = chef.into_report();
    let t4 = Instant::now();
    let session = Session {
        planned,
        counters: Counters::of(&report),
        ll_paths: report.ll_paths,
        exec: report.exec_stats,
        solver: report.solver_stats,
        trace: std::mem::take(&mut report.trace),
        dropped_states: report.dropped_states,
        infeasible_paths: report.infeasible_paths,
        seeds_exported: report.seeds_exported,
        seeds_imported: report.seeds_imported,
        wall_s: ((t2 - t0) + (t4 - t3)).as_secs_f64(),
        init_s: (t1 - t0).as_secs_f64(),
        report_s: (t4 - t3).as_secs_f64(),
        status,
        left_over,
        rounds,
        outside,
        speed: 1.0,
    };
    (session, report)
}

impl Session {
    /// The session's wall time in reference seconds.
    fn reference_s(&self) -> f64 {
        self.wall_s * self.speed
    }
}

/// Encodes the engine's frontier and fork-point snapshot as wire frames
/// (what a checkpoint stores) and decodes them back.
fn checkpoint_round_trip(chef: &Chef) -> (u64, u64, usize) {
    let frontier = chef.frontier();
    let snapshot = chef.fork_snapshot();
    let t0 = Instant::now();
    let mut seeds = Vec::new();
    for seed in &frontier {
        seeds.extend_from_slice(&seed.to_frame());
    }
    let snap = snapshot.as_ref().map(|s| s.to_frame());
    let t1 = Instant::now();
    let decoded = WorkSeed::decode_stream(&seeds).map(|v| v.len());
    let snap_ok = snap.as_ref().map(|f| Snapshot::from_frame(f).is_ok());
    let t2 = Instant::now();
    assert_eq!(decoded, Ok(frontier.len()), "checkpoint frames decode");
    assert_ne!(snap_ok, Some(false), "snapshot frame decodes");
    let bytes = seeds.len() + snap.map_or(0, |f| f.len());
    (
        (t1 - t0).as_nanos() as u64,
        (t2 - t1).as_nanos() as u64,
        bytes,
    )
}

impl Explore {
    /// Checks one session's outputs, recording mismatches in `tally`.
    /// Returns per-test replay times in nanoseconds.
    fn check(
        &self,
        target: &Target,
        prog: &Program,
        s: &Session,
        report: &Report,
        tally: &mut Tally,
    ) -> Vec<u64> {
        let who = format!("{} seed {}", target.name, s.planned.seed);
        let mut problems = Vec::new();
        let ll = report.ll_instructions;
        match (target.work, s.status) {
            (Work::Budget(b), EngineStatus::Exhausted) if ll >= b => {}
            (_, EngineStatus::OutOfWork) if s.left_over == 0 => {}
            (work, status) => problems.push(format!(
                "fixed work not done: {status:?} after {ll} LL ({work:?}, {} states left)",
                s.left_over
            )),
        }
        if report.tests.is_empty() {
            problems.push("no tests generated".to_string());
        }
        let mut replay_ns = Vec::with_capacity(report.tests.len());
        for t in &report.tests {
            let r0 = Instant::now();
            let out = chef_core::replay(prog, &t.inputs, self.per_path_fuel);
            replay_ns.push(r0.elapsed().as_nanos() as u64);
            let status_ok = match (&t.status, &out.status) {
                (
                    TestStatus::Ok(c),
                    ConcreteStatus::EndedSymbolic(d) | ConcreteStatus::Halted(d),
                ) => c == d,
                (TestStatus::Ok(0), ConcreteStatus::Returned) => true,
                (TestStatus::Crash(c), ConcreteStatus::Aborted(d)) => c == d,
                (TestStatus::Hang, ConcreteStatus::OutOfFuel) => true,
                _ => false,
            };
            let exception = out.events.iter().rev().find_map(|e| match e {
                GuestEvent::Exception(n) => Some(n),
                _ => None,
            });
            if !status_ok || out.assume_violated || exception != t.exception.as_ref() {
                problems.push(format!(
                    "test {} replays as {:?} / {exception:?}, recorded {:?} / {:?}",
                    t.id, out.status, t.status, t.exception
                ));
            }
        }
        for name in target.required_exceptions {
            if !report.exceptions.contains_key(*name) {
                problems.push(format!("required exception {name} not found"));
            }
        }
        let undocumented = target.undocumented(report);
        if undocumented.len() < target.min_undocumented {
            problems.push(format!(
                "expected ≥{} undocumented exception classes, got {undocumented:?}",
                target.min_undocumented
            ));
        }
        if !problems.is_empty() {
            tally.fail(format!("{who}: {}", problems.join("; ")));
        }
        replay_ns
    }

    /// Runs whole rounds of the plan, checking each session, until the
    /// plan runs dry or — when `until` is set as `(seconds, sessions)` —
    /// that many seconds have passed and at least that many sessions ran.
    fn run_sessions(
        &self,
        setup: &Setup,
        plan: &mut dyn FnMut() -> Vec<Planned>,
        until: Option<(f64, usize)>,
        traced: bool,
        tally: &mut Tally,
    ) -> (Vec<Session>, Vec<u64>) {
        let started = Instant::now();
        let mut sessions = Vec::new();
        let mut replay_ns = Vec::new();
        loop {
            let round = plan();
            if round.is_empty() {
                break;
            }
            for p in round {
                let prog = &setup.progs[p.target];
                if traced {
                    // Discard anything recorded outside a session.
                    let _ = chef_trace::take_local();
                }
                let target = &self.targets[p.target];
                let (mut s, report) =
                    run_session(prog, self.chef_config(target, p.seed), p, traced);
                s.speed = calib::speed();
                tally.attempt();
                replay_ns.extend(self.check(target, prog, &s, &report, tally));
                sessions.push(s);
            }
            if let Some((seconds, min_sessions)) = until {
                if started.elapsed().as_secs_f64() >= seconds && sessions.len() >= min_sessions {
                    break;
                }
            }
        }
        (sessions, replay_ns)
    }

    /// Runs the workload and returns its metrics.
    pub fn run(&self, opts: &Options, tally: &mut Tally) -> Result<Metrics, String> {
        let setup = self.setup()?;
        let mut rng = Rng::new(opts.seed, "explore-plan");
        let n = self.targets.len();
        match opts.mode {
            Mode::EndToEnd => {
                let (sessions, _) = self.run_sessions(
                    &setup,
                    &mut || round(&mut rng, n),
                    Some((opts.seconds, opts.tail_samples)),
                    false,
                    tally,
                );
                // Deterministic-counter self-check: the first session again.
                let first = &sessions[0];
                let (again, _) = run_session(
                    &setup.progs[first.planned.target],
                    self.chef_config(&self.targets[first.planned.target], first.planned.seed),
                    first.planned,
                    false,
                );
                self.compare_counters(&sessions[..1], &[again], "rerun", tally);
                println!("counters: {}", digest(&sessions[0]));
                Ok(self.end_to_end(&setup, &sessions, opts.tail_samples))
            }
            Mode::Layers => {
                let (untraced, _) = self.run_sessions(
                    &setup,
                    &mut || round(&mut rng, n),
                    Some((opts.seconds / 2.0, 1)),
                    false,
                    tally,
                );
                // The same rounds again, traced (popped from the back).
                let mut replay: Vec<Vec<Planned>> = untraced
                    .chunks(self.targets.len())
                    .rev()
                    .map(|round| round.iter().map(|s| s.planned).collect())
                    .collect();
                chef_trace::set_level(TraceLevel::Spans);
                let (traced, replay_ns) = self.run_sessions(
                    &setup,
                    &mut || replay.pop().unwrap_or_default(),
                    None,
                    true,
                    tally,
                );
                chef_trace::set_level(TraceLevel::Off);
                self.compare_counters(&untraced, &traced, "traced", tally);
                println!("counters: {}", digest(&untraced[0]));
                Ok(self.layers(&setup, &untraced, &traced, &replay_ns))
            }
        }
    }

    fn compare_counters(&self, a: &[Session], b: &[Session], what: &str, tally: &mut Tally) {
        if a.len() != b.len() {
            tally.note(format!("{what}: {} sessions vs {}", a.len(), b.len()));
            return;
        }
        for (x, y) in a.iter().zip(b) {
            let (cx, cy) = (&x.counters, &y.counters);
            if cx != cy {
                tally.note(format!(
                    "{} seed {}: counters drift between untraced and {what} run: {cx:?} vs {cy:?}",
                    self.targets[x.planned.target].name, x.planned.seed
                ));
            }
        }
    }

    fn end_to_end(&self, setup: &Setup, sessions: &[Session], tail_samples: usize) -> Metrics {
        let totals = sessions.iter().fold(Totals::default(), |t, s| Totals {
            ll: t.ll + s.counters.ll_instructions as f64,
            hl_paths: t.hl_paths + s.counters.hl_paths as f64,
            tests: t.tests + s.counters.tests as f64,
            jobs: t.jobs + 1.0,
            wall_s: t.wall_s + s.reference_s(),
        });
        Figures {
            setup_s: setup.total_s,
            totals,
            latencies_s: sessions.iter().map(Session::reference_s).collect(),
            tail_samples,
        }
        .metrics()
    }

    fn layers(
        &self,
        setup: &Setup,
        untraced: &[Session],
        traced: &[Session],
        replay_ns: &[u64],
    ) -> Metrics {
        let mut m = Metrics::default();
        let mut trace = TraceStats::default();
        for s in traced {
            trace.merge(&s.trace);
        }
        let phase_s = |p: Phase| trace.phase_ns[p as usize] as f64 / 1e9;
        let sum = |f: &dyn Fn(&Session) -> f64| traced.iter().map(f).sum::<f64>();
        let wall = sum(&|s| s.wall_s);
        let ll = sum(&|s| s.counters.ll_instructions as f64);
        let us = |ns: f64| ns / 1e3;

        m.put("frontend.compile_s", setup.compile_s, "s");
        m.put("lir.build_s", setup.build_s, "s");
        m.put(
            "lir.program_insts",
            setup.progs.iter().map(|p| p.inst_count() as f64).sum(),
            "count",
        );
        let ff_attempts: u64 = trace.ff_sites.values().map(|f| f.attempts).sum();
        let segments = sum(&|s| s.exec.fast_forwards as f64);
        let aborts = sum(&|s| s.exec.ff_aborts as f64);
        m.put("lir.concrete_seg_s", phase_s(Phase::ConcreteSeg), "s");
        m.put(
            "lir.concrete_seg_share",
            phase_s(Phase::ConcreteSeg) / wall.max(1e-9),
            "ratio",
        );
        m.put(
            "lir.concrete_frac",
            sum(&|s| s.exec.concrete_ll_executed as f64) / ll.max(1.0),
            "ratio",
        );
        m.put("lir.ff_segments", segments, "count");
        m.put("lir.ff_aborts", aborts, "count");
        m.put(
            "lir.ff_skipped",
            sum(&|s| s.exec.ff_skipped as f64),
            "count",
        );
        m.put("lir.ff_attempts", ff_attempts as f64, "count");
        m.put(
            "lir.ff_useful_ratio",
            (segments - aborts) / (ff_attempts as f64).max(1.0),
            "ratio",
        );
        m.put(
            "lir.seg_len_p50",
            trace.ff_seg_len.percentile(50) as f64,
            "LL",
        );
        let replay: Vec<f64> = replay_ns.iter().map(|&n| us(n as f64)).collect();
        m.put("lir.replay_us_p50", median(&replay), "us");

        let sym_step_s = phase_s(Phase::SymStep);
        m.put("symex.sym_step_s", sym_step_s, "s");
        m.put("symex.sym_step_share", sym_step_s / wall.max(1e-9), "ratio");
        let exec =
            |f: &dyn Fn(&ExecStats) -> u64| traced.iter().map(|s| f(&s.exec) as f64).sum::<f64>();
        m.put("symex.forks", exec(&|e| e.forks), "count");
        m.put("symex.states_created", exec(&|e| e.states_created), "count");
        m.put(
            "symex.snapshots_captured",
            exec(&|e| e.snapshots_captured),
            "count",
        );
        m.put(
            "symex.snapshot_restores",
            exec(&|e| e.snapshot_restores),
            "count",
        );
        m.put(
            "symex.prologue_ll_skipped",
            exec(&|e| e.prologue_ll_skipped),
            "LL",
        );
        m.put("symex.full_replays", exec(&|e| e.full_replays), "count");
        m.put("symex.snapshot_cap_s", phase_s(Phase::SnapshotCap), "s");
        m.put(
            "symex.snapshot_restore_s",
            phase_s(Phase::SnapshotRestore),
            "s",
        );

        let init_s = sum(&|s| s.init_s);
        let report_s = sum(&|s| s.report_s);
        let rounds: Vec<f64> = traced
            .iter()
            .flat_map(|s| s.outside.round_ns.iter().map(|&n| us(n as f64)))
            .collect();
        let round_tail = stats::tail(&rounds);
        m.put("core.init_s", init_s, "s");
        m.put("core.round_us_p50", median(&rounds), "us");
        m.put(
            "core.round_us_tail",
            round_tail.map_or(0.0, |t| t.value),
            "us",
        );
        m.put("core.rounds", sum(&|s| s.rounds as f64), "count");
        m.put("core.report_s", report_s, "s");
        m.put(
            "core.live_states_peak",
            traced
                .iter()
                .map(|s| s.outside.live_peak)
                .max()
                .unwrap_or(0) as f64,
            "count",
        );
        m.put(
            "core.pending_peak",
            traced
                .iter()
                .map(|s| s.outside.pending_peak)
                .max()
                .unwrap_or(0) as f64,
            "count",
        );
        let hl = sum(&|s| s.counters.hl_paths as f64);
        let ll_paths = sum(&|s| s.ll_paths as f64);
        m.put("core.hl_paths", hl, "count");
        m.put("core.ll_instructions", ll, "LL");
        m.put(
            "core.dropped_states",
            sum(&|s| s.dropped_states as f64),
            "count",
        );
        m.put(
            "core.infeasible_paths",
            sum(&|s| s.infeasible_paths as f64),
            "count",
        );
        m.put("core.hl_per_ll_path", hl / ll_paths.max(1.0), "ratio");
        let ckpt: Vec<(u64, u64, usize)> =
            traced.iter().filter_map(|s| s.outside.checkpoint).collect();
        let col = |f: &dyn Fn(&(u64, u64, usize)) -> f64| ckpt.iter().map(f).collect::<Vec<_>>();
        m.put(
            "core.wire_encode_us",
            median(&col(&|c| us(c.0 as f64))),
            "us",
        );
        m.put(
            "core.wire_decode_us",
            median(&col(&|c| us(c.1 as f64))),
            "us",
        );
        m.put(
            "core.checkpoint_bytes",
            median(&col(&|c| c.2 as f64)),
            "bytes",
        );

        let solver =
            |f: &dyn Fn(&SolverStats) -> f64| traced.iter().map(|s| f(&s.solver)).sum::<f64>();
        let queries = solver(&|q| q.queries as f64);
        // Cache hits and SAT calls count component sub-queries.
        let cache_hits = solver(&|q| q.cache_hits as f64);
        let sat_calls = solver(&|q| q.sat_calls as f64);
        let sat_s = solver(&|q| q.sat_time.as_secs_f64());
        let blast_s = phase_s(Phase::Blast);
        let blast_hits = solver(&|q| q.blast_cache_hits as f64);
        let blast_all = blast_hits + solver(&|q| q.blast_cache_misses as f64);
        m.put("solver.queries", queries, "count");
        m.put(
            "solver.const_hits",
            solver(&|q| q.const_hits as f64),
            "count",
        );
        m.put("solver.cache_hits", cache_hits, "count");
        m.put(
            "solver.model_reuse_hits",
            solver(&|q| q.model_reuse_hits as f64),
            "count",
        );
        m.put("solver.sat_calls", sat_calls, "count");
        m.put("solver.unknowns", solver(&|q| q.unknowns as f64), "count");
        m.put(
            "solver.cache_hit_ratio",
            cache_hits / (cache_hits + sat_calls).max(1.0),
            "ratio",
        );
        m.put(
            "solver.blast_hit_rate",
            blast_hits / blast_all.max(1.0),
            "ratio",
        );
        m.put("solver.sat_s", sat_s, "s");
        m.put("solver.blast_s", blast_s, "s");
        m.put(
            "solver.time_share",
            (sat_s + blast_s) / wall.max(1e-9),
            "ratio",
        );
        m.put(
            "solver.query_us_p50",
            trace.solver_query_ns.percentile(50) as f64 / 1e3,
            "us",
        );
        m.put(
            "solver.query_us_p99",
            trace.solver_query_ns.percentile(99) as f64 / 1e3,
            "us",
        );

        m.put("fleet.slices", 0.0, "count");
        m.put(
            "fleet.seeds_exported",
            sum(&|s| s.seeds_exported as f64),
            "count",
        );
        m.put(
            "fleet.seeds_imported",
            sum(&|s| s.seeds_imported as f64),
            "count",
        );

        // Both runs in reference seconds, so machine noise between them
        // does not read as tracing cost.
        let reference = |v: &[Session]| v.iter().map(Session::reference_s).sum::<f64>();
        let attributed = trace.phase_ns.iter().sum::<u64>() as f64 / 1e9 + init_s + report_s;
        m.put("trace.unattributed_s", wall - attributed, "s");
        m.put(
            "trace.overhead_frac",
            reference(traced) / reference(untraced).max(1e-9) - 1.0,
            "ratio",
        );
        m
    }
}

/// The deterministic counters of a session, printed so runs with the same
/// workload seed can be compared across processes.
fn digest(s: &Session) -> String {
    let c = &s.counters;
    format!(
        "seed={} ll={} hl_paths={} tests={} forks={} queries={} const={} cache={} reuse={} sat={} unknown={}",
        s.planned.seed,
        c.ll_instructions,
        c.hl_paths,
        c.tests,
        c.forks,
        c.queries,
        c.const_hits,
        c.cache_hits,
        c.model_reuse_hits,
        c.sat_calls,
        c.unknowns
    )
}

/// `fork_dense`: Table-3 parsers, each at its own fixed LL budget.
pub fn fork_dense(budgets: &[(&str, u64)]) -> Explore {
    Explore {
        targets: budgets
            .iter()
            .map(|&(name, budget)| Target::package(name, Work::Budget(budget)))
            .collect(),
        per_path_fuel: 150_000,
        canonical_inputs: false,
    }
}

/// `concrete_heavy`: every path branches on a one-byte symbolic tag, then
/// parses a long concrete document `reps` times before parsing the tag.
pub fn concrete_heavy(reps: u32) -> Explore {
    let script = format!(
        r#"
def drive(tag):
    c = tag[0]
    if c == "{{":
        doc = "{{\"menu\": {{\"id\": 17, \"items\": [1, -25, \"three\", {{\"k\": \"v\"}}, [true, false, null]], \"label\": \"a \\\"quoted\\\" string\"}}}}"
    elif c == "[":
        doc = "[10, 20, 30, 40, 50, 60, 70, 80, {{\"a\": [1, 2, 3]}}, \"tail\", true]"
    elif c == "t":
        doc = "{{\"counts\": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12], \"ok\": false}}"
    else:
        doc = "\"a plain string with \\\"escapes\\\" and some length to it\""
    k = 0
    while k < {reps}:
        r = loads(doc)
        k = k + 1
    return loads(tag)
"#
    );
    Explore {
        targets: vec![Target::script(
            "simplejson_doc_loop",
            "simplejson",
            &script,
            SymbolicTest::new("drive").sym_str("tag", 1),
            Work::Exhaust(200_000_000),
        )],
        per_path_fuel: 50_000_000,
        canonical_inputs: false,
    }
}

/// `solver_heavy`: xlrd on an `xls_len`-byte symbolic spreadsheet,
/// explored to exhaustion with canonical inputs; every session must raise
/// xlrd's undocumented exceptions, `BadZipfile` among them (§6.2).
pub fn solver_heavy(xls_len: usize) -> Explore {
    let mut xlrd = Target::package("xlrd", Work::Exhaust(50_000_000));
    if let TargetSource::Package(p) = &mut xlrd.source {
        p.test = SymbolicTest::new("open_workbook").sym_str("xls", xls_len);
    }
    xlrd.required_exceptions = &["BadZipfile"];
    xlrd.min_undocumented = 2;
    Explore {
        targets: vec![xlrd],
        per_path_fuel: 150_000,
        canonical_inputs: true,
    }
}
