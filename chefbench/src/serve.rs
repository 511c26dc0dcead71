//! `serve_sessions`: an in-process `chef-serve` daemon on loopback, driven
//! as a closed loop by [`CLIENTS`] clients that each wait for their job to
//! settle before taking the next one.
//!
//! The job mix repeats in cycles of eight, ordered by the workload seed:
//! four fresh jobs, each under a corpus key of its own (corpus writes),
//! two resubmits of earlier fresh targets (warm-start reads and `results`
//! paging), one job paused mid-run and then resumed (checkpoint, snapshot
//! restore, frontier inject), and that job's fresh twin — the same program
//! under another corpus key, explored uninterrupted — which
//! `resume_fresh_ratio` compares it against. Every job explores its target
//! to exhaustion.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use chef_core::{Chef, EngineStatus};
use chef_serve::{json::Value, Client, JobLang, JobSpec, ServeConfig, ServeError, Server};
use chef_trace::TraceLevel;

use crate::plan::Rng;
use crate::setup::{time_setup, Recipe, Setup};
use crate::stats::{median, Metrics, Tally};
use crate::{Figures, Mode, Options, Totals};

/// Closed-loop clients (one per core of the reference machine).
const CLIENTS: usize = 2;

/// Daemon pool workers. One, so the worker has a core to itself and the
/// clients and connection threads share the other; with two workers the
/// protocol's round trips queued behind exploration for CPU time.
const WORKERS: usize = 1;

/// LL instructions per daemon slice (checkpoint and preemption
/// granularity).
const SLICE_LL: u64 = 20_000;

/// Per-job exploration cap; every job's tree is exhausted well before it.
const JOB_BUDGET: u64 = 4_000_000;

/// Status polling interval while a client waits for its job: the cadence
/// of the daemon's own client, `Client::wait_settled`.
const POLL: Duration = Duration::from_millis(20);

/// A job gets this long to settle before it counts as failed.
const JOB_DEADLINE: Duration = Duration::from_secs(60);

#[derive(Clone, Debug)]
enum Kind {
    /// A target no earlier job used.
    Fresh,
    /// The target of an earlier fresh job, already in (or entering) the
    /// corpus.
    Resubmit,
    /// Paused once its session has retired `pause_at` LL instructions,
    /// then resumed.
    PauseResume { pause_at: u64 },
    /// The pause-resume target of the same cycle under another corpus key.
    Twin,
}

#[derive(Clone, Debug)]
struct Job {
    index: usize,
    cycle: usize,
    kind: Kind,
    spec: JobSpec,
}

/// Distinct programs jobs draw from. Every job still gets a corpus key of
/// its own through its key tag.
const PROGRAMS: u64 = 8;

/// Marks the end of a job's program. What follows is a comment that gives
/// the job a corpus key of its own without changing the program.
const KEY_TAG: &str = "\n# key ";

/// A job's program: a counting loop over five symbolic bytes ahead of a
/// two-level dispatch, with branch constants drawn from `rng`. Exhausting
/// it takes about a dozen slices, so the engine rather than the protocol
/// dominates a job, and a pause lands mid-run.
fn source(rng: &mut Rng, tag: &str) -> String {
    let letter = |rng: &mut Rng| (b'A' + rng.below(26) as u8) as char;
    let (a, b, c, d) = (letter(rng), letter(rng), letter(rng), letter(rng));
    format!(
        r#"
def parse(msg):
    n = 0
    i = 0
    while i < 5:
        if msg[i] == "{d}":
            n = n + 1
        i = i + 1
    kind = msg[0]
    if kind == "{a}":
        if msg[1] == "{b}":
            return 7
        return 3
    if kind == "{c}":
        if msg[1] == msg[2]:
            return 8
        return 5
    return n
"#
    ) + KEY_TAG
        + tag
        + "\n"
}

/// A job exploring program number `program` under corpus key `tag`.
fn spec(program: u64, tag: &str) -> JobSpec {
    let mut s = JobSpec::new(
        JobLang::Python,
        source(&mut Rng::new(program, "program"), tag),
        "parse",
    )
    .sym_str("msg", 5);
    s.budget = JOB_BUDGET;
    s
}

/// The seeded job sequence, generated a cycle at a time.
struct Plan {
    rng: Rng,
    jobs: Vec<Job>,
    fresh: Vec<usize>,
    next: usize,
}

impl Plan {
    fn new(seed: u64) -> Plan {
        Plan {
            rng: Rng::new(seed, "serve-plan"),
            jobs: Vec::new(),
            fresh: Vec::new(),
            next: 0,
        }
    }

    /// The next job, extending the plan by a cycle when needed.
    fn next_job(&mut self) -> Job {
        while self.next >= self.jobs.len() {
            self.extend();
        }
        self.next += 1;
        self.jobs[self.next - 1].clone()
    }

    fn extend(&mut self) {
        const CYCLE: [u8; 8] = [b'F', b'F', b'F', b'F', b'R', b'R', b'P', b'T'];
        let cycle = self.jobs.len() / CYCLE.len();
        let order = self.rng.permutation(CYCLE.len());
        let twin_program = self.rng.below(PROGRAMS);
        let pause_at = SLICE_LL * (2 + self.rng.below(4));
        for &slot in &order {
            let index = self.jobs.len();
            let mut kind = CYCLE[slot];
            // A resubmit needs an earlier fresh target.
            if kind == b'R' && self.fresh.is_empty() {
                kind = b'F';
            }
            let job = match kind {
                b'F' => {
                    self.fresh.push(index);
                    let program = self.rng.below(PROGRAMS);
                    Job {
                        index,
                        cycle,
                        kind: Kind::Fresh,
                        spec: spec(program, &format!("fresh {index}")),
                    }
                }
                b'R' => {
                    let of = self.fresh[self.rng.below(self.fresh.len() as u64) as usize];
                    Job {
                        index,
                        cycle,
                        kind: Kind::Resubmit,
                        spec: self.jobs[of].spec.clone(),
                    }
                }
                b'P' => Job {
                    index,
                    cycle,
                    kind: Kind::PauseResume { pause_at },
                    spec: spec(twin_program, &format!("paused {cycle}")),
                },
                _ => Job {
                    index,
                    cycle,
                    kind: Kind::Twin,
                    spec: spec(twin_program, &format!("twin {cycle}")),
                },
            };
            self.jobs.push(job);
        }
    }
}

/// What one job produced, as the client saw it.
#[derive(Debug)]
struct Outcome {
    job: Job,
    /// Submit → settled `done`.
    latency_s: f64,
    ll_instructions: u64,
    tests: usize,
    hl_paths: usize,
    preemptions: u64,
    slices: u64,
    resume_snapshot_seeds: u64,
    resume_full_seeds: u64,
    /// For a pause-resume job: tests found after the resume, and the
    /// resume → done wall time. `None` when the job finished before the
    /// pause took effect.
    resumed: Option<(usize, f64)>,
}

/// Client round-trip times, in seconds, and admission refusals.
#[derive(Default)]
struct Calls {
    submit: Vec<f64>,
    status: Vec<f64>,
    results: Vec<f64>,
    rejects: u64,
}

fn timed<T>(into: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    into.push(t0.elapsed().as_secs_f64());
    out
}

/// Runs one job to `done`; returns `None` (after recording the failure)
/// when it did not get there.
fn run_job(client: &Client, job: Job, calls: &mut Calls, tally: &mut Tally) -> Option<Outcome> {
    let who = format!("job {} ({:?})", job.index, job.kind);
    let submitted = Instant::now();
    tally.attempt();
    let session = loop {
        match timed(&mut calls.submit, || client.submit(&job.spec)) {
            Ok(s) => break s,
            Err(ServeError::Busy { retry_after_ms }) => {
                // A refusal fails this attempt; the client retries as a
                // new attempt after the daemon's hint.
                calls.rejects += 1;
                tally.fail(format!("{who}: submit refused (busy)"));
                std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 1000)));
                tally.attempt();
            }
            Err(e) => {
                tally.fail(format!("{who}: submit: {e}"));
                return None;
            }
        }
    };
    let wait = |calls: &mut Calls, until: &dyn Fn(&chef_serve::SessionStatus) -> bool| loop {
        match timed(&mut calls.status, || client.status(&session)) {
            Ok(st) if until(&st) || st.is_settled() => return Ok(st),
            Ok(_) if submitted.elapsed() > JOB_DEADLINE => {
                return Err(format!("not settled after {JOB_DEADLINE:?}"))
            }
            Ok(_) => std::thread::sleep(POLL),
            Err(e) => return Err(format!("status: {e}")),
        }
    };
    let mut resumed = None;
    let settled = match job.kind {
        Kind::PauseResume { pause_at } => (|| {
            let st = wait(calls, &|st| st.ll_instructions >= pause_at)?;
            if st.is_settled() {
                return Ok(st);
            }
            client.pause(&session).map_err(|e| format!("pause: {e}"))?;
            let paused = wait(calls, &|_| false)?;
            if paused.state != "paused" {
                return Ok(paused);
            }
            let resume_at = Instant::now();
            client
                .resume(&session)
                .map_err(|e| format!("resume: {e}"))?;
            let done = wait(calls, &|_| false)?;
            resumed = Some((
                done.corpus_tests.saturating_sub(paused.corpus_tests) as usize,
                resume_at.elapsed().as_secs_f64(),
            ));
            Ok(done)
        })(),
        _ => wait(calls, &|_| false),
    };
    let latency_s = submitted.elapsed().as_secs_f64();
    let st = match settled {
        Ok(st) if st.state == "done" => st,
        Ok(st) => {
            tally.fail(format!("{who}: settled as {}", st.state));
            return None;
        }
        Err(e) => {
            tally.fail(format!("{who}: {e}"));
            return None;
        }
    };
    let tests = match timed(&mut calls.results, || client.results(&session)) {
        Ok(t) => t,
        Err(e) => {
            tally.fail(format!("{who}: results: {e}"));
            return None;
        }
    };
    let hl_paths = tests.iter().map(|t| t.hl_sig).collect::<HashSet<_>>().len();
    Some(Outcome {
        job,
        latency_s,
        ll_instructions: st.ll_instructions,
        tests: tests.len(),
        hl_paths,
        preemptions: st.preemptions,
        slices: st.sched_slices,
        resume_snapshot_seeds: st.resume_snapshot_seeds,
        resume_full_seeds: st.resume_full_seeds,
        resumed,
    })
}

/// One daemon lifetime driven by the closed loop.
struct Drive {
    /// `Server::bind` on a fresh data directory, in wall seconds.
    bind_s: f64,
    outcomes: Vec<Outcome>,
    calls: Calls,
    wall_s: f64,
    stats: Option<Value>,
    trace: Option<Value>,
}

/// Where to take the next job from.
enum Source {
    /// The seeded plan, until the deadline passes and at least this many
    /// jobs were handed out.
    Plan(Plan, Instant, usize),
    /// A fixed job list (the traced rerun).
    List(std::vec::IntoIter<Job>),
}

impl Source {
    fn next(&mut self) -> Option<Job> {
        match self {
            Source::Plan(plan, deadline, min_jobs) => {
                (Instant::now() < *deadline || plan.next < *min_jobs).then(|| plan.next_job())
            }
            Source::List(jobs) => jobs.next(),
        }
    }
}

fn data_dir(tag: &str) -> PathBuf {
    Path::new(".bench_data").join(format!("serve-{}-{tag}", std::process::id()))
}

fn bind(dir: &Path) -> Result<Server, String> {
    let _ = std::fs::remove_dir_all(dir);
    Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: dir.to_path_buf(),
        checkpoint_interval_ll: SLICE_LL,
        workers: WORKERS,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("daemon bind: {e}"))
}

fn drive(tag: &str, source: Source, tally: &mut Tally) -> Result<Drive, String> {
    let dir = data_dir(tag);
    let t0 = Instant::now();
    let server = bind(&dir)?;
    let bind_s = t0.elapsed().as_secs_f64();
    let addr = server
        .local_addr()
        .map_err(|e| format!("daemon address: {e}"))?
        .to_string();
    let source = Mutex::new(source);
    let results = Mutex::new((Vec::new(), Calls::default(), Tally::default()));
    let started = Instant::now();
    let (wall_s, stats, trace, served) = std::thread::scope(|scope| {
        let daemon = scope.spawn(move || server.run());
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let client = Client::new(addr.clone());
                let (source, results) = (&source, &results);
                scope.spawn(move || {
                    let (mut outs, mut calls, mut tally) =
                        (Vec::new(), Calls::default(), Tally::default());
                    loop {
                        let next = source.lock().expect("plan lock").next();
                        let Some(job) = next else { break };
                        outs.extend(run_job(&client, job, &mut calls, &mut tally));
                    }
                    let mut r = results.lock().expect("results lock");
                    r.0.extend(outs);
                    r.1.submit.extend(calls.submit);
                    r.1.status.extend(calls.status);
                    r.1.results.extend(calls.results);
                    r.1.rejects += calls.rejects;
                    r.2.absorb(tally);
                })
            })
            .collect();
        for w in workers {
            w.join().expect("client thread");
        }
        let wall_s = started.elapsed().as_secs_f64();
        let client = Client::new(addr.clone());
        let stats = client.stats_raw().ok();
        let trace = client.trace(0).ok();
        let down = client.shutdown();
        let served = daemon.join().expect("daemon thread");
        let served = down
            .map_err(|e| e.to_string())
            .and(served.map_err(|e| e.to_string()));
        (wall_s, stats, trace, served)
    });
    let _ = std::fs::remove_dir_all(&dir);
    served.map_err(|e| format!("daemon: {e}"))?;
    let (mut outcomes, calls, t) = results.into_inner().expect("results lock");
    tally.absorb(t);
    outcomes.sort_by_key(|o| o.job.index);
    Ok(Drive {
        bind_s,
        outcomes,
        calls,
        wall_s,
        stats,
        trace,
    })
}

/// The program a job explores: its source up to the key tag, so jobs on
/// one program share one reference run.
fn program_of(spec: &JobSpec) -> &str {
    spec.source.split(KEY_TAG).next().unwrap_or(&spec.source)
}

/// Test count of an uninterrupted in-process run per program, through the
/// same compile/build path the daemon uses.
fn reference_counts(outcomes: &[Outcome]) -> Result<HashMap<String, usize>, String> {
    let mut refs = HashMap::new();
    for o in outcomes {
        let program = program_of(&o.job.spec);
        if refs.contains_key(program) {
            continue;
        }
        let prog = o
            .job
            .spec
            .build()
            .map_err(|e| format!("reference build: {e}"))?;
        let mut chef = Chef::new(&prog, o.job.spec.chef_config());
        while chef.step_round() == EngineStatus::Running {}
        if chef.live_count() + chef.pending_count() > 0 {
            return Err("a reference run did not exhaust its tree".into());
        }
        refs.insert(program.to_string(), chef.into_report().tests.len());
    }
    Ok(refs)
}

/// Each target's final corpus must hold the reference test count.
fn check(outcomes: &[Outcome], refs: &HashMap<String, usize>, tally: &mut Tally) {
    for o in outcomes {
        let want = refs[program_of(&o.job.spec)];
        if o.tests != want {
            tally.fail(format!(
                "job {} ({:?}): corpus holds {} tests, uninterrupted run {want}",
                o.job.index, o.job.kind, o.tests
            ));
        }
        if o.resume_full_seeds > 0 {
            tally.note(format!(
                "job {}: {} seeds fell back to full replay on resume",
                o.job.index, o.resume_full_seeds
            ));
        }
    }
}

/// Setup of a job's program: compile, build and `Chef::new`, as on the
/// exploration workloads. Binding the daemon is not part of it: its time
/// is filesystem-bound and spreads too widely to gate on, so it is the
/// per-layer `serve.bind_s` instead.
fn setup() -> Result<Setup, String> {
    let job = spec(0, "setup");
    let (test, config) = (job.symbolic_test(), job.chef_config());
    time_setup(&[Recipe {
        name: "serve job".into(),
        compile: Box::new(move || job.compile()),
        test,
        config,
    }])
}

/// Runs the workload and returns its metrics.
pub fn run(opts: &Options, tally: &mut Tally) -> Result<Metrics, String> {
    let setup = setup()?;
    let plan = Plan::new(opts.seed);
    match opts.mode {
        Mode::EndToEnd => {
            let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
            let d = drive(
                "e2e",
                Source::Plan(plan, deadline, opts.tail_samples),
                tally,
            )?;
            let refs = reference_counts(&d.outcomes)?;
            check(&d.outcomes, &refs, tally);
            Ok(end_to_end(setup.total_s, &d, opts.tail_samples))
        }
        Mode::Layers => {
            let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds / 2.0);
            let a = drive("untraced", Source::Plan(plan, deadline, 1), tally)?;
            let jobs: Vec<Job> = a.outcomes.iter().map(|o| o.job.clone()).collect();
            chef_trace::set_level(TraceLevel::Spans);
            let b = drive("traced", Source::List(jobs.into_iter()), tally);
            chef_trace::set_level(TraceLevel::Off);
            let b = b?;
            let refs = reference_counts(&a.outcomes)?;
            check(&a.outcomes, &refs, tally);
            check(&b.outcomes, &refs, tally);
            Ok(layers(&setup, &a, &b))
        }
    }
}

/// End-to-end figures of one closed loop, in wall seconds (`setup_s`
/// aside, which is single-threaded and in reference seconds as on every
/// workload). Unlike the exploration workloads these are not scaled: the
/// loop keeps both cores busy (pool worker on one, clients and connection
/// threads on the other), and a single-core kernel reading tracks it so
/// poorly that scaling widened the run-to-run spread instead of narrowing
/// it.
fn end_to_end(setup_s: f64, d: &Drive, tail_samples: usize) -> Metrics {
    let sum = |f: &dyn Fn(&Outcome) -> f64| d.outcomes.iter().map(f).sum::<f64>();
    Figures {
        setup_s,
        totals: Totals {
            ll: sum(&|o| o.ll_instructions as f64),
            hl_paths: sum(&|o| o.hl_paths as f64),
            tests: sum(&|o| o.tests as f64),
            jobs: d.outcomes.len() as f64,
            wall_s: d.wall_s,
        },
        latencies_s: d.outcomes.iter().map(|o| o.latency_s).collect(),
        tail_samples,
    }
    .metrics()
}

/// Sum over the per-session traces of the daemon's `trace` reply of one
/// phase's self time, in seconds.
fn session_phase_s(trace: Option<&Value>, phase: &str) -> f64 {
    let sessions = trace
        .and_then(|t| t.get("sessions"))
        .and_then(Value::as_arr)
        .unwrap_or(&[]);
    let us: u64 = sessions
        .iter()
        .filter_map(|s| s.get("trace")?.get("phases")?.as_arr())
        .flatten()
        .filter(|p| p.get("phase").and_then(Value::as_str) == Some(phase))
        .filter_map(|p| p.get("us").and_then(Value::as_u64))
        .sum();
    us as f64 / 1e6
}

/// Paths per second of resumed sessions after their resume, over paths
/// per second of their uninterrupted twins (0 when no pause took effect).
fn resume_fresh_ratio(outcomes: &[Outcome]) -> f64 {
    let twins: HashMap<usize, &Outcome> = outcomes
        .iter()
        .filter(|o| matches!(o.job.kind, Kind::Twin))
        .map(|o| (o.job.cycle, o))
        .collect();
    let (mut rt, mut rs, mut ft, mut fs) = (0.0, 0.0, 0.0, 0.0);
    for o in outcomes {
        if let (Some((tests, secs)), Some(twin)) = (o.resumed, twins.get(&o.job.cycle)) {
            rt += tests as f64;
            rs += secs;
            ft += twin.tests as f64;
            fs += twin.latency_s;
        }
    }
    if rs == 0.0 || ft == 0.0 {
        return 0.0;
    }
    (rt / rs) / (ft / fs)
}

fn layers(setup: &Setup, untraced: &Drive, traced: &Drive) -> Metrics {
    let mut m = Metrics::default();
    let t = traced.trace.as_ref();
    let phase = |p: &str| session_phase_s(t, p);
    let sum = |f: &dyn Fn(&Outcome) -> f64| traced.outcomes.iter().map(f).sum::<f64>();
    let ms = |v: &[f64]| median(v) * 1e3;
    let wall = traced.wall_s;
    m.put("frontend.compile_s", setup.compile_s, "s");
    m.put("lir.build_s", setup.build_s, "s");
    m.put(
        "lir.program_insts",
        setup.progs.iter().map(|p| p.inst_count() as f64).sum(),
        "count",
    );
    m.put("lir.concrete_seg_s", phase("concrete_seg"), "s");
    m.put(
        "lir.concrete_seg_share",
        phase("concrete_seg") / (WORKERS as f64 * wall).max(1e-9),
        "ratio",
    );
    m.put("symex.sym_step_s", phase("sym_step"), "s");
    m.put(
        "symex.sym_step_share",
        phase("sym_step") / (WORKERS as f64 * wall).max(1e-9),
        "ratio",
    );
    m.put(
        "symex.snapshot_restores",
        sum(&|o| o.resume_snapshot_seeds as f64),
        "count",
    );
    m.put(
        "symex.full_replays",
        sum(&|o| o.resume_full_seeds as f64),
        "count",
    );
    m.put("symex.snapshot_cap_s", phase("snapshot_cap"), "s");
    m.put("symex.snapshot_restore_s", phase("snapshot_restore"), "s");
    m.put("core.hl_paths", sum(&|o| o.hl_paths as f64), "count");
    m.put(
        "core.ll_instructions",
        sum(&|o| o.ll_instructions as f64),
        "LL",
    );
    let sat_s = phase("solver_sat");
    let blast_s = phase("blast");
    m.put("solver.sat_s", sat_s, "s");
    m.put("solver.blast_s", blast_s, "s");
    m.put(
        "solver.time_share",
        (sat_s + blast_s) / (WORKERS as f64 * wall).max(1e-9),
        "ratio",
    );
    m.put("fleet.slices", sum(&|o| o.slices as f64), "count");
    m.put("serve.bind_s", untraced.bind_s, "s");
    m.put("serve.submit_ms_p50", ms(&traced.calls.submit), "ms");
    m.put("serve.status_ms_p50", ms(&traced.calls.status), "ms");
    m.put("serve.results_ms_p50", ms(&traced.calls.results), "ms");
    let wire_io_s = traced
        .stats
        .as_ref()
        .and_then(|s| s.get("wire_io_us"))
        .and_then(Value::as_u64)
        .unwrap_or(0) as f64
        / 1e6;
    let sched_wait_s = phase("sched_wait");
    let corpus_io_s = phase("corpus_io");
    m.put("serve.sched_wait_s", sched_wait_s, "s");
    m.put("serve.corpus_io_s", corpus_io_s, "s");
    m.put("serve.wire_io_s", wire_io_s, "s");
    m.put(
        "serve.time_share",
        (corpus_io_s + wire_io_s) / (WORKERS as f64 * wall).max(1e-9),
        "ratio",
    );
    m.put(
        "serve.admission_rejects",
        (untraced.calls.rejects + traced.calls.rejects) as f64,
        "count",
    );
    m.put("serve.preemptions", sum(&|o| o.preemptions as f64), "count");
    m.put(
        "serve.jobs_per_s",
        untraced.outcomes.len() as f64 / untraced.wall_s.max(1e-9),
        "jobs/s",
    );
    m.put(
        "serve.resume_fresh_ratio",
        resume_fresh_ratio(&untraced.outcomes),
        "ratio",
    );
    // The pool worker's busy time; queue waits and the connection threads'
    // wire I/O happen elsewhere.
    let attributed: f64 = [
        "sym_step",
        "concrete_seg",
        "solver_sat",
        "blast",
        "snapshot_cap",
        "snapshot_restore",
        "corpus_io",
    ]
    .iter()
    .map(|p| phase(p))
    .sum();
    m.put(
        "trace.unattributed_s",
        WORKERS as f64 * wall - attributed,
        "s",
    );
    m.put(
        "trace.overhead_frac",
        traced.wall_s / untraced.wall_s.max(1e-9) - 1.0,
        "ratio",
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A submit refused by admission control is an attempt that failed;
    /// the client's retry is a new attempt.
    #[test]
    fn refused_submits_count_as_failed_attempts() {
        let dir = data_dir("refusal-test");
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            data_dir: dir.clone(),
            checkpoint_interval_ll: SLICE_LL,
            workers: 1,
            max_sessions: 1,
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = server.local_addr().expect("addr").to_string();
        std::thread::scope(|scope| {
            let daemon = scope.spawn(move || server.run());
            let client = Client::new(addr);
            // Holds the only admission slot while the job below submits.
            let holder = spec(0, "holder");
            client.submit(&holder).expect("first submit is admitted");
            let mut plan = Plan::new(1);
            let job = plan.next_job();
            let (mut calls, mut tally) = (Calls::default(), Tally::default());
            let out = run_job(&client, job, &mut calls, &mut tally);
            client.shutdown().expect("shutdown");
            daemon.join().expect("daemon thread").expect("daemon run");
            assert!(out.is_some(), "the retried submit settles done");
            assert!(calls.rejects >= 1, "the slot was held");
            assert_eq!(tally.failed, calls.rejects);
            assert_eq!(tally.attempted, tally.failed + 1);
            assert!(tally.failed_frac() > 0.0 && !tally.correct());
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
