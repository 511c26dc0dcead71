//! chefbench — the chef stack's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path chefbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `fork_dense`, `concrete_heavy`, `solver_heavy` (in-process
//! exploration sessions) and `serve_sessions` (an in-process daemon driven
//! by closed-loop clients). All inputs derive from `--seed`. With
//! `--trace 0` the run is untraced and reports the end-to-end metrics;
//! with `--trace 1` it runs the same work untraced and then traced, and
//! reports the per-layer ledger. Either way every output is checked, and
//! the last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The exit code is nonzero when any check fails.
//!
//! End-to-end times are reference seconds: wall seconds scaled by the
//! machine speed a fixed calibration kernel reads during the run (see
//! [`calib`]). The exception is `serve_sessions`, whose times other than
//! `setup_s` are wall seconds (see `serve::end_to_end`). Per-layer times
//! are wall seconds.

mod calib;
mod explore;
mod plan;
mod serve;
mod setup;
mod stats;

use stats::{median, Metrics, Tally};

/// End-to-end metrics, reported by every workload from untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ll_per_s", "LL/s"),
    ("hl_paths_per_s", "paths/s"),
    ("tests_per_s", "tests/s"),
    ("session_s_p50", "s"),
    ("session_s_tail", "s"),
    ("jobs_per_s", "jobs/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload from its traced run. A
/// layer a workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("frontend.compile_s", "s"),
    ("lir.build_s", "s"),
    ("lir.program_insts", "count"),
    ("lir.concrete_seg_s", "s"),
    ("lir.concrete_seg_share", "ratio"),
    ("lir.concrete_frac", "ratio"),
    ("lir.ff_segments", "count"),
    ("lir.ff_aborts", "count"),
    ("lir.ff_skipped", "count"),
    ("lir.ff_attempts", "count"),
    ("lir.ff_useful_ratio", "ratio"),
    ("lir.seg_len_p50", "LL"),
    ("lir.replay_us_p50", "us"),
    ("symex.sym_step_s", "s"),
    ("symex.sym_step_share", "ratio"),
    ("symex.forks", "count"),
    ("symex.states_created", "count"),
    ("symex.snapshots_captured", "count"),
    ("symex.snapshot_restores", "count"),
    ("symex.prologue_ll_skipped", "LL"),
    ("symex.full_replays", "count"),
    ("symex.snapshot_cap_s", "s"),
    ("symex.snapshot_restore_s", "s"),
    ("core.init_s", "s"),
    ("core.round_us_p50", "us"),
    ("core.round_us_tail", "us"),
    ("core.rounds", "count"),
    ("core.report_s", "s"),
    ("core.live_states_peak", "count"),
    ("core.pending_peak", "count"),
    ("core.hl_paths", "count"),
    ("core.ll_instructions", "LL"),
    ("core.dropped_states", "count"),
    ("core.infeasible_paths", "count"),
    ("core.hl_per_ll_path", "ratio"),
    ("core.wire_encode_us", "us"),
    ("core.wire_decode_us", "us"),
    ("core.checkpoint_bytes", "bytes"),
    ("solver.queries", "count"),
    ("solver.const_hits", "count"),
    ("solver.cache_hits", "count"),
    ("solver.model_reuse_hits", "count"),
    ("solver.sat_calls", "count"),
    ("solver.unknowns", "count"),
    ("solver.cache_hit_ratio", "ratio"),
    ("solver.blast_hit_rate", "ratio"),
    ("solver.sat_s", "s"),
    ("solver.blast_s", "s"),
    ("solver.time_share", "ratio"),
    ("solver.query_us_p50", "us"),
    ("solver.query_us_p99", "us"),
    ("fleet.slices", "count"),
    ("fleet.seeds_exported", "count"),
    ("fleet.seeds_imported", "count"),
    ("serve.bind_s", "s"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.status_ms_p50", "ms"),
    ("serve.results_ms_p50", "ms"),
    ("serve.sched_wait_s", "s"),
    ("serve.corpus_io_s", "s"),
    ("serve.wire_io_s", "s"),
    ("serve.time_share", "ratio"),
    ("serve.admission_rejects", "count"),
    ("serve.preemptions", "count"),
    ("serve.jobs_per_s", "jobs/s"),
    ("serve.resume_fresh_ratio", "ratio"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &[
    "fork_dense",
    "concrete_heavy",
    "solver_heavy",
    "serve_sessions",
];

/// `fork_dense` packages and the LL budget of a session on each. The
/// budgets give sessions of similar length (about 0.25 s on the reference
/// machine), so the session-time percentiles fall within one population
/// rather than on the boundary between two packages.
const FORK_DENSE: &[(&str, u64)] = &[
    ("simplejson", 300_000),
    ("ConfigParser", 650_000),
    ("JSON", 450_000),
    ("lua-haml", 600_000),
];

/// Concrete document parses per `concrete_heavy` path.
const CONCRETE_REPS: u32 = 5;

/// Symbolic spreadsheet bytes in a `solver_heavy` session.
const XLS_LEN: usize = 5;

/// Which metric set a run reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Untraced: the end-to-end metrics.
    EndToEnd,
    /// Untraced then traced: the per-layer ledger.
    Layers,
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Measurement time of the run.
    pub seconds: f64,
    /// Metric set.
    pub mode: Mode,
    /// Fewest sessions (jobs) an end-to-end run settles, measuring past
    /// `seconds` if need be. `session_s_tail` is taken over the first this
    /// many, so its percentile and population stay fixed however many
    /// sessions a run fits.
    pub tail_samples: usize,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut mode = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                mode = Some(match value.as_str() {
                    "0" => Mode::EndToEnd,
                    "1" => Mode::Layers,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Options {
        workload,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        mode: mode.unwrap_or(Mode::EndToEnd),
        tail_samples: stats::TAIL_SAMPLES,
    })
}

/// Work a run settled over its measured time. Times throughout
/// [`Figures`] are reference seconds (see [`calib`]), except on
/// `serve_sessions`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// LL instructions retired.
    pub ll: f64,
    /// Distinct HL paths, summed over sessions.
    pub hl_paths: f64,
    /// Tests generated (delivered, for daemon jobs).
    pub tests: f64,
    /// Sessions (jobs) settled.
    pub jobs: f64,
    /// Time the work took.
    pub wall_s: f64,
}

/// What every workload measures for the end-to-end metrics.
pub struct Figures {
    /// Median setup time.
    pub setup_s: f64,
    /// The run's work; throughputs are its totals over its time.
    pub totals: Totals,
    /// Per-session (per-job) wall times to finish the fixed work, in plan
    /// order.
    pub latencies_s: Vec<f64>,
    /// How many of the first latencies `session_s_tail` is taken over.
    pub tail_samples: usize,
}

impl Figures {
    /// The end-to-end metrics, in [`END_TO_END`] order.
    pub fn metrics(self) -> Metrics {
        let mut m = Metrics::default();
        let t = self.totals;
        let rate = |work: f64| work / t.wall_s.max(1e-9);
        m.put("setup_s", self.setup_s, "s");
        m.put("ll_per_s", rate(t.ll), "LL/s");
        m.put("hl_paths_per_s", rate(t.hl_paths), "paths/s");
        m.put("tests_per_s", rate(t.tests), "tests/s");
        m.put("session_s_p50", median(&self.latencies_s), "s");
        // Runs always settle enough sessions for a tail; should one not,
        // the slowest session stands in and the line below says so.
        let sample = &self.latencies_s[..self.tail_samples.min(self.latencies_s.len())];
        let tail = stats::tail(sample);
        let worst = sample.iter().copied().fold(0.0, f64::max);
        m.put("session_s_tail", tail.map_or(worst, |t| t.value), "s");
        match tail {
            Some(t) => println!("session_s_tail is p{} of {} sessions", t.pct, t.n),
            None => println!(
                "session_s_tail is the maximum of {} sessions (too few for a tail)",
                sample.len()
            ),
        }
        m.put("jobs_per_s", rate(t.jobs), "jobs/s");
        m.put("peak_rss_mb", stats::peak_rss_mib(), "MiB");
        m
    }
}

/// Puts `m` in `list` order, with 0 for metrics the workload does not
/// reach. Errors on a metric outside the list or with another unit.
fn complete(m: &Metrics, list: &[(&str, &'static str)]) -> Result<Metrics, String> {
    if let Some(extra) = m.names().find(|n| !list.iter().any(|(l, _)| l == n)) {
        return Err(format!("metric {extra} is not declared"));
    }
    let mut out = Metrics::default();
    for &(name, unit) in list {
        out.put(name, m.get(name).unwrap_or(0.0), unit);
    }
    Ok(out)
}

/// Runs one workload and returns its metrics in declared order.
fn run(opts: &Options, tally: &mut Tally) -> Result<Metrics, String> {
    let m = match opts.workload.as_str() {
        "fork_dense" => explore::fork_dense(FORK_DENSE).run(opts, tally)?,
        "concrete_heavy" => explore::concrete_heavy(CONCRETE_REPS).run(opts, tally)?,
        "solver_heavy" => explore::solver_heavy(XLS_LEN).run(opts, tally)?,
        "serve_sessions" => serve::run(opts, tally)?,
        other => return Err(format!("unknown workload {other}")),
    };
    match opts.mode {
        Mode::EndToEnd => {
            for &(name, _) in END_TO_END {
                if m.get(name).is_none() {
                    return Err(format!("end-to-end metric {name} was not measured"));
                }
            }
            complete(&m, END_TO_END)
        }
        Mode::Layers => complete(&m, PER_LAYER),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("chefbench: {e}");
            eprintln!(
                "usage: chefbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    println!(
        "chefbench: workload={} seed={} seconds={} trace={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.mode == Mode::Layers)
    );
    let mut tally = Tally::default();
    let metrics = match run(&opts, &mut tally) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("chefbench: {e}");
            std::process::exit(1);
        }
    };
    for f in &tally.failures {
        eprintln!("check failed: {f}");
    }
    print!("{}", metrics.lines());
    println!(
        "failed_frac = {} ratio ({} of {} attempted)",
        tally.failed_frac(),
        tally.failed,
        tally.attempted
    );
    println!("{}", metrics.result_json(&tally));
    if !tally.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(workload: &str, mode: Mode) -> Options {
        Options {
            workload: workload.to_string(),
            seed: 3,
            seconds: 0.01,
            mode,
            tail_samples: 1,
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let a: Vec<String> = "--workload fork_dense --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let o = parse_args(&a).expect("valid");
        assert_eq!((o.seed, o.seconds, o.mode), (7, 10.0, Mode::Layers));
        for bad in [
            "--workload nope",
            "--workload fork_dense --trace 2",
            "--workload fork_dense --seconds -1",
            "--workload fork_dense --bogus 1",
            "--seed 1",
        ] {
            let a: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_args(&a).is_err(), "{bad}");
        }
    }

    /// The declared metric lists, workloads and units match `BENCHMARK.json`.
    #[test]
    fn benchmark_json_matches_declarations() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v = chef_serve::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(|a| a.as_arr())
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|x| x.as_str()).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    /// A tiny-budget run of every workload, both modes: all checks pass
    /// and every declared metric is reported.
    #[test]
    fn tiny_smoke_run_of_each_workload() {
        for &w in WORKLOADS {
            for mode in [Mode::EndToEnd, Mode::Layers] {
                let o = opts(w, mode);
                let mut tally = Tally::default();
                let m = match w {
                    "fork_dense" => {
                        let small: Vec<(&str, u64)> =
                            FORK_DENSE.iter().map(|&(n, _)| (n, 150_000)).collect();
                        explore::fork_dense(&small).run(&o, &mut tally)
                    }
                    "concrete_heavy" => explore::concrete_heavy(1).run(&o, &mut tally),
                    "solver_heavy" => explore::solver_heavy(3).run(&o, &mut tally),
                    _ => serve::run(&o, &mut tally),
                }
                .unwrap_or_else(|e| panic!("{w} {mode:?}: {e}"));
                assert!(tally.correct(), "{w} {mode:?}: {:?}", tally.failures);
                let list = if mode == Mode::EndToEnd {
                    END_TO_END
                } else {
                    PER_LAYER
                };
                let m = complete(&m, list).expect("declared metrics only");
                assert_eq!(m.names().count(), list.len());
                if mode == Mode::EndToEnd {
                    for &(name, _) in END_TO_END {
                        assert!(m.get(name).unwrap() > 0.0, "{w}: {name} is 0");
                    }
                }
            }
        }
    }
}
