//! Fleet worker 0 runs on the calling thread. What the caller recorded in
//! its thread-local trace stays the caller's, and the report holds only
//! the fleet's own attribution — as when every worker had its own thread.
//! (Its own test binary: the trace level is process-wide.)

use std::time::Duration;

use chef_core::{ChefConfig, WorkSeed};
use chef_fleet::{run_fleet_with, FleetConfig};
use chef_minipy::{build_program, compile, InterpreterOptions, SymbolicTest};
use chef_trace::{Phase, TraceLevel};

#[test]
fn caller_and_fleet_trace_attribution_stay_apart() {
    let src = r#"
def parse(msg):
    if msg[0] == "G":
        if msg[1] == "0":
            return 1
        return 2
    return 0
"#;
    let module = compile(src).unwrap();
    let test = SymbolicTest::new("parse").sym_str("msg", 2);
    let prog = build_program(&module, &InterpreterOptions::all(), &test).unwrap();
    chef_trace::set_level(TraceLevel::Spans);
    let queued = Duration::from_millis(5);
    chef_trace::record_phase(Phase::SchedWait, queued);
    for jobs in [1, 2] {
        let outcome = run_fleet_with(
            &prog,
            FleetConfig {
                jobs,
                base: ChefConfig {
                    max_ll_instructions: 5_000_000,
                    ..ChefConfig::default()
                },
                ..FleetConfig::default()
            },
            vec![WorkSeed::root()],
            None,
        );
        let fleet = &outcome.report.trace;
        assert!(fleet.phase_ns[Phase::SymStep as usize] > 0, "jobs={jobs}");
        assert_eq!(
            fleet.phase_count[Phase::SchedWait as usize],
            0,
            "jobs={jobs}"
        );
    }
    let caller = chef_trace::take_local();
    assert_eq!(caller.phase_count[Phase::SchedWait as usize], 1);
    assert_eq!(
        caller.phase_ns[Phase::SchedWait as usize],
        queued.as_nanos() as u64
    );
    assert_eq!(caller.phase_count[Phase::SymStep as usize], 0);
}
