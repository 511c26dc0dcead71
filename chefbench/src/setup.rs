//! Setup timing, shared by every workload: compile, `build_program` and
//! `Chef::new` on each of the workload's programs, repeated, with medians
//! reported.

use std::time::Instant;

use chef_core::{Chef, ChefConfig};
use chef_lir::Program;
use chef_minipy::{build_program, CompiledModule, InterpreterOptions, SymbolicTest};

use crate::calib;
use crate::stats::median;

/// Setup repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 41;

/// How to set up one program.
pub struct Recipe<'a> {
    /// Name in error messages.
    pub name: String,
    /// The front end's compile call.
    pub compile: Box<dyn Fn() -> Result<CompiledModule, String> + 'a>,
    /// Entry point and symbolic arguments.
    pub test: SymbolicTest,
    /// Configuration of the engine created on the program.
    pub config: ChefConfig,
}

/// Setup timings: medians over [`SETUP_REPS`] repetitions of setting up
/// every program.
pub struct Setup {
    /// In reference seconds, scaled by a speed reading taken with each
    /// repetition (see [`calib`]).
    pub total_s: f64,
    /// Wall seconds in the front end's compile call.
    pub compile_s: f64,
    /// Wall seconds in `build_program`.
    pub build_s: f64,
    /// Each program, in recipe order.
    pub progs: Vec<Program>,
}

/// Times [`SETUP_REPS`] setups of `recipes`.
pub fn time_setup(recipes: &[Recipe]) -> Result<Setup, String> {
    let opts = InterpreterOptions::all();
    let (mut totals, mut compiles, mut builds) = (Vec::new(), Vec::new(), Vec::new());
    let mut progs = Vec::new();
    let mut speeds = Vec::new();
    for _ in 0..SETUP_REPS {
        speeds.push(calib::speed());
        progs.clear();
        let (mut compile_s, mut build_s, mut total_s) = (0.0, 0.0, 0.0);
        for r in recipes {
            let t0 = Instant::now();
            let module = (r.compile)().map_err(|e| format!("{}: compile: {e}", r.name))?;
            let t1 = Instant::now();
            let prog = build_program(&module, &opts, &r.test)
                .map_err(|e| format!("{}: build: {e}", r.name))?;
            let t2 = Instant::now();
            drop(std::hint::black_box(Chef::new(&prog, r.config.clone())));
            let t3 = Instant::now();
            compile_s += (t1 - t0).as_secs_f64();
            build_s += (t2 - t1).as_secs_f64();
            total_s += (t3 - t0).as_secs_f64();
            progs.push(prog);
        }
        totals.push(total_s);
        compiles.push(compile_s);
        builds.push(build_s);
    }
    Ok(Setup {
        total_s: median(&totals) * median(&speeds),
        compile_s: median(&compiles),
        build_s: median(&builds),
        progs,
    })
}
