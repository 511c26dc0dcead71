//! Cross-commit determinism pin: the deterministic work counters and the
//! canonical test set of one Table-3 package at a small budget are fixed
//! constants. Performance work on the symbolic hot path (solver
//! front-end memos, hashers, caches) must leave every one of them
//! unchanged; a mismatch means a change altered what the engine explores,
//! not just how fast.
//!
//! To re-pin after an intentional behaviour change, run this test with
//! `-- --nocapture` and copy the printed values.

use chef_core::{FfMode, Report, StrategyKind};
use chef_targets::{all_packages, RunConfig};

/// The counters a run must reproduce exactly.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
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
    test_set_digest: u64,
}

/// FNV-1a over the canonical test set: sorted inputs, status, exception
/// and hl_sig of every test, in generation order.
fn test_set_digest(report: &Report) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for t in &report.tests {
        for (name, bytes) in t.canonical_key() {
            feed(name.as_bytes());
            feed(&(bytes.len() as u64).to_le_bytes());
            feed(&bytes);
        }
        feed(format!("{:?}", t.status).as_bytes());
        feed(t.exception.as_deref().unwrap_or("-").as_bytes());
        feed(&t.hl_sig.to_le_bytes());
    }
    h
}

fn pinned(report: &Report) -> Pinned {
    let s = &report.solver_stats;
    Pinned {
        ll_instructions: report.ll_instructions,
        hl_paths: report.hl_paths,
        tests: report.tests.len(),
        forks: report.exec_stats.forks,
        queries: s.queries,
        const_hits: s.const_hits,
        cache_hits: s.cache_hits,
        model_reuse_hits: s.model_reuse_hits,
        sat_calls: s.sat_calls,
        unknowns: s.unknowns,
        test_set_digest: test_set_digest(report),
    }
}

fn run() -> Report {
    let pkg = all_packages()
        .into_iter()
        .find(|p| p.name == "simplejson")
        .expect("simplejson package");
    pkg.run(&RunConfig {
        strategy: StrategyKind::CupaPath,
        seed: 0,
        max_ll_instructions: 150_000,
        per_path_fuel: 60_000,
        max_wall: None,
        ff_mode: FfMode::Adaptive,
        canonical_inputs: true,
        ..RunConfig::default()
    })
}

#[test]
fn simplejson_counters_and_test_set_are_pinned() {
    let report = run();
    let got = pinned(&report);
    println!("{got:#?}");
    let want = Pinned {
        ll_instructions: 150_000,
        hl_paths: 23,
        tests: 23,
        forks: 262,
        queries: 4167,
        const_hits: 2,
        cache_hits: 6359,
        model_reuse_hits: 2475,
        sat_calls: 271,
        unknowns: 0,
        test_set_digest: 10_969_928_728_514_963_218,
    };
    assert_eq!(got, want, "deterministic counters drifted");
}
