//! Wire-format backward compatibility, pinned by committed golden bytes.
//!
//! The hex fixtures below are byte captures of frames encoded by earlier
//! codec versions (v1 hand-laid per the documented layout, v2 captured
//! from the version-2 encoder before the v3 CRC bump). They are *data*,
//! not round-trips: if a future codec change stops decoding them, real
//! corpora written by deployed daemons stop loading, so these assertions
//! must never be "fixed" by re-capturing — only by restoring decode
//! compatibility.

use chef_core::wire::{Wire, MAGIC, VERSION};
use chef_core::{SchedStats, TestCase, TestStatus, WorkSeed};

/// v1 WorkSeed frame: choices [11, 22], no snapshot-fp field at all.
const WORKSEED_V1: &str = "434857520100011400000002000000\
                           0b000000000000001600000000000000";

/// v2 WorkSeed frame: choices [3, 1, 4, 1, 5], fp = 0x1122_3344_5566_7788.
const WORKSEED_V2: &str = "434857520200013500000005000000030000000000000001000000000000000400000000000000010000000000000005000000000000000\
                           18877665544332211";

/// v2 TestCase frame: id 12, inputs {"msg": [0x41,0x40,0x31,0x00], "n": [7]},
/// status Crash(2), exception "UnknownKindError", hl_path 9,
/// hl_sig 0xfeed_f00d, new_hl_path true, ll_steps 345, at_ll 67890.
const TESTCASE_V2: &str = "43485752020002640000000c0000000000000002000000030000006d73670400000041403100010000006e0100000007010200000000000000\
                           0110000000556e6b6e6f776e4b696e644572726f7209000000000000000df0edfe000000000159010000000000003209010000000000";

/// v2 SchedStats frame (TAG 5): quota 200, slices 7, preemptions 6,
/// wait_ms 123, cpu_ll 45678.
const SCHEDSTATS_V2: &str = "4348575202000528000000c800000000000000070000000000000006000000000000007b000000000000006eb2000000000000";

fn unhex(s: &str) -> Vec<u8> {
    let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    assert!(s.len().is_multiple_of(2), "fixture has odd hex length");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("fixture hex"))
        .collect()
}

#[test]
fn v1_workseed_golden_bytes_still_decode() {
    let seed = WorkSeed::from_frame(&unhex(WORKSEED_V1)).expect("v1 frame must keep decoding");
    assert_eq!(seed.choices, vec![11, 22]);
    assert_eq!(seed.snapshot_fp, None, "v1 predates the fp field");
}

#[test]
fn v2_workseed_golden_bytes_still_decode_with_fp() {
    let seed = WorkSeed::from_frame(&unhex(WORKSEED_V2)).expect("v2 frame must keep decoding");
    assert_eq!(seed.choices, vec![3, 1, 4, 1, 5]);
    assert_eq!(seed.snapshot_fp, Some(0x1122_3344_5566_7788));
}

#[test]
fn v2_testcase_golden_bytes_still_decode() {
    let tc = TestCase::from_frame(&unhex(TESTCASE_V2)).expect("v2 frame must keep decoding");
    assert_eq!(tc.id, 12);
    assert_eq!(tc.inputs.len(), 2);
    assert_eq!(tc.inputs["msg"], vec![0x41, 0x40, 0x31, 0x00]);
    assert_eq!(tc.inputs["n"], vec![7]);
    assert_eq!(tc.status, TestStatus::Crash(2));
    assert_eq!(tc.exception.as_deref(), Some("UnknownKindError"));
    assert_eq!(tc.hl_path.0, 9);
    assert_eq!(tc.hl_sig, 0xfeed_f00d);
    assert!(tc.new_hl_path);
    assert_eq!(tc.ll_steps, 345);
    assert_eq!(tc.at_ll_instructions, 67890);
}

#[test]
fn v2_schedstats_golden_bytes_still_decode() {
    let s = SchedStats::from_frame(&unhex(SCHEDSTATS_V2)).expect("v2 frame must keep decoding");
    assert_eq!(s.quota, 200);
    assert_eq!(s.slices, 7);
    assert_eq!(s.preemptions, 6);
    assert_eq!(s.wait_ms, 123);
    assert_eq!(s.cpu_ll, 45678);
    assert_eq!(
        (s.new_tests, s.watchdog_aborts),
        (0, 0),
        "v2 predates the status counters"
    );
}

/// Hand-builds a v4 Report frame (the layout the v5 trace section was
/// appended after): empty collections, distinctive scalar counters, CRC
/// trailer (v4 ≥ CRC_VERSION). Built with the public `Writer` so the
/// fixture tracks the documented layout, not the current encoder.
fn v4_report_frame() -> Vec<u8> {
    use chef_core::wire::{crc32, Writer};
    let mut b = Writer::new();
    b.u32(0); // tests
    b.u64(4); // hl_paths
    b.u64(9); // ll_paths
    b.u32(0); // covered_hlpcs
    b.u32(0); // timeline
    for v in [100u64, 1, 2, 3, 4, 5, 6, 7, 8, 50, 10, 2] {
        b.u64(v); // ExecStats incl. v4 fast-forward counters
    }
    for v in [11u64, 0, 0, 0, 0, 3, 3, 0, 0, 0, 0, 2, 0] {
        b.u64(v); // SolverStats through `unknowns`
    }
    b.duration(std::time::Duration::new(1, 500)); // sat_time
    b.duration(std::time::Duration::new(2, 250)); // elapsed
    b.u64(1); // hangs
    b.u64(0); // crashes
    b.u32(0); // exceptions
    b.str("cupa");
    for v in [100u64, 0, 0, 5, 6] {
        b.u64(v); // ll_instructions..seeds_imported
    }
    let mut w = Writer::new();
    w.buf.extend_from_slice(&MAGIC);
    w.u16(4);
    w.u8(3); // Report TAG
    w.u32(b.buf.len() as u32);
    w.buf.extend_from_slice(&b.buf);
    let crc = crc32(&w.buf);
    w.u32(crc);
    w.buf
}

#[test]
fn v4_report_frames_decode_with_an_empty_trace_section() {
    use chef_core::Report;
    let report = Report::from_frame(&v4_report_frame()).expect("v4 report must keep decoding");
    assert_eq!(report.hl_paths, 4);
    assert_eq!(report.ll_paths, 9);
    assert_eq!(report.exec_stats.fast_forwards, 10);
    assert_eq!(report.solver_stats.queries, 11);
    assert_eq!(report.seeds_imported, 6);
    assert!(
        report.trace.is_empty(),
        "pre-v5 frames carry no trace section"
    );
}

#[test]
fn mixed_version_streams_decode_like_a_post_upgrade_corpus() {
    // A daemon upgrade leaves old-version frames at the front of
    // append-only files with current-version frames appended after them.
    let mut new_seed = WorkSeed::from_choices(vec![1, 2]);
    new_seed.snapshot_fp = Some(7);
    let mut buf = unhex(WORKSEED_V1);
    buf.extend_from_slice(&unhex(WORKSEED_V2));
    buf.extend_from_slice(&new_seed.to_frame());
    let seeds = WorkSeed::decode_stream(&buf).expect("mixed-version stream");
    assert_eq!(seeds.len(), 3);
    assert_eq!(seeds[0].choices, vec![11, 22]);
    assert_eq!(seeds[1].snapshot_fp, Some(0x1122_3344_5566_7788));
    assert_eq!(seeds[2], new_seed);
}

#[test]
fn fixtures_really_are_old_versions() {
    // Guard against someone re-capturing the fixtures at the current
    // version, which would silently hollow out this whole test.
    for (name, hex) in [
        ("WORKSEED_V1", WORKSEED_V1),
        ("WORKSEED_V2", WORKSEED_V2),
        ("TESTCASE_V2", TESTCASE_V2),
        ("SCHEDSTATS_V2", SCHEDSTATS_V2),
    ] {
        let bytes = unhex(hex);
        assert_eq!(&bytes[..4], &MAGIC, "{name} magic");
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        assert!(
            version < VERSION,
            "{name} must stay a pre-current-version capture (got v{version})"
        );
    }
}
