//! Acceptance tests for the shared worker pool: determinism under
//! interleaving (pooled == sequential == direct engine run), freedom from
//! starvation, typed admission control, the connection cap, and the
//! server-side results clamp.

use std::collections::BTreeSet;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use chef_core::Chef;
use chef_serve::{
    Client, Corpus, JobLang, JobSpec, ServeConfig, ServeError, Server, SessionStatus, RESULTS_PAGE,
    SETTLED_IN_MEMORY,
};

type InputSet = BTreeSet<Vec<(String, Vec<u8>)>>;

/// A forking MiniPy target; the `ret` literal varies the source so each
/// variant is a distinct corpus target with the same exploration shape.
fn branchy_spec(ret: i64) -> JobSpec {
    let src = format!(
        r#"
def parse(msg):
    n = 0
    i = 0
    while i < 4:
        if msg[i] == "@":
            n = n + 1
        i = i + 1
    kind = msg[0]
    if kind == "A":
        if msg[1] == "1":
            return {ret}
        return 3
    if kind == "B":
        return 5
    raise UnknownKindError
"#
    );
    let mut s = JobSpec::new(JobLang::Python, src, "parse").sym_str("msg", 4);
    s.budget = 50_000_000; // effectively unbounded: explore to completion
    s
}

/// A wide target that keeps a worker busy for the whole test: 8 symbolic
/// scan positions give it orders of magnitude more paths than fit in the
/// test's runtime at 10k-instruction slices.
fn long_spec() -> JobSpec {
    let src = r##"
def scan(msg):
    n = 0
    i = 0
    while i < 8:
        if msg[i] == "@":
            n = n + 2
        if msg[i] == "#":
            n = n + 3
        i = i + 1
    return n
"##;
    let mut s = JobSpec::new(JobLang::Python, src, "scan").sym_str("msg", 8);
    s.budget = 50_000_000;
    s
}

/// A trivial target: two paths, finishes within one checkpoint slice.
fn short_spec() -> JobSpec {
    let src = "def f(s):\n    if s[0] == \"A\":\n        return 1\n    return 0\n";
    let mut s = JobSpec::new(JobLang::Python, src, "f").sym_str("s", 1);
    s.budget = 50_000_000;
    s
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chef-sched-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_daemon(
    dir: &Path,
    workers: usize,
    max_sessions: usize,
    max_connections: usize,
) -> (Client, String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServeConfig {
        ff_mode: Default::default(),
        addr: "127.0.0.1:0".into(),
        data_dir: dir.to_path_buf(),
        // Small slices: sessions genuinely interleave on the pool.
        checkpoint_interval_ll: 10_000,
        workers,
        max_sessions,
        max_connections,
        ..Default::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run());
    (Client::new(addr.clone()), addr, handle)
}

fn direct_set(spec: &JobSpec) -> InputSet {
    let prog = spec.build().unwrap();
    let report = Chef::new(&prog, spec.chef_config()).run();
    report.tests.iter().map(|t| t.canonical_key()).collect()
}

fn daemon_set(client: &Client, session: &str) -> InputSet {
    client
        .results(session)
        .unwrap()
        .iter()
        .map(|t| t.canonical_key())
        .collect()
}

/// The multi-tenant determinism guarantee: K sessions interleaved on a
/// 2-worker pool produce byte-identical canonical test sets to the same
/// sessions run one-at-a-time — and both match the direct engine run.
#[test]
fn pooled_sessions_match_sequential_and_direct_runs() {
    let specs = [branchy_spec(7), branchy_spec(11), branchy_spec(13)];
    let want: Vec<InputSet> = specs.iter().map(direct_set).collect();
    assert!(want[0].len() >= 4, "targets have real breadth");

    // Concurrent: all three sessions share a 2-worker pool.
    let dir = tmpdir("pool");
    let (client, _, handle) = start_daemon(&dir, 2, 32, 128);
    let ids: Vec<String> = specs.iter().map(|s| client.submit(s).unwrap()).collect();
    let mut preempted = 0u64;
    for id in &ids {
        let st = client.wait_settled(id, Duration::from_secs(120)).unwrap();
        assert_eq!(st.state, "done");
        assert!(st.sched_slices >= 1);
        preempted += st.preemptions;
    }
    let pooled: Vec<InputSet> = ids.iter().map(|id| daemon_set(&client, id)).collect();
    assert!(
        preempted >= 1,
        "sessions were actually preempted mid-exploration, not run whole"
    );
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();

    // Sequential: same specs, one at a time on a 1-worker pool.
    let dir_seq = tmpdir("pool-seq");
    let (client, _, handle) = start_daemon(&dir_seq, 1, 32, 128);
    let mut sequential: Vec<InputSet> = Vec::new();
    for spec in &specs {
        let id = client.submit(spec).unwrap();
        let st = client.wait_settled(&id, Duration::from_secs(120)).unwrap();
        assert_eq!(st.state, "done");
        sequential.push(daemon_set(&client, &id));
    }
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();

    for (i, want) in want.iter().enumerate() {
        assert_eq!(&pooled[i], want, "pooled == direct for target {i}");
        assert_eq!(&sequential[i], want, "sequential == direct for target {i}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir_seq);
}

/// Fair-share scheduling means a long-running session cannot starve a
/// short one, even on a single-worker pool: the short session joins at the
/// queue's virtual time and gets the next slice.
#[test]
fn long_session_does_not_starve_short_one() {
    let dir = tmpdir("starve");
    let (client, _, handle) = start_daemon(&dir, 1, 32, 128);

    let long_id = client.submit(&long_spec()).unwrap();
    let short_id = client.submit(&short_spec()).unwrap();
    let st = client
        .wait_settled(&short_id, Duration::from_secs(120))
        .unwrap();
    assert_eq!(st.state, "done", "short session completed behind long one");
    assert!(!daemon_set(&client, &short_id).is_empty());

    // The long session is still being scheduled...
    let long_st = client.status(&long_id).unwrap();
    assert_eq!(long_st.state, "running");
    // ...and parks checkpointed on pause, freeing its admission slot.
    client.pause(&long_id).unwrap();
    let long_st = client
        .wait_settled(&long_id, Duration::from_secs(120))
        .unwrap();
    assert_eq!(long_st.state, "paused");
    assert!(long_st.sched_slices >= 1);

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    // The drain left the pause durable: a restart would resume from here.
    let corpus = Corpus::open(&dir).unwrap();
    assert_eq!(
        corpus.load_state(&long_id).unwrap().as_deref(),
        Some("paused")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Admission control: submits beyond `max_sessions` get the typed
/// capacity rejection (not a silent queue), and a freed slot readmits.
#[test]
fn admission_control_rejects_and_readmits() {
    let dir = tmpdir("admit");
    let (client, _, handle) = start_daemon(&dir, 1, 1, 128);

    let first = client.submit(&long_spec()).unwrap();
    match client.submit(&short_spec()) {
        Err(ServeError::Busy { retry_after_ms }) => {
            assert!(retry_after_ms > 0, "rejection carries a backoff hint");
        }
        other => panic!("expected capacity rejection, got {other:?}"),
    }

    // Settling the first session frees its slot.
    client.pause(&first).unwrap();
    let st = client
        .wait_settled(&first, Duration::from_secs(120))
        .unwrap();
    assert_eq!(st.state, "paused");
    let second = client.submit(&short_spec()).unwrap();
    let st = client
        .wait_settled(&second, Duration::from_secs(120))
        .unwrap();
    assert_eq!(st.state, "done");

    // Resume competes for admission like a submit: with the slot taken
    // again, resuming the paused session is a capacity rejection too.
    let third = client.submit(&long_spec()).unwrap();
    match client.resume(&first) {
        Err(ServeError::Busy { .. }) => {}
        other => panic!("expected capacity rejection on resume, got {other:?}"),
    }
    client.pause(&third).unwrap();
    client
        .wait_settled(&third, Duration::from_secs(120))
        .unwrap();

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The accept loop rejects connections beyond `max_connections` with a
/// typed one-frame `busy` response instead of spawning unbounded handler
/// threads (or silently slamming the socket), and recovers once held
/// connections close.
#[test]
fn connection_cap_bounds_concurrent_connections() {
    let dir = tmpdir("conncap");
    let (client, addr, handle) = start_daemon(&dir, 1, 32, 2);

    // Two held-open connections fill the cap.
    let held1 = TcpStream::connect(&addr).unwrap();
    let held2 = TcpStream::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    // The third gets the typed rejection, so clients can tell capacity
    // pushback from a crashed daemon.
    match client.list() {
        Err(ServeError::Busy { retry_after_ms }) => {
            assert!(retry_after_ms > 0, "rejection carries a backoff hint");
        }
        other => panic!("expected typed busy rejection at cap, got {other:?}"),
    }

    drop(held1);
    drop(held2);
    std::thread::sleep(Duration::from_millis(100));
    assert!(client.list().is_ok(), "cap frees as connections close");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The daemon clamps the client-supplied `results` limit server-side: a
/// zero limit still returns one test, and no reply exceeds the page size.
#[test]
fn results_limit_is_clamped_server_side() {
    let dir = tmpdir("clamp");
    let (client, _, handle) = start_daemon(&dir, 1, 32, 128);
    let id = client.submit(&short_spec()).unwrap();
    let st = client.wait_settled(&id, Duration::from_secs(120)).unwrap();
    assert_eq!(st.state, "done");
    assert!(st.corpus_tests >= 2);

    let page = client.results_page(&id, 0, Some(0)).unwrap();
    assert_eq!(page.tests.len(), 1, "limit 0 is clamped up to 1");
    assert!(!page.done);
    let page = client.results_page(&id, 0, Some(10_000_000)).unwrap();
    assert!(
        page.tests.len() <= RESULTS_PAGE,
        "limit clamped to page size"
    );
    assert!(page.done);

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fair-share accounting with concrete fast-forward on: fast-forwarded
/// instructions are charged to `ll_instructions` exactly like symbolic
/// ones, so equal-quota sessions advance at equal (charged) rates and the
/// Jain fairness index over their served instructions stays high. If
/// concrete segments ran off the books, the fast-forwarding session would
/// race ahead of its fair share and the index would collapse.
#[test]
fn fair_share_holds_with_fast_forward_on() {
    /// Jain's fairness index: 1.0 = perfectly equal shares.
    fn jain(xs: &[f64]) -> f64 {
        let n = xs.len() as f64;
        let sum: f64 = xs.iter().sum();
        let sq: f64 = xs.iter().map(|x| x * x).sum();
        if sq == 0.0 {
            return 1.0;
        }
        (sum * sum) / (n * sq)
    }

    /// `long_spec` variants: same shape, distinct corpus targets.
    fn wide_spec(ret: i64) -> JobSpec {
        let src = format!(
            r##"
def scan(msg):
    n = 0
    i = 0
    while i < 8:
        if msg[i] == "@":
            n = n + 2
        if msg[i] == "#":
            n = n + {ret}
        i = i + 1
    return n
"##
        );
        let mut s = JobSpec::new(JobLang::Python, src, "scan").sym_str("msg", 8);
        s.budget = 50_000_000;
        s
    }

    let dir = tmpdir("jain-ff");
    let (client, _, handle) = start_daemon(&dir, 1, 32, 128);
    let ids: Vec<String> = [3, 5, 7]
        .iter()
        .map(|r| client.submit(&wide_spec(*r)).unwrap())
        .collect();

    // Let every session accumulate a meaningful number of slices.
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        let statuses: Vec<_> = ids.iter().map(|id| client.status(id).unwrap()).collect();
        if statuses.iter().all(|st| st.sched_slices >= 6) {
            let served: Vec<f64> = statuses
                .iter()
                .map(|st| st.ll_instructions as f64)
                .collect();
            assert!(
                served.iter().all(|&x| x > 0.0),
                "every session made progress: {served:?}"
            );
            let index = jain(&served);
            assert!(
                index > 0.9,
                "equal-quota sessions served unequally with fast-forward on: \
                 jain={index:.3} over {served:?}"
            );
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sessions failed to accumulate 6 slices each in time"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    for id in &ids {
        client.pause(id).unwrap();
        client.wait_settled(id, Duration::from_secs(120)).unwrap();
    }
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every `status` figure of a settled session except the ones that move
/// with its neighbors (`cpu_share`) or the queue (`queue_position`).
#[derive(Debug, PartialEq)]
struct Settled {
    state: String,
    tests: (u64, u64, u64),
    ll_instructions: u64,
    tests_per_sec: f64,
    resume: (u64, u64),
    sched: (u64, u64, u64),
    watchdog: (u64, u64),
}

fn settled_view(st: &SessionStatus) -> Settled {
    Settled {
        state: st.state.clone(),
        tests: (st.new_tests, st.seeded_tests, st.corpus_tests),
        ll_instructions: st.ll_instructions,
        tests_per_sec: st.tests_per_sec,
        resume: (st.resume_snapshot_seeds, st.resume_full_seeds),
        sched: (st.sched_slices, st.preemptions, st.wait_ms),
        watchdog: (st.watchdog_aborts, st.poisoned_seeds),
    }
}

/// `cpu_share` divides by one daemon-wide total, so the shares of all
/// sessions add up to 1 (each is rounded to 3 decimals on the wire).
fn assert_shares_sum_to_one(listed: &[SessionStatus]) {
    let sum: f64 = listed.iter().map(|s| s.cpu_share).sum();
    let slack = 0.0005 * listed.len() as f64 + 1e-9;
    assert!((sum - 1.0).abs() <= slack, "cpu shares sum to {sum}");
}

/// The daemon's memory must not grow with the jobs it has run: beyond
/// `SETTLED_IN_MEMORY` settled sessions the registry drops the oldest, and
/// a dropped session still answers status, results and listing from disk
/// exactly as before — and, since its counters are on disk, after a
/// restart too.
#[test]
fn settled_sessions_beyond_the_registry_cap_rehydrate_from_disk() {
    let dir = tmpdir("registry");
    let (client, _, handle) = start_daemon(&dir, 1, 32, 128);
    let spec = short_spec();
    let want = direct_set(&spec);
    let mut ids = Vec::new();
    let mut at_settle = Vec::new();
    for _ in 0..SETTLED_IN_MEMORY + 6 {
        let id = client.submit(&spec).unwrap();
        let st = client.wait_settled(&id, Duration::from_secs(120)).unwrap();
        assert_eq!(st.state, "done");
        ids.push(id);
        at_settle.push(settled_view(&st));
    }
    // The first session filled the corpus; the rest warm-started from it.
    assert_eq!(at_settle[0].tests.0 as usize, want.len());
    assert_eq!(at_settle[1].tests.1 as usize, want.len());
    // The last settled session is still held by its pool worker when it
    // settles, hence the one spare slot.
    let in_memory = client.stats().unwrap().sessions as usize;
    assert!(
        in_memory <= SETTLED_IN_MEMORY + 1,
        "registry holds {in_memory} sessions"
    );
    // The first session was dropped; it rehydrates with its final state,
    // every counter it reported in memory, and its corpus.
    let first = client.status(&ids[0]).unwrap();
    assert_eq!(settled_view(&first), at_settle[0]);
    assert_eq!(daemon_set(&client, &ids[0]), want);
    // Listing every session rehydrates them one by one, and the registry
    // stays bounded throughout.
    let listed = client.list().unwrap();
    assert_eq!(listed.len(), ids.len());
    let views: Vec<Settled> = listed.iter().map(settled_view).collect();
    assert_eq!(views, at_settle);
    assert_shares_sum_to_one(&listed);
    assert!(client.stats().unwrap().sessions as usize <= SETTLED_IN_MEMORY + 1);
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();

    // A restarted daemon reports the same figures.
    let (client, _, handle) = start_daemon(&dir, 1, 32, 128);
    let listed = client.list().unwrap();
    let views: Vec<Settled> = listed.iter().map(settled_view).collect();
    assert_eq!(views, at_settle);
    assert_shares_sum_to_one(&listed);
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
