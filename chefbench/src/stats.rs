//! Sample statistics, failure accounting, and the result line.

use std::fmt::Write as _;

/// Median of a sample set (mean of the two middle values for even
/// counts); `0.0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A tail latency: the highest whole percentile that still has at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. 90 for p90).
    pub pct: u32,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Fewest samples for which [`tail`] is defined.
pub const TAIL_MIN_SAMPLES: usize = TAIL_BEYOND + 1;

/// Sessions (jobs) the end-to-end tail is taken over: whole rounds of
/// every workload's plan (4 fork_dense targets, 8-job serve cycles), and
/// fewer than a run at the reference machine's speed settles in 20 s. The
/// tail over 48 is p79.
pub const TAIL_SAMPLES: usize = 48;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it,
/// or `None` with fewer than [`TAIL_MIN_SAMPLES`] samples.
///
/// With nearest-rank percentiles the p-th percentile is the sample of rank
/// `ceil(p·n/100)`, which leaves `n - rank` samples beyond it; the largest
/// `p` keeping `rank ≤ n - 10` is `floor(100·(n-10)/n)`.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n < TAIL_MIN_SAMPLES {
        return None;
    }
    let pct = (100 * (n - TAIL_BEYOND) / n) as u32;
    let rank = (pct as usize * n).div_ceil(100).max(1);
    Some(Tail {
        pct,
        value: sorted(samples)[rank - 1],
        n,
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Attempted and failed operations of one run. An operation is a session
/// (exploration workloads) or a daemon job attempt (`serve_sessions`); a
/// refused submit is an attempt that failed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: a check mismatch, a session that did not
    /// settle `done`, or an admission rejection.
    pub failed: u64,
    /// One line per failure, printed to stderr.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Counts a failure of an attempted operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.failures.push(why.into());
    }

    /// Records a problem with an operation already counted as failed (or
    /// not an operation at all, like counter drift): it makes the run
    /// incorrect without adding to `failed`.
    pub fn note(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    /// `failed ÷ attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.attempted > 0
    }
}

/// Named metrics in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds (or replaces) a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(e) => {
                e.1 = value;
                e.2 = unit;
            }
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    /// The value of a metric, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Metric names, in insertion order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _, _)| n.as_str())
    }

    /// One `name = value unit` line per metric.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.entries {
            let _ = writeln!(out, "{name} = {value} {unit}");
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed`, and every metric
    /// as `{"value": v, "unit": u}`.
    pub fn result_json(&self, tally: &Tally) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            tally.correct(),
            tally.attempted,
            tally.failed
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with all its digits (`null` is never produced: NaN and
/// infinities, which no metric should reach, print as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None, "10 samples leave none to report");
        for n in TAIL_MIN_SAMPLES..400 {
            let samples: Vec<f64> = (1..=n).rev().map(|i| i as f64).collect();
            let t = tail(&samples).expect("defined");
            let beyond = samples.iter().filter(|&&v| v > t.value).count();
            assert!(beyond >= TAIL_BEYOND, "n={n}: {beyond} beyond p{}", t.pct);
            assert_eq!(t.n, n);
            // One percentile higher would leave fewer than ten beyond.
            let next_rank = ((t.pct as usize + 1) * n).div_ceil(100);
            assert!(
                n - next_rank < TAIL_BEYOND,
                "n={n}: p{} not the highest",
                t.pct
            );
        }
    }

    #[test]
    fn tail_picks_documented_percentiles() {
        let s = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&s(11)).map(|t| (t.pct, t.value)), Some((9, 1.0)));
        assert_eq!(tail(&s(20)).map(|t| (t.pct, t.value)), Some((50, 10.0)));
        assert_eq!(tail(&s(100)).map(|t| (t.pct, t.value)), Some((90, 90.0)));
        assert_eq!(tail(&s(1000)).map(|t| (t.pct, t.value)), Some((99, 990.0)));
        assert_eq!(
            tail(&s(TAIL_SAMPLES)).map(|t| (t.pct, t.value)),
            Some((79, 38.0))
        );
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn failed_frac_counts_refusals_and_mismatches() {
        let mut t = Tally::default();
        assert!(!t.correct(), "a run that attempted nothing is not correct");
        for _ in 0..8 {
            t.attempt();
        }
        assert!(t.correct());
        assert_eq!(t.failed_frac(), 0.0);
        // A refused submit is an attempt that failed.
        t.attempt();
        t.fail("submit refused: busy");
        // A replay mismatch fails its session.
        t.fail("test 3 diverged on replay");
        assert_eq!(t.failed, 2);
        assert_eq!(t.attempted, 9);
        assert!((t.failed_frac() - 2.0 / 9.0).abs() < 1e-12);
        assert!(!t.correct());
        // Counter drift makes the run incorrect without failing an attempt.
        let mut d = Tally::default();
        d.attempt();
        d.note("counter drift");
        assert_eq!(d.failed, 0);
        assert!(!d.correct());
        t.absorb(d);
        assert_eq!((t.attempted, t.failed, t.failures.len()), (10, 2, 3));
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.25, "ms");
        m.put("setup_s", 0.5, "s");
        m.put("setup_s", 0.75, "s");
        let mut t = Tally::default();
        t.attempt();
        assert_eq!(
            m.result_json(&t),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.75, \"unit\": \"s\"}}}"
        );
    }
}
