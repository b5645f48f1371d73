//! The benchmark's own statistics: nearest-rank percentiles that refuse
//! to report a tail the sample cannot support, medians, a seeded RNG,
//! failure accounting, and open-loop (due-time) latency bookkeeping.

use std::time::Duration;

/// Samples that must lie strictly beyond a percentile for it to be
/// reported: with fewer, the "percentile" is just one of the slowest
/// few samples and says nothing about the tail.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending) at quantile `q` in
/// `(0, 1]`: the smallest sample with at least `q·n` samples at or below
/// it. `None` when the sample is empty or fewer than [`MIN_BEYOND`]
/// samples lie beyond that rank.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The median (mean of the two middle samples for even `n`); `None`
/// when empty. The median is always reported, whatever `n` is.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Sorts a sample ascending (NaN-free input).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Median of an unsorted sample (0 when empty, for "no work" layers).
pub fn median_of(v: &[f64]) -> f64 {
    median(&sorted(v.to_vec())).unwrap_or(0.0)
}

/// Times `run(false)` and `run(true)` back to back as pair `i`
/// (untraced, traced); odd pairs run the traced side first, so whatever
/// the first run of a pair leaves warm for the second cancels out.
pub fn pair_alternating(i: usize, run: &dyn Fn(bool) -> f64) -> (f64, f64) {
    if i.is_multiple_of(2) {
        let off = run(false);
        (off, run(true))
    } else {
        let on = run(true);
        (run(false), on)
    }
}

/// The cost of tracing, in percent: the median over adjacent
/// `(untraced, traced)` timing pairs of traced ÷ untraced − 1. Pairing
/// cancels the host's drift between pairs; the median is a difference
/// of noisy timings, so it can read slightly below 0.
pub fn overhead_pct(pairs: &[(f64, f64)]) -> f64 {
    let ratios: Vec<f64> = pairs.iter().map(|&(off, on)| on / off - 1.0).collect();
    median_of(&ratios) * 100.0
}

/// SplitMix64: a tiny seeded generator, so every input the benchmark
/// draws is a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `lane`.
    pub fn new(seed: u64, lane: u64) -> Self {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// How one attempted operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered, and (where checked) byte-identical to the reference.
    Ok,
    /// The server refused it (503 overload shed).
    Refused,
    /// No answer within the client timeout.
    TimedOut,
    /// Answered with a wrong status or wrong bytes.
    Wrong,
    /// Any other transport failure.
    Error,
}

impl Outcome {
    /// Classifies a client call: the HTTP status (if any answer came),
    /// whether the body matched, or the I/O error kind.
    pub fn classify(result: Result<(u16, bool), std::io::ErrorKind>) -> Outcome {
        use std::io::ErrorKind;
        match result {
            Ok((200, true)) => Outcome::Ok,
            Ok((503, _)) => Outcome::Refused,
            Ok((504, _)) => Outcome::TimedOut,
            Ok(_) => Outcome::Wrong,
            Err(ErrorKind::TimedOut | ErrorKind::WouldBlock) => Outcome::TimedOut,
            Err(_) => Outcome::Error,
        }
    }
}

/// Attempted/failed counts: every outcome but [`Outcome::Ok`] fails.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, refused, timed out or wrong.
    pub failed: u64,
}

impl Tally {
    /// Counts one outcome.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        if outcome != Outcome::Ok {
            self.failed += 1;
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn error_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The open-loop schedule: request `i` is due at `i / rate` seconds,
/// whether or not earlier requests have been answered.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Requests per second.
    pub rate: f64,
}

impl Schedule {
    /// When request `i` is due, relative to the run's origin.
    pub fn due(&self, i: u64) -> Duration {
        Duration::from_secs_f64(i as f64 / self.rate)
    }

    /// Requests due strictly before `horizon`.
    pub fn count_before(&self, horizon: Duration) -> u64 {
        (horizon.as_secs_f64() * self.rate).ceil() as u64
    }
}

/// Per-request open-loop accounting. Latency runs from when a request
/// was *due*, not from when it was sent, so a stall is charged to every
/// request queued behind it (no coordinated omission); lateness is how
/// far behind schedule the generator sent it.
#[derive(Debug, Default, Clone)]
pub struct OpenLoopLedger {
    /// Due-time latencies of successful requests, in ms.
    pub latency_ms: Vec<f64>,
    /// Send lateness of every attempted request, in ms.
    pub late_ms: Vec<f64>,
    /// Attempted/failed counts.
    pub tally: Tally,
}

impl OpenLoopLedger {
    /// Records one request that was due at `due`, sent at `sent` and
    /// finished at `done` (all relative to the run's origin).
    pub fn record(&mut self, due: Duration, sent: Duration, done: Duration, outcome: Outcome) {
        self.tally.record(outcome);
        self.late_ms.push(ms(sent.saturating_sub(due)));
        if outcome == Outcome::Ok {
            self.latency_ms.push(ms(done.saturating_sub(due)));
        }
    }

    /// Merges another sender's ledger.
    pub fn merge(&mut self, other: OpenLoopLedger) {
        self.latency_ms.extend(other.latency_ms);
        self.late_ms.extend(other.late_ms);
        self.tally.merge(other.tally);
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_the_quantile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.01), Some(1.0));
        assert_eq!(median(&v), Some(50.5));
        assert_eq!(median(&[3.0]), Some(3.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 leaves exactly 10 beyond; p91 leaves 9.
        assert_eq!(percentile(&v, 0.90), Some(90.0));
        assert_eq!(percentile(&v, 0.91), None);
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), None, "999 samples leave 9 beyond p99");
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[]), None);
    }

    /// One sender serving a 1 kHz schedule under a fake clock; the
    /// server stalls 50 ms on request 2, so requests 3.. are sent late and
    /// their due-time latency carries the wait the stall imposed.
    #[test]
    fn open_loop_charges_a_stall_to_the_requests_queued_behind_it() {
        let sched = Schedule { rate: 1000.0 };
        let mut now = Duration::ZERO;
        let service = |i: u64| Duration::from_millis(if i == 2 { 50 } else { 0 });
        let mut ledger = OpenLoopLedger::default();
        for i in 0..10 {
            let due = sched.due(i);
            now = now.max(due);
            let sent = now;
            now += service(i);
            ledger.record(due, sent, now, Outcome::Ok);
        }
        let at = |v: &Vec<f64>, i: usize| (v[i] * 1e6).round() / 1e6;
        assert_eq!(at(&ledger.latency_ms, 0), 0.0);
        assert_eq!(at(&ledger.latency_ms, 2), 50.0);
        // Request 3 was due at 3 ms and could only go at 52 ms.
        assert_eq!(at(&ledger.late_ms, 3), 49.0);
        assert_eq!(at(&ledger.latency_ms, 3), 49.0);
        assert_eq!(at(&ledger.latency_ms, 9), 43.0);
        // A closed loop timing from send would have seen 0 ms here.
        assert_eq!(
            ledger.tally,
            Tally {
                attempted: 10,
                failed: 0
            }
        );
        assert_eq!(sched.count_before(Duration::from_millis(10)), 10);
    }

    #[test]
    fn refused_timed_out_and_wrong_requests_count_as_failures() {
        use std::io::ErrorKind;
        let cases = [
            (Ok((200, true)), Outcome::Ok),
            (Ok((200, false)), Outcome::Wrong),
            (Ok((503, false)), Outcome::Refused),
            (Ok((504, false)), Outcome::TimedOut),
            (Ok((500, false)), Outcome::Wrong),
            (Err(ErrorKind::TimedOut), Outcome::TimedOut),
            (Err(ErrorKind::WouldBlock), Outcome::TimedOut),
            (Err(ErrorKind::ConnectionReset), Outcome::Error),
        ];
        let mut tally = Tally::default();
        let mut ledger = OpenLoopLedger::default();
        for (input, want) in cases {
            let got = Outcome::classify(input);
            assert_eq!(got, want, "{input:?}");
            tally.record(got);
            ledger.record(
                Duration::ZERO,
                Duration::ZERO,
                Duration::from_millis(1),
                got,
            );
        }
        assert_eq!(
            tally,
            Tally {
                attempted: 8,
                failed: 7
            }
        );
        assert_eq!(ledger.latency_ms.len(), 1, "only successes carry a latency");
        assert_eq!(ledger.late_ms.len(), 8);
        assert!((tally.error_ratio() - 7.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn tracing_overhead_is_the_median_paired_ratio() {
        // The third pair's host stall does not move the median.
        let pairs = [(1.0, 1.1), (2.0, 2.2), (1.0, 5.0)];
        assert!((overhead_pct(&pairs) - 10.0).abs() < 1e-9);
        assert!(overhead_pct(&[(2.0, 1.9)]) < 0.0);
    }

    #[test]
    fn the_rng_is_a_pure_function_of_seed_and_lane() {
        let draw = |seed, lane| {
            let mut r = Rng::new(seed, lane);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        let mut v: Vec<u32> = (0..32).collect();
        Rng::new(3, 0).shuffle(&mut v);
        let mut s = v.clone();
        s.sort_unstable();
        assert_eq!(s, (0..32).collect::<Vec<_>>());
        assert_ne!(v, s);
    }
}
