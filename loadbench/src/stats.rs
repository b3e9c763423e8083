//! Sample statistics, the open-loop schedule, and server histogram
//! deltas read from the `Stats` frame.

use std::time::{Duration, Instant};

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The nearest-rank `q` quantile of `values`, reported only when at
/// least ten samples lie beyond it: a p99 needs 1000 samples.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n == 0 || n - rank.min(n) < 10 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// A time source the open-loop generator reads and sleeps on; the tests
/// substitute a virtual clock.
pub trait Clock {
    /// Nanoseconds since the clock's origin.
    fn now_ns(&self) -> u64;
    /// Block until `now_ns() >= at`.
    fn sleep_until(&self, at: u64);
}

/// The wall clock, from the instant it was made.
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn sleep_until(&self, at: u64) {
        let now = self.now_ns();
        if at > now {
            std::thread::sleep(Duration::from_nanos(at - now));
        }
    }
}

/// When each request of an open loop was due, sent and completed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timing {
    /// When the schedule wanted it sent.
    pub due_ns: u64,
    /// When it was sent (never before `due_ns`).
    pub sent_ns: u64,
    /// When its reply arrived (0 if it has not).
    pub done_ns: u64,
}

impl Timing {
    /// Latency charged to the request: from its due time, so a stall
    /// is charged to every request due behind it.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator sent it.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

/// Due times of `count` requests at `rate_per_s`, evenly spaced from
/// `start_ns`.
pub fn schedule(start_ns: u64, rate_per_s: f64, count: usize) -> Vec<u64> {
    let gap = 1e9 / rate_per_s;
    (0..count)
        .map(|i| start_ns + (i as f64 * gap) as u64)
        .collect()
}

/// Run an open loop: for each due time, wait for it, then call
/// `send(i)`. `send` returns `true` once the reply has arrived (a
/// blocking call) or `false` when replies are collected elsewhere (a
/// pipelined sender); only in the first case is `done_ns` filled.
/// `after(i)` runs once request `i` is timed, before the wait for the
/// next one, so checking a reply there is never charged to a request.
pub fn open_loop(
    clock: &impl Clock,
    due: &[u64],
    mut send: impl FnMut(usize) -> bool,
    mut after: impl FnMut(usize),
) -> Vec<Timing> {
    let mut timings = Vec::with_capacity(due.len());
    for (i, &due_ns) in due.iter().enumerate() {
        clock.sleep_until(due_ns);
        let sent_ns = clock.now_ns();
        let replied = send(i);
        timings.push(Timing {
            due_ns,
            sent_ns,
            done_ns: if replied { clock.now_ns() } else { 0 },
        });
        after(i);
    }
    timings
}

// ---- server histograms ---------------------------------------------------

/// One power-of-two histogram from the `Stats` frame's `metrics`
/// section: `(inclusive upper bound, count)` buckets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Hist {
    /// Observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Non-empty buckets, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl Hist {
    /// Read histogram `name` out of a `Stats` JSON reply (empty when
    /// the server has not observed it yet).
    pub fn from_stats(stats: &serde_json::Value, name: &str) -> Hist {
        let Some(entry) = stats
            .get("metrics")
            .and_then(|m| m.get("histograms"))
            .and_then(|h| h.get(name))
        else {
            return Hist::default();
        };
        let buckets = entry
            .get("buckets")
            .and_then(|b| b.as_seq())
            .unwrap_or(&[])
            .iter()
            .filter_map(|pair| Some((pair[0].as_u64()?, pair[1].as_u64()?)))
            .collect();
        Hist {
            count: entry.get("count").and_then(|c| c.as_u64()).unwrap_or(0),
            sum: entry.get("sum").and_then(|s| s.as_u64()).unwrap_or(0),
            buckets,
        }
    }

    /// What was observed between `earlier` and `self`.
    pub fn since(&self, earlier: &Hist) -> Hist {
        let buckets = self
            .buckets
            .iter()
            .map(|&(upper, count)| {
                let before = earlier
                    .buckets
                    .iter()
                    .find(|(b, _)| *b == upper)
                    .map_or(0, |(_, c)| *c);
                (upper, count.saturating_sub(before))
            })
            .filter(|&(_, count)| count > 0)
            .collect();
        Hist {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            buckets,
        }
    }

    /// Quantile `q`, interpolated linearly by rank inside the
    /// power-of-two bucket that holds it (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = (self.count as f64 * q).ceil().max(1.0);
        let mut seen = 0.0;
        for &(upper, count) in &self.buckets {
            let count = count as f64;
            if seen + count >= rank {
                let lower = if upper == 0 {
                    0.0
                } else {
                    (upper / 2 + 1) as f64
                };
                return lower + (upper as f64 - lower) * (rank - seen) / count;
            }
            seen += count;
        }
        0.0
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.99), None);
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.99), Some(990.0));
        assert_eq!(percentile(&values, 0.5), Some(500.0));
        assert_eq!(percentile(&values[..19], 0.5), None);
        assert_eq!(percentile(&values[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    /// A virtual clock: sleeping jumps forward, work advances it.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn sleep_until(&self, at: u64) {
            if at > self.0.get() {
                self.0.set(at);
            }
        }
    }

    #[test]
    fn a_stalled_server_is_charged_to_the_requests_due_behind_it() {
        const MS: u64 = 1_000_000;
        let clock = FakeClock(Cell::new(0));
        let due = schedule(0, 1000.0, 20);
        // Service takes 0.1 ms, except request 5, which stalls 10 ms.
        let timings = open_loop(
            &clock,
            &due,
            |i| {
                let service = if i == 5 { 10 * MS } else { MS / 10 };
                clock.0.set(clock.0.get() + service);
                true
            },
            |_| {},
        );
        assert_eq!(timings[4].latency_ns(), MS / 10);
        assert_eq!(timings[5].latency_ns(), 10 * MS);
        // Request 6 was due at 6 ms but could only go out at 15 ms.
        assert_eq!(timings[6].late_ns(), 9 * MS);
        assert_eq!(timings[6].latency_ns(), 9 * MS + MS / 10);
        // Every request due during the stall is charged its wait, and
        // the backlog drains one service time per request.
        for (i, timing) in timings.iter().enumerate().take(16).skip(6) {
            let due_ms = i as u64;
            let done = 15 * MS + (i as u64 - 5) * MS / 10;
            assert_eq!(timing.latency_ns(), done - due_ms * MS, "request {i}");
            assert!(timing.latency_ns() > timing.done_ns - timing.sent_ns);
        }
        assert_eq!(timings[19].latency_ns(), MS / 10);
    }

    #[test]
    fn pipelined_sends_leave_completion_to_the_receiver() {
        let clock = FakeClock(Cell::new(0));
        let due = schedule(500, 2000.0, 4);
        assert_eq!(due, vec![500, 500_500, 1_000_500, 1_500_500]);
        let timings = open_loop(&clock, &due, |_| false, |_| {});
        assert!(timings.iter().all(|t| t.done_ns == 0 && t.late_ns() == 0));
    }

    #[test]
    fn histogram_deltas_subtract_bucket_by_bucket() {
        let stats: serde_json::Value = serde_json::from_str(
            r#"{"metrics":{"histograms":{"server/batch_size":
                {"count":6,"sum":40,"max":16,"buckets":[[1,2],[15,3],[31,1]]}}}}"#,
        )
        .unwrap();
        let later = Hist::from_stats(&stats, "server/batch_size");
        let earlier = Hist {
            count: 2,
            sum: 2,
            buckets: vec![(1, 2)],
        };
        let delta = later.since(&earlier);
        assert_eq!(delta.count, 4);
        assert_eq!(delta.buckets, vec![(15, 3), (31, 1)]);
        // Ranks 1-3 fall in [8, 15], rank 4 alone in [16, 31].
        assert_eq!(delta.quantile(0.5), 8.0 + 7.0 * 2.0 / 3.0);
        assert_eq!(delta.quantile(0.75), 15.0);
        assert_eq!(delta.quantile(1.0), 31.0);
        assert_eq!(delta.mean(), 9.5);
        assert_eq!(Hist::from_stats(&stats, "absent"), Hist::default());
    }
}
