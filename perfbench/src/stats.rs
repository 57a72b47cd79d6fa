//! The harness's own statistics: nearest-rank percentiles, medians, and
//! the open-loop due-time accounting.
//!
//! Percentiles use the same nearest-rank rule as the service's
//! `SloPercentiles`: the q-th percentile of n sorted samples is the value
//! at 1-based rank ⌈q·n⌉ (clamped to 1..=n), so a reported p50 or p99 is
//! always an observed sample.

use std::time::{Duration, Instant};

/// The nearest-rank `q`-quantile of `sorted` (ascending). `None` when the
/// sample is empty.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `values` and returns their nearest-rank `q`-quantile.
pub fn percentile(values: &mut [f64], q: f64) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    nearest_rank(values, q)
}

/// The median of `values` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Milliseconds as `f64`.
pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Microseconds as `f64`.
pub fn us(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

/// A fixed open-loop arrival schedule: submission `k` is due at
/// `start + k / rate`, whatever happened to earlier submissions. Latency
/// measured from the due time (not the send time) charges a stalled
/// generator's backlog to the journeys that waited behind it, which is
/// what a real client population would have seen.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// When submission 0 is due.
    pub start: Instant,
    /// Arrivals per second.
    pub rate: f64,
}

impl Schedule {
    /// The instant submission `k` is due.
    pub fn due(&self, k: u64) -> Instant {
        self.start + Duration::from_secs_f64(k as f64 / self.rate)
    }
}

/// Open-loop accounting: per-submission generator lateness (send − due)
/// and per-verdict latency (drained − due).
#[derive(Debug, Default)]
pub struct OpenLoopStats {
    /// How late each submission left the generator, in ms.
    pub late_ms: Vec<f64>,
    /// Due-to-drained latency of each verdict, in ms.
    pub latency_ms: Vec<f64>,
}

impl OpenLoopStats {
    /// Records that submission `k` was sent at `sent`.
    pub fn sent(&mut self, schedule: &Schedule, k: u64, sent: Instant) {
        self.late_ms
            .push(ms(sent.saturating_duration_since(schedule.due(k))));
    }

    /// Records that the verdict of submission `k` was drained at `drained`.
    pub fn drained(&mut self, schedule: &Schedule, k: u64, drained: Instant) {
        self.latency_ms
            .push(ms(drained.saturating_duration_since(schedule.due(k))));
    }

    /// Nearest-rank p99 of generator lateness, in ms.
    pub fn late_p99_ms(&self) -> f64 {
        percentile(&mut self.late_ms.clone(), 0.99).unwrap_or(0.0)
    }
}

/// One window of a load phase: verdicts delivered, wall time and process
/// CPU time spent, and the range of latency samples taken in it.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Verdicts delivered in the window.
    pub verdicts: u64,
    /// Wall time of the window.
    pub wall: Duration,
    /// Process CPU time (all threads) spent in the window.
    pub cpu: Duration,
    /// Indices of the latency samples taken in the window.
    pub samples: std::ops::Range<usize>,
}

impl Window {
    /// Verdicts per wall second.
    pub fn rate(&self) -> f64 {
        self.verdicts as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// CPU milliseconds per verdict.
    pub fn cpu_ms_per_verdict(&self) -> f64 {
        ms(self.cpu) / self.verdicts.max(1) as f64
    }
}

/// The median over `windows` of verdicts per wall second.
pub fn median_rate(windows: &[Window]) -> f64 {
    let rates: Vec<f64> = windows.iter().map(Window::rate).collect();
    median(&rates).unwrap_or(0.0)
}

/// Cuts a load phase into windows of about `length` each. A short run
/// of the machine — another tenant taking the core for a while — then
/// spoils a few windows instead of the whole figure, and the median over
/// windows ignores them.
#[derive(Debug)]
pub struct Windows {
    length: Duration,
    start: Instant,
    cpu_start: Duration,
    verdicts_at_start: u64,
    samples_at_start: usize,
    /// The closed windows, in order.
    pub closed: Vec<Window>,
}

impl Windows {
    /// Starts the first window now.
    pub fn new(length: Duration) -> Windows {
        Windows {
            length,
            start: Instant::now(),
            cpu_start: crate::host::cpu_time(),
            verdicts_at_start: 0,
            samples_at_start: 0,
            closed: Vec::new(),
        }
    }

    /// Notes progress (`verdicts` delivered and latency `samples` taken
    /// so far in the load phase) and closes the current window once it is
    /// `length` long.
    pub fn progress(&mut self, verdicts: u64, samples: usize) {
        if self.start.elapsed() >= self.length {
            self.close(verdicts, samples);
        }
    }

    /// Closes the current window unconditionally.
    pub fn close(&mut self, verdicts: u64, samples: usize) {
        let now = Instant::now();
        let cpu = crate::host::cpu_time();
        self.closed.push(Window {
            verdicts: verdicts - self.verdicts_at_start,
            wall: now - self.start,
            cpu: cpu.saturating_sub(self.cpu_start),
            samples: self.samples_at_start..samples,
        });
        self.start = now;
        self.cpu_start = cpu;
        self.verdicts_at_start = verdicts;
        self.samples_at_start = samples;
    }

    /// Ends the load phase: the last, partial window is closed if it is
    /// at least half a window long and folded into the previous one
    /// otherwise.
    pub fn finish(mut self, verdicts: u64, samples: usize) -> Vec<Window> {
        let partial = self.start.elapsed() < self.length / 2;
        self.close(verdicts, samples);
        if partial && self.closed.len() > 1 {
            let last = self.closed.pop().expect("two windows");
            let prev = self.closed.last_mut().expect("one window");
            prev.verdicts += last.verdicts;
            prev.wall += last.wall;
            prev.cpu += last.cpu;
            prev.samples.end = last.samples.end;
        }
        self.closed
    }
}

/// Latency percentile `q` of a load phase, as the median over groups of
/// each group's nearest-rank percentile. A group is a run of consecutive
/// windows holding at least `MIN_WINDOW_SAMPLES` samples (so its p99 has
/// ten samples beyond it); a trailing run short of that joins the group
/// before it. A stall that spoils one group then moves one value, not the
/// whole tail, and the rule is the same however many samples the last
/// window happens to hold. A phase with fewer samples than one group is a
/// single group: the percentile of all samples.
pub fn latency_percentile(latencies: &[f64], windows: &[Window], q: f64) -> f64 {
    let per_group: Vec<f64> = latency_groups(windows)
        .into_iter()
        .filter_map(|group| percentile(&mut latencies[group].to_vec(), q))
        .collect();
    median(&per_group).unwrap_or(0.0)
}

/// The sample ranges of the groups `latency_percentile` takes its
/// percentiles over.
pub fn latency_groups(windows: &[Window]) -> Vec<std::ops::Range<usize>> {
    let mut groups: Vec<std::ops::Range<usize>> = Vec::new();
    let mut open: Option<std::ops::Range<usize>> = None;
    for window in windows {
        let group = match open.take() {
            Some(group) => group.start..window.samples.end,
            None => window.samples.clone(),
        };
        if group.len() >= MIN_WINDOW_SAMPLES {
            groups.push(group);
        } else {
            open = Some(group);
        }
    }
    if let Some(rest) = open {
        match groups.last_mut() {
            Some(last) => last.end = rest.end,
            None => groups.push(rest),
        }
    }
    groups
}

/// Samples a window needs before its own p99 counts (ten beyond it).
pub const MIN_WINDOW_SAMPLES: usize = 1_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_at_one_sample_is_that_sample() {
        assert_eq!(nearest_rank(&[7u64], 0.5), Some(7));
        assert_eq!(nearest_rank(&[7u64], 0.99), Some(7));
        assert_eq!(nearest_rank::<u64>(&[], 0.5), None);
    }

    #[test]
    fn nearest_rank_at_two_samples_calls_the_smaller_one_the_median() {
        // ⌈0.5·2⌉ = 1: the smaller sample, as `SloPercentiles` reports it
        // (the old round((n-1)q) rule returned the larger one).
        assert_eq!(nearest_rank(&[10u64, 20], 0.5), Some(10));
        assert_eq!(nearest_rank(&[10u64, 20], 0.95), Some(20));
        assert_eq!(nearest_rank(&[10u64, 20], 0.99), Some(20));
    }

    #[test]
    fn nearest_rank_at_a_hundred_samples_picks_the_exact_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&sorted, 0.50), Some(50));
        assert_eq!(nearest_rank(&sorted, 0.95), Some(95));
        assert_eq!(nearest_rank(&sorted, 0.99), Some(99));
        assert_eq!(nearest_rank(&sorted, 1.0), Some(100));
    }

    #[test]
    fn percentile_sorts_first() {
        let mut values = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&mut values, 0.5), Some(3.0));
        assert_eq!(percentile(&mut values, 0.99), Some(5.0));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    fn windows_of(sizes: &[usize]) -> Vec<Window> {
        let mut start = 0;
        sizes
            .iter()
            .map(|&n| {
                let window = Window {
                    samples: start..start + n,
                    ..Window::default()
                };
                start += n;
                window
            })
            .collect()
    }

    #[test]
    fn latency_groups_fold_small_windows_into_their_neighbours() {
        let groups = |sizes: &[usize]| latency_groups(&windows_of(sizes));
        // Full windows are groups of their own.
        assert_eq!(groups(&[1_000, 1_200]), vec![0..1_000, 1_000..2_200]);
        // Small windows gather until they reach a group's worth.
        assert_eq!(groups(&[600, 600, 1_000]), vec![0..1_200, 1_200..2_200]);
        // A short last window joins the group before it, whatever its size.
        assert_eq!(groups(&[1_000, 1_000, 999]), vec![0..1_000, 1_000..2_999]);
        assert_eq!(groups(&[1_000, 1_000, 1]), vec![0..1_000, 1_000..2_001]);
        // Fewer samples than one group: all of them.
        assert_eq!(groups(&[300, 200]), vec![0..500]);
        assert!(groups(&[]).is_empty());
    }

    #[test]
    fn the_rule_does_not_switch_with_the_last_window() {
        // Four full windows whose p99s are 10, 20, 30 and 40, then a
        // leftover window of fast samples just short of or just at a
        // group's worth. Either way the result is a median over groups
        // (a pooled p99 of every sample would read 40).
        let mut latencies = Vec::new();
        for level in [10.0, 20.0, 30.0, 40.0] {
            latencies.extend(std::iter::repeat_n(level, 1_000));
        }
        let p99_with = |leftover: usize| {
            let mut samples = latencies.clone();
            samples.extend(std::iter::repeat_n(1.0, leftover));
            let windows = windows_of(&[1_000, 1_000, 1_000, 1_000, leftover]);
            latency_percentile(&samples, &windows, 0.99)
        };
        // 999: the leftover joins the 40s, whose group p99 stays 40.
        assert_eq!(p99_with(999), 25.0);
        // 1 000: a fifth group of its own with p99 1.
        assert_eq!(p99_with(1_000), 20.0);
    }

    #[test]
    fn schedule_spaces_arrivals_by_the_rate() {
        let start = Instant::now();
        let schedule = Schedule { start, rate: 200.0 };
        assert_eq!(schedule.due(0), start);
        assert_eq!(schedule.due(200) - start, Duration::from_secs(1));
        assert_eq!(schedule.due(3) - start, Duration::from_millis(15));
    }

    #[test]
    fn a_stalled_generator_shows_in_later_latency_and_lateness() {
        // 100/s: one submission every 10 ms. Each verdict comes back 2 ms
        // after its submission is sent. The generator stalls for 50 ms
        // before submission 5, then catches up by sending the backlog
        // back to back.
        let start = Instant::now();
        let schedule = Schedule { start, rate: 100.0 };
        let stall = Duration::from_millis(50);
        let mut stats = OpenLoopStats::default();
        for k in 0..10u64 {
            let due = schedule.due(k);
            let sent = if k < 5 {
                due
            } else {
                (schedule.due(5) + stall).max(due)
            };
            stats.sent(&schedule, k, sent);
            stats.drained(&schedule, k, sent + Duration::from_millis(2));
        }
        // Before the stall: service time only.
        for k in 0..5 {
            assert!((stats.latency_ms[k] - 2.0).abs() < 1e-6);
            assert!(stats.late_ms[k].abs() < 1e-6);
        }
        // Submission 5 waited out the whole stall; the backlog behind it
        // waited less and less as the schedule caught up with the send.
        assert!((stats.latency_ms[5] - 52.0).abs() < 1e-6);
        assert!((stats.latency_ms[9] - 12.0).abs() < 1e-6);
        for k in 5..9 {
            assert!(stats.latency_ms[k] > stats.latency_ms[k + 1]);
        }
        // The stall is visible in generator lateness as well.
        assert!((stats.late_p99_ms() - 50.0).abs() < 1e-6);
        let mut latency = stats.latency_ms.clone();
        assert!(percentile(&mut latency, 0.99).unwrap() >= 52.0 - 1e-6);
    }
}
