//! What every workload shares: its parameters, the report it hands
//! back, and the timing loops for set-up and measured rounds.

use std::time::Instant;

use crate::speed::Probed;
use crate::stats::median;
use crate::trace::Span;

pub struct Params {
    pub seed: u64,
    /// Target length of the measured phase.
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Default)]
pub struct Report {
    /// Output-producing operations (compiles, simulations, requests,
    /// tables) across all rounds, and how many were wrong or failed.
    pub attempted: u64,
    pub failed: u64,
    /// The wall time of one measured round, as the workload estimates
    /// it from its rounds (see [`unit_medians`]).
    pub wall_s: f64,
    /// Raw wall time of each measured round, in seconds.
    pub rounds: Vec<f64>,
    /// Wall time of each set-up repetition, each followed by a probe of
    /// the machine's speed.
    pub setups: Probed,
    /// The median probe of the machine's speed over the measured rounds,
    /// in seconds (0 where they were not probed).
    pub probe_s: f64,
    /// Workload-specific end-to-end metrics.
    pub extras: Vec<(&'static str, f64)>,
    /// Sample counts behind the extras (percentiles and rates).
    pub samples: Vec<(&'static str, u64)>,
    /// Per-layer metrics (traced runs only); `None` is unavailable.
    pub layers: Vec<(&'static str, Option<f64>)>,
    pub spans: Vec<Span>,
}

impl Report {
    /// Counts `n` operations, `bad` of which failed a check.
    pub fn ops(&mut self, n: usize, bad: usize) {
        self.attempted += n as u64;
        self.failed += bad as u64;
    }
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Runs `setup` `reps` times and returns the last result. `setup` times
/// its own parts with [`Probed::time_part`], so that a long set-up is
/// probed between its parts; each repetition is one group. The median
/// of several repetitions is what gets reported. Workloads whose set-up
/// takes milliseconds set up once before the first round and repeat it
/// after each round: the repetitions then land at several moments of
/// the run, in a warmed process, where a burst of back-to-back
/// repetitions at process start would all share one moment's load.
pub fn repeated_setup<T>(
    reps: usize,
    report: &mut Report,
    mut setup: impl FnMut(&mut Probed) -> Result<T, String>,
) -> Result<T, String> {
    let mut last = None;
    for _ in 0..reps {
        let out = setup(&mut report.setups);
        report.setups.end_group();
        last = Some(out?);
    }
    last.ok_or_else(|| "no set-up repetitions".to_string())
}

/// Runs identical rounds of `round` for about `seconds`: at least one,
/// and another only while it is expected to finish in time. Each
/// round's output goes to `check` outside the timed window.
pub fn timed_rounds<T>(
    seconds: f64,
    report: &mut Report,
    mut round: impl FnMut() -> Result<T, String>,
    mut check: impl FnMut(T, &mut Report) -> Result<(), String>,
) -> Result<(), String> {
    let mut measured = 0.0;
    loop {
        let (out, wall) = timed(&mut round);
        report.rounds.push(wall);
        measured += wall;
        check(out?, report)?;
        if measured + wall > seconds {
            return Ok(());
        }
    }
}

/// Each unit's median time over identical rounds, from
/// `times[round][unit]`; their sum estimates a round's wall time. Where
/// cores are shared with other tenants, their bursts slow everything
/// for seconds at a time; an estimate built from per-unit medians moves
/// only if a burst covers most of a unit's repetitions, where a plain
/// round total moves with every burst.
pub fn unit_medians(times: &[Vec<f64>]) -> Vec<f64> {
    let units = times.first().map_or(0, Vec::len);
    (0..units)
        .map(|u| median(&times.iter().map(|r| r[u]).collect::<Vec<_>>()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_medians_ignore_a_burst_in_a_minority_of_rounds() {
        // Three rounds of three units; round 1 was slowed for unit 0
        // and 1, round 2 for unit 2.
        let times = vec![
            vec![1.0, 2.0, 3.0],
            vec![5.0, 9.0, 3.0],
            vec![1.0, 2.0, 8.0],
        ];
        assert_eq!(unit_medians(&times), [1.0, 2.0, 3.0]);
        assert!(unit_medians(&[]).is_empty());
    }
}
