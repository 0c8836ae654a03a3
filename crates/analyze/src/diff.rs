//! Run-to-run comparison with regression thresholds.
//!
//! `ccr diff` compares two runs — freshly analyzed telemetry
//! directories, saved `analysis.json` baselines, or `BENCH_*.json`
//! suite snapshots — and reports per-region and aggregate deltas.
//! Thresholds turn the report into a gate: any breach makes the CLI
//! exit non-zero, which is how CI catches cycle-count or hit-rate
//! regressions against the committed baseline.
//!
//! Comparability is checked first: two runs with different workloads
//! or different machine/CRB configuration hashes measure different
//! things, and diffing them produces numbers that look like
//! regressions but are configuration changes. Such pairs are refused
//! unless explicitly forced.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::analysis::Analysis;
use crate::bench::BenchReport;

/// Regression thresholds. `None` disables a gate.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Thresholds {
    /// Maximum allowed CCR cycle-count growth, percent.
    pub max_cycle_regress_pct: Option<f64>,
    /// Maximum allowed hit-rate drop, percentage points.
    pub max_hit_rate_drop_pp: Option<f64>,
    /// Maximum allowed speedup drop, percent.
    pub max_speedup_drop_pct: Option<f64>,
    /// Maximum allowed host-throughput (`sim_cycles_per_host_sec`)
    /// drop, percent. Off by default — host speed varies machine to
    /// machine, so this gate only makes sense with a generous,
    /// explicitly chosen tolerance (CI uses 95%).
    pub max_host_throughput_drop_pct: Option<f64>,
}

impl Thresholds {
    /// The default CI gate: ≤2% cycle growth, ≤1pp hit-rate drop,
    /// ≤2% speedup drop. Host throughput is not gated by default.
    pub fn default_gate() -> Thresholds {
        Thresholds {
            max_cycle_regress_pct: Some(2.0),
            max_hit_rate_drop_pp: Some(1.0),
            max_speedup_drop_pct: Some(2.0),
            max_host_throughput_drop_pct: None,
        }
    }

    /// Report-only: no gate.
    pub fn none() -> Thresholds {
        Thresholds::default()
    }

    /// The one regression verdict behind `ccr diff` and `ccr report`:
    /// renders the change of `metric` from `base` to `new` and says
    /// whether it breaches. `hit_rate` moves in percentage points,
    /// every other metric in percent, where a zero base with a nonzero
    /// new value is `+inf%`. Only cycle growth (`ccr_cycles`) and drops
    /// of `hit_rate`, `speedup` and host throughput (`host_mcps`,
    /// `host_mcps_geomean`) can breach.
    pub fn judge(&self, metric: &str, base: f64, new: f64) -> (String, bool) {
        if metric == "hit_rate" {
            let pp = (new - base) * 100.0;
            let breach = self.max_hit_rate_drop_pp.is_some_and(|max| -pp > max);
            return (format!("{pp:+.2}pp"), breach);
        }
        let pct = pct_delta(base, new);
        let (limit, growth) = match metric {
            "ccr_cycles" => (self.max_cycle_regress_pct, pct),
            "speedup" => (self.max_speedup_drop_pct, -pct),
            "host_mcps" | "host_mcps_geomean" => (self.max_host_throughput_drop_pct, -pct),
            _ => (None, 0.0),
        };
        (format!("{pct:+.2}%"), limit.is_some_and(|max| growth > max))
    }
}

/// One compared metric.
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// What was compared (`total`, `region 3`, or a workload name).
    pub scope: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value.
    pub base: f64,
    /// New value.
    pub new: f64,
    /// Rendered delta (`+1.3%`, `-0.4pp`, …).
    pub delta: String,
    /// Whether this row breached its threshold.
    pub breach: bool,
}

/// The result of a diff.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// All compared metrics, aggregates first.
    pub rows: Vec<DiffRow>,
    /// Non-gating observations (regions appearing/disappearing, …).
    pub notes: Vec<String>,
    /// Human-readable breach descriptions (empty ⇒ gate passed).
    pub breaches: Vec<String>,
}

impl DiffReport {
    /// True when any threshold was breached.
    pub fn breached(&self) -> bool {
        !self.breaches.is_empty()
    }

    /// Renders the report as the text `ccr diff` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:<12} {:>14} {:>14} {:>10}",
            "scope", "metric", "base", "new", "delta"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:<24} {:<12} {:>14} {:>14} {:>10}{}",
                row.scope,
                row.metric,
                trim_float(row.base),
                trim_float(row.new),
                row.delta,
                if row.breach { "  ** BREACH" } else { "" },
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        if self.breached() {
            let _ = writeln!(out, "FAIL: {} threshold breach(es)", self.breaches.len());
            for b in &self.breaches {
                let _ = writeln!(out, "  {b}");
            }
        } else {
            let _ = writeln!(out, "OK: all deltas within thresholds");
        }
        out
    }
}

fn trim_float(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

fn pct_delta(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        if new == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (new - base) / base * 100.0
    }
}

/// Refuses incomparable pairs (different workload or config hash)
/// unless `force`; a missing hash (v1 artifacts) downgrades the check
/// to a note.
fn comparability(
    base_workload: &str,
    new_workload: &str,
    base_hash: Option<&str>,
    new_hash: Option<&str>,
    force: bool,
    report: &mut DiffReport,
) -> Result<(), String> {
    if base_workload != new_workload {
        let msg = format!("workload mismatch: base is `{base_workload}`, new is `{new_workload}`");
        if !force {
            return Err(format!("{msg}; rerun with --force to compare anyway"));
        }
        report.notes.push(format!("{msg} (forced)"));
    }
    match (base_hash, new_hash) {
        (Some(b), Some(n)) if b != n => {
            let msg = format!("config hash mismatch: base {b}, new {n}");
            if !force {
                return Err(format!(
                    "{msg}; the runs simulated different machines. \
                     Rerun with --force to compare anyway"
                ));
            }
            report.notes.push(format!("{msg} (forced)"));
        }
        (None, _) | (_, None) => {
            report.notes.push(
                "config hash unavailable on one side (v1 artifact); comparability not verified"
                    .into(),
            );
        }
        _ => {}
    }
    Ok(())
}

fn gate_row(
    report: &mut DiffReport,
    scope: &str,
    metric: &str,
    base: f64,
    new: f64,
    thresholds: &Thresholds,
) {
    let (delta, breach) = thresholds.judge(metric, base, new);
    if breach {
        report.breaches.push(format!(
            "{scope}: {metric} {} → {} ({delta})",
            trim_float(base),
            trim_float(new)
        ));
    }
    report.rows.push(DiffRow {
        scope: scope.to_string(),
        metric: metric.to_string(),
        base,
        new,
        delta,
        breach,
    });
}

/// Diffs two analyzed runs.
///
/// # Errors
///
/// Returns an error when the runs are incomparable (different
/// workload or config hash) and `force` is false.
pub fn diff_analyses(
    base: &Analysis,
    new: &Analysis,
    thresholds: &Thresholds,
    force: bool,
) -> Result<DiffReport, String> {
    let mut report = DiffReport::default();
    comparability(
        &base.source.workload,
        &new.source.workload,
        base.source.config_hash.as_deref(),
        new.source.config_hash.as_deref(),
        force,
        &mut report,
    )?;

    let (b, n) = (&base.totals, &new.totals);
    let totals = [
        ("base_cycles", b.base_cycles as f64, n.base_cycles as f64),
        ("ccr_cycles", b.ccr_cycles as f64, n.ccr_cycles as f64),
        ("speedup", b.speedup, n.speedup),
        ("hit_rate", b.hit_rate, n.hit_rate),
        ("lookups", b.lookups as f64, n.lookups as f64),
    ];
    for (metric, b, n) in totals {
        gate_row(&mut report, "total", metric, b, n, thresholds);
    }

    // Per-region deltas, judged against no thresholds: regions gate
    // in aggregate.
    let info = Thresholds::none();
    let by_id = |a: &'_ Analysis| -> BTreeMap<u64, (u64, f64, u64)> {
        a.regions
            .iter()
            .map(|p| (p.region, (p.lookups, p.hit_rate, p.skipped)))
            .collect()
    };
    let (base_regions, new_regions) = (by_id(base), by_id(new));
    for (region, (b_lookups, b_rate, b_skipped)) in &base_regions {
        match new_regions.get(region) {
            Some((n_lookups, n_rate, n_skipped)) => {
                let scope = format!("region {region}");
                if b_lookups != n_lookups {
                    let (b, n) = (*b_lookups as f64, *n_lookups as f64);
                    gate_row(&mut report, &scope, "lookups", b, n, &info);
                }
                if (b_rate - n_rate).abs() > 1e-12 {
                    gate_row(&mut report, &scope, "hit_rate", *b_rate, *n_rate, &info);
                }
                if b_skipped != n_skipped {
                    let (b, n) = (*b_skipped as f64, *n_skipped as f64);
                    gate_row(&mut report, &scope, "skipped", b, n, &info);
                }
            }
            None => report.notes.push(format!("region {region} disappeared")),
        }
    }
    for region in new_regions.keys() {
        if !base_regions.contains_key(region) {
            report.notes.push(format!("region {region} is new"));
        }
    }
    Ok(report)
}

/// Diffs two bench suite snapshots, workload by workload.
///
/// # Errors
///
/// Returns an error for incomparable snapshots (different config
/// hash) when `force` is false.
pub fn diff_bench(
    base: &BenchReport,
    new: &BenchReport,
    thresholds: &Thresholds,
    force: bool,
) -> Result<DiffReport, String> {
    let mut report = DiffReport::default();
    comparability(
        &base.suite,
        &new.suite,
        Some(&base.config_hash)
            .filter(|h| !h.is_empty())
            .map(|x| x.as_str()),
        Some(&new.config_hash)
            .filter(|h| !h.is_empty())
            .map(|x| x.as_str()),
        force,
        &mut report,
    )?;
    if base.input != new.input || base.scale != new.scale {
        let msg = format!(
            "input/scale mismatch: base {}@{}, new {}@{}",
            base.input, base.scale, new.input, new.scale
        );
        if !force {
            return Err(format!("{msg}; rerun with --force to compare anyway"));
        }
        report.notes.push(format!("{msg} (forced)"));
    }

    let new_by_name: BTreeMap<&str, _> =
        new.workloads.iter().map(|w| (w.name.as_str(), w)).collect();
    for b in &base.workloads {
        let Some(n) = new_by_name.get(b.name.as_str()) else {
            report
                .notes
                .push(format!("workload {} disappeared", b.name));
            continue;
        };
        let gated = [
            ("ccr_cycles", b.ccr_cycles as f64, n.ccr_cycles as f64),
            ("speedup", b.speedup, n.speedup),
            ("hit_rate", b.hit_rate, n.hit_rate),
        ];
        for (metric, base, new) in gated {
            gate_row(&mut report, &b.name, metric, base, new, thresholds);
        }
        // Host throughput appears only on request: it is
        // host-dependent (unlike the deterministic cycle counts),
        // and v1 snapshots carry no figure at all. The per-workload
        // rows are informational; the gate fires on the suite
        // geomean below, so single-workload timing noise cannot
        // breach on its own.
        if thresholds.max_host_throughput_drop_pct.is_some() {
            if b.sim_cycles_per_host_sec > 0.0 && n.sim_cycles_per_host_sec > 0.0 {
                gate_row(
                    &mut report,
                    &b.name,
                    "host_mcps",
                    b.sim_cycles_per_host_sec / 1.0e6,
                    n.sim_cycles_per_host_sec / 1.0e6,
                    &Thresholds::none(),
                );
            } else {
                report.notes.push(format!(
                    "workload {}: host throughput unavailable on one side; not gated",
                    b.name
                ));
            }
        }
    }
    // The gated host figure: suite-level geomean, recomputed from the
    // per-workload figures so pre-aggregate snapshots (which lack the
    // stored `agg_sim_cycles_per_host_sec` field) still compare.
    if thresholds.max_host_throughput_drop_pct.is_some() {
        let base_agg = crate::bench::geomean_host_throughput(&base.workloads);
        let new_agg = crate::bench::geomean_host_throughput(&new.workloads);
        if base_agg > 0.0 && new_agg > 0.0 {
            gate_row(
                &mut report,
                "(geomean)",
                "host_mcps_geomean",
                base_agg / 1.0e6,
                new_agg / 1.0e6,
                thresholds,
            );
        } else {
            report
                .notes
                .push("suite host-throughput geomean unavailable on one side; not gated".into());
        }
    }
    for w in &new.workloads {
        if !base.workloads.iter().any(|b| b.name == w.name) {
            report.notes.push(format!("workload {} is new", w.name));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{RegionProfile, Totals};
    use crate::bench::BenchWorkload;

    fn snap() -> Analysis {
        let mut a = Analysis::default();
        a.source.workload = "w".into();
        a.source.config_hash = Some("aa".into());
        a.totals = Totals {
            base_cycles: 1000,
            ccr_cycles: 800,
            speedup: 1.25,
            hit_rate: 0.7,
            lookups: 10,
            ..Totals::default()
        };
        a.regions.push(region(0, 10, 0.7, 130));
        a
    }

    fn region(region: u64, lookups: u64, hit_rate: f64, skipped: u64) -> RegionProfile {
        RegionProfile {
            region,
            lookups,
            hit_rate,
            skipped,
            ..RegionProfile::default()
        }
    }

    #[test]
    fn identical_runs_have_zero_deltas_and_pass() {
        let report = diff_analyses(&snap(), &snap(), &Thresholds::default_gate(), false).unwrap();
        assert!(!report.breached());
        assert!(report.rows.iter().all(|r| !r.breach));
        // Per-region rows appear only on change.
        assert!(report.rows.iter().all(|r| r.scope == "total"));
        assert!(report.render().contains("OK: all deltas within thresholds"));
    }

    #[test]
    fn cycle_regression_breaches_the_gate() {
        let mut new = snap();
        new.totals.ccr_cycles = 900; // +12.5%
        let report = diff_analyses(&snap(), &new, &Thresholds::default_gate(), false).unwrap();
        assert!(report.breached());
        assert!(
            report.breaches[0].contains("ccr_cycles"),
            "{:?}",
            report.breaches
        );
        assert!(report.render().contains("** BREACH"));
        // Improvements never breach.
        let mut better = snap();
        better.totals.ccr_cycles = 700;
        better.totals.hit_rate = 0.9;
        let report = diff_analyses(&snap(), &better, &Thresholds::default_gate(), false).unwrap();
        assert!(!report.breached());
    }

    #[test]
    fn hit_rate_and_speedup_gates_fire_on_drops() {
        let mut new = snap();
        new.totals.hit_rate = 0.6; // −10pp
        let report = diff_analyses(&snap(), &new, &Thresholds::default_gate(), false).unwrap();
        assert!(report.breached());
        let mut new = snap();
        new.totals.speedup = 1.1; // −12%
        let report = diff_analyses(&snap(), &new, &Thresholds::default_gate(), false).unwrap();
        assert!(report.breached());
        // Thresholds::none never gates.
        let report = diff_analyses(&snap(), &new, &Thresholds::none(), false).unwrap();
        assert!(!report.breached());
    }

    #[test]
    fn incomparable_runs_are_refused_unless_forced() {
        let mut new = snap();
        new.source.config_hash = Some("bb".into());
        let err = diff_analyses(&snap(), &new, &Thresholds::none(), false).unwrap_err();
        assert!(err.contains("config hash mismatch"), "{err}");
        let report = diff_analyses(&snap(), &new, &Thresholds::none(), true).unwrap();
        assert!(report.notes.iter().any(|n| n.contains("forced")));

        let mut new = snap();
        new.source.workload = "other".into();
        assert!(diff_analyses(&snap(), &new, &Thresholds::none(), false).is_err());

        // v1 artifacts (no hash): allowed, with a note.
        let mut new = snap();
        new.source.config_hash = None;
        let report = diff_analyses(&snap(), &new, &Thresholds::none(), false).unwrap();
        assert!(report.notes.iter().any(|n| n.contains("not verified")));
    }

    #[test]
    fn region_changes_are_reported_not_gated() {
        let mut new = snap();
        new.regions = vec![region(0, 12, 0.5, 100), region(7, 3, 1.0, 9)];
        let report = diff_analyses(&snap(), &new, &Thresholds::default_gate(), false).unwrap();
        let region_rows: Vec<_> = report
            .rows
            .iter()
            .filter(|r| r.scope == "region 0")
            .collect();
        assert_eq!(region_rows.len(), 3, "lookups, hit_rate, skipped");
        assert!(region_rows.iter().all(|r| !r.breach));
        assert!(report.notes.iter().any(|n| n.contains("region 7 is new")));
        assert!(!report.breached(), "region drift alone must not gate");
    }

    #[test]
    fn analysis_round_trips_through_its_json() {
        let mut a = snap();
        a.regions[0].hits = 7;
        a.regions[0].misses = 3;
        let text = a.to_json();
        let back = Analysis::from_json(&text).unwrap();
        assert_eq!(back.source.workload, "w");
        assert_eq!(back.totals.ccr_cycles, 800);
        assert_eq!(back.regions, a.regions);
        assert_eq!(back.to_json(), text);
        // And diffing the round-trip against the original is clean.
        let report = diff_analyses(&a, &back, &Thresholds::default_gate(), false).unwrap();
        assert!(!report.breached());
        assert!(
            report.rows.iter().all(|r| r.delta.starts_with("+0.00")),
            "{report:?}"
        );
    }

    fn bench(cycles: u64) -> BenchReport {
        BenchReport {
            suite: "ccr".into(),
            input: "train".into(),
            scale: 1,
            config_hash: "aa".into(),
            crate_version: "0.1.0".into(),
            git_commit: "unknown".into(),
            host_reps: 1,
            agg_sim_cycles_per_host_sec: 2.0e6,
            serve_clients: 0,
            serve_points_per_sec: 0.0,
            workloads: vec![BenchWorkload {
                name: "130.li".into(),
                base_cycles: 1000,
                ccr_cycles: cycles,
                speedup: 1000.0 / cycles as f64,
                hit_rate: 0.8,
                regions: 4,
                wall_ms: 12,
                sim_cycles_per_host_sec: 2.0e6,
            }],
        }
    }

    #[test]
    fn bench_diff_gates_per_workload_and_ignores_wall_time() {
        let report =
            diff_bench(&bench(800), &bench(800), &Thresholds::default_gate(), false).unwrap();
        assert!(!report.breached());
        assert!(report.rows.iter().all(|r| r.metric != "wall_ms"));
        let report =
            diff_bench(&bench(800), &bench(900), &Thresholds::default_gate(), false).unwrap();
        assert!(report.breached());
        assert!(report.breaches.iter().any(|b| b.contains("130.li")));
    }

    #[test]
    fn host_throughput_gates_only_when_requested() {
        let mut slow = bench(800);
        slow.workloads[0].sim_cycles_per_host_sec = 0.5e6; // −75%
                                                           // Default gate: host throughput is never compared.
        let report = diff_bench(&bench(800), &slow, &Thresholds::default_gate(), false).unwrap();
        assert!(!report.breached());
        assert!(report.rows.iter().all(|r| r.metric != "host_mcps"));
        // Explicit tolerance: a drop past it breaches.
        let gate = Thresholds {
            max_host_throughput_drop_pct: Some(50.0),
            ..Thresholds::none()
        };
        let report = diff_bench(&bench(800), &slow, &gate, false).unwrap();
        assert!(report.breached());
        // The breach is the suite geomean row, not the per-workload
        // row — per-workload host figures are informational only.
        assert!(
            report.breaches[0].contains("host_mcps_geomean"),
            "{:?}",
            report.breaches
        );
        assert!(
            report
                .rows
                .iter()
                .all(|r| r.metric != "host_mcps" || !r.breach),
            "{:?}",
            report.rows
        );
        assert!(
            report
                .rows
                .iter()
                .any(|r| r.scope == "(geomean)" && r.breach),
            "{:?}",
            report.rows
        );
        // Within the tolerance: reported but clean.
        let mut ok = bench(800);
        ok.workloads[0].sim_cycles_per_host_sec = 1.5e6; // −25%
        let report = diff_bench(&bench(800), &ok, &gate, false).unwrap();
        assert!(!report.breached());
        assert!(report.rows.iter().any(|r| r.metric == "host_mcps"));
        // v1 side (no figure): a note, never a gate.
        let mut v1 = bench(800);
        v1.workloads[0].sim_cycles_per_host_sec = 0.0;
        let report = diff_bench(&bench(800), &v1, &gate, false).unwrap();
        assert!(!report.breached());
        assert!(
            report.notes.iter().any(|n| n.contains("not gated")),
            "{:?}",
            report.notes
        );
    }

    #[test]
    fn bench_diff_checks_comparability() {
        let mut new = bench(800);
        new.config_hash = "bb".into();
        assert!(diff_bench(&bench(800), &new, &Thresholds::none(), false).is_err());
        let mut new = bench(800);
        new.scale = 2;
        assert!(diff_bench(&bench(800), &new, &Thresholds::none(), false).is_err());
        assert!(diff_bench(&bench(800), &new, &Thresholds::none(), true).is_ok());
    }
}
