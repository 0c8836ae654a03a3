//! The `ccr report` engine: cross-run trend tables and
//! first-regression flagging over a loaded [`RunStore`].
//!
//! Records are grouped into series — `(workload, input, scale,
//! config_hash)`, so only like-for-like measurements ever sit in the
//! same trend — and each series is walked in timestamp order. Four
//! deterministic tables come out:
//!
//! * **trend** — cycles / speedup / hit-rate per record,
//! * **miss_mix** — the five-cause miss breakdown per record (all
//!   zero for cause-lossy BENCH imports),
//! * **host** — wall time and `sim_cycles_per_host_sec` trajectory,
//!   plus one `(geomean)` row per bench run: the suite-level host
//!   aggregate `ccr diff` gates, tracked cross-run,
//! * **regressions** — the flagged first-regressions (below).
//!
//! **First-regression flagging**: for every series and every gated
//! metric, adjacent record pairs are judged by the same
//! [`Thresholds::judge`] verdict `ccr diff` gates with (cycle *growth*
//! percent, hit-rate *drop* points, speedup and host-throughput
//! *drop* percent). The earliest breaching pair is flagged — that
//! record is the first-bad run, the regression's introduction point —
//! and later breaches of the same (series, metric) are suppressed, so
//! a regression that persists for twenty runs is one finding, not
//! twenty. Any flag makes `ccr report` exit 2, like `ccr diff`.
//!
//! **Fingerprint-drift flagging**: records can carry the final
//! determinism-fingerprint chain hash of the run that produced them
//! (see `ccr_sim::FingerprintStream`; `""` = unmeasured). A series
//! key includes the config hash, so when two measured records in the
//! same series disagree on the fingerprint, the simulated trajectory
//! changed *without* a configuration change — a behaviour change some
//! commit introduced, whether or not any gated metric moved. The
//! first changed record per series is flagged as metric
//! `fingerprint`, alongside the numeric regressions.
//!
//! Determinism is load-bearing, as everywhere in this crate: a report
//! over a given store file is byte-identical across invocations and
//! hosts (timestamps render through the hand-rolled
//! [`store::format_utc`]), which is what lets a golden test pin the
//! output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ccr_telemetry::Table;

use crate::bench::short_commit;
use crate::diff::Thresholds;
use crate::store::{self, RunRecord, RunStore, SeriesKey};

/// One flagged first-regression.
#[derive(Clone, Debug)]
pub struct Regression {
    /// The series the regression happened in.
    pub series: SeriesKey,
    /// Which metric breached (`ccr_cycles`, `hit_rate`, `speedup`,
    /// `host_mcps`, `host_mcps_geomean` for the suite-level host
    /// aggregate, or `fingerprint` for trajectory drift).
    pub metric: String,
    /// Timestamp of the first-bad record.
    pub timestamp: u64,
    /// Commit of the first-bad record.
    pub commit: String,
    /// Metric value at the predecessor (last-good) record.
    pub prev: f64,
    /// Metric value at the first-bad record.
    pub new: f64,
    /// Rendered delta (`+4.20%`, `-2.10pp`, …).
    pub delta: String,
}

/// Everything `ccr report` renders: the tables (name → [`Table`], in
/// display order) and the flagged regressions behind the last one.
#[derive(Clone, Debug, Default)]
pub struct ReportOutput {
    /// `(name, table)` pairs: `trend`, `miss_mix`, `host`,
    /// `regressions`.
    pub tables: Vec<(&'static str, Table)>,
    /// Flagged first-regressions, in series order then time order.
    pub regressions: Vec<Regression>,
    /// Records the report covered.
    pub records: usize,
    /// Trend series the records grouped into.
    pub series: usize,
    /// Unreadable store lines skipped during loading.
    pub skipped_lines: u64,
}

impl ReportOutput {
    /// True when at least one regression was flagged (`ccr report`
    /// exits 2).
    pub fn flagged(&self) -> bool {
        !self.regressions.is_empty()
    }

    /// Renders the full plain-text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run store: {} record(s), {} series",
            self.records, self.series
        );
        if self.skipped_lines > 0 {
            let _ = writeln!(
                out,
                "note: {} unreadable line(s) skipped",
                self.skipped_lines
            );
        }
        for (name, table) in &self.tables {
            let _ = writeln!(out);
            let _ = writeln!(out, "== {name} ==");
            if table.is_empty() {
                let _ = writeln!(out, "(no rows)");
            } else {
                let _ = write!(out, "{table}");
            }
        }
        let _ = writeln!(out);
        if self.flagged() {
            let _ = writeln!(
                out,
                "FAIL: {} first-regression(s) flagged",
                self.regressions.len()
            );
        } else {
            let _ = writeln!(out, "OK: no regressions against thresholds");
        }
        out
    }
}

/// The metrics the regression scan gates, in fixed display order.
const GATED_METRICS: &[&str] = &["ccr_cycles", "hit_rate", "speedup", "host_mcps"];

/// Extracts one gated metric from a record; `None` means the record
/// carries no figure for it (host throughput on imports) and the pair
/// is not compared.
fn metric_value(rec: &RunRecord, metric: &str) -> Option<f64> {
    match metric {
        "ccr_cycles" => Some(rec.ccr_cycles as f64),
        "hit_rate" => Some(rec.hit_rate),
        "speedup" => Some(rec.speedup),
        "host_mcps" => {
            (rec.sim_cycles_per_host_sec > 0.0).then(|| rec.sim_cycles_per_host_sec / 1.0e6)
        }
        _ => None,
    }
}

fn series_label(key: &SeriesKey) -> String {
    let (workload, input, scale, config) = key;
    format!("{workload} ({input}@{scale}, {config})")
}

/// Abbreviates a 16-digit fingerprint hash for table cells, the way
/// [`short_commit`] abbreviates commits.
fn short_fp(fp: &str) -> &str {
    if fp.len() > 8 {
        &fp[..8]
    } else {
        fp
    }
}

/// Builds the full report over a loaded store.
pub fn report_over(store: &RunStore, thresholds: &Thresholds) -> ReportOutput {
    let series = store.series();
    let mut out = ReportOutput {
        records: store.records.len(),
        series: series.len(),
        skipped_lines: store.skipped_lines,
        ..ReportOutput::default()
    };

    let mut trend = Table::new([
        "workload",
        "input",
        "scale",
        "config",
        "when",
        "commit",
        "source",
        "base_cycles",
        "ccr_cycles",
        "speedup",
        "hit%",
        "regions",
        "fingerprint",
    ]);
    let mut miss_mix = Table::new([
        "workload",
        "config",
        "when",
        "commit",
        "cold",
        "mismatch",
        "capacity",
        "conflict",
        "invalidated",
        "misses",
    ]);
    let mut host = Table::new([
        "workload", "config", "when", "commit", "wall_ms", "Mcyc/s", "util%", "pts/s",
    ]);
    for (key, records) in &series {
        let (workload, input, scale, config) = key;
        for rec in records {
            let when = store::format_utc(rec.timestamp);
            let commit = short_commit(&rec.commit).to_string();
            trend.row([
                workload.clone(),
                input.clone(),
                scale.to_string(),
                config.clone(),
                when.clone(),
                commit.clone(),
                rec.source.clone(),
                rec.base_cycles.to_string(),
                rec.ccr_cycles.to_string(),
                format!("{:.3}", rec.speedup),
                format!("{:.1}", rec.hit_rate * 100.0),
                rec.regions.to_string(),
                if rec.fingerprint.is_empty() {
                    "-".to_string()
                } else {
                    short_fp(&rec.fingerprint).to_string()
                },
            ]);
            let misses: u64 = rec.miss_causes.iter().sum();
            let mut mix_row = vec![
                workload.clone(),
                config.clone(),
                when.clone(),
                commit.clone(),
            ];
            mix_row.extend(rec.miss_causes.iter().map(u64::to_string));
            mix_row.push(misses.to_string());
            miss_mix.row(mix_row);
            host.row([
                workload.clone(),
                config.clone(),
                when,
                commit,
                rec.wall_ms.to_string(),
                if rec.sim_cycles_per_host_sec > 0.0 {
                    format!("{:.1}", rec.sim_cycles_per_host_sec / 1.0e6)
                } else {
                    "-".to_string()
                },
                if rec.host_util_pct > 0.0 {
                    format!("{:.0}", rec.host_util_pct)
                } else {
                    "-".to_string()
                },
                if rec.points_per_sec > 0.0 {
                    format!("{:.2}", rec.points_per_sec)
                } else {
                    "-".to_string()
                },
            ]);
        }
    }

    // Suite-level host aggregate: one "(geomean)" row per bench run
    // (records sharing input/scale/config/source/timestamp/commit),
    // the geometric mean of that run's measured per-workload host
    // figures — the same aggregate `ccr diff` gates. wall_ms is the
    // run's total wall time across workloads. Host figures compare
    // only within one source: a traced `ccr profile` simulation is
    // legitimately slower than an untraced bench one.
    type RunKey = (String, u64, String, String, u64, String);
    type AggPoint = (u64, String, f64);
    let mut runs: BTreeMap<RunKey, (f64, usize, u64)> = BTreeMap::new();
    for rec in &store.records {
        if rec.sim_cycles_per_host_sec <= 0.0 {
            continue;
        }
        let key = (
            rec.input.clone(),
            rec.scale,
            rec.config_hash.clone(),
            rec.source.clone(),
            rec.timestamp,
            rec.commit.clone(),
        );
        let e = runs.entry(key).or_insert((0.0, 0, 0));
        e.0 += rec.sim_cycles_per_host_sec.ln();
        e.1 += 1;
        e.2 += rec.wall_ms;
    }
    let mut agg_series: BTreeMap<(String, u64, String, String), Vec<AggPoint>> = BTreeMap::new();
    for ((input, scale, config, source, ts, commit), (ln_sum, n, wall)) in &runs {
        let geomean = (ln_sum / *n as f64).exp();
        host.row([
            "(geomean)".to_string(),
            config.clone(),
            store::format_utc(*ts),
            short_commit(commit).to_string(),
            wall.to_string(),
            format!("{:.1}", geomean / 1.0e6),
            "-".to_string(),
        ]);
        agg_series
            .entry((input.clone(), *scale, config.clone(), source.clone()))
            .or_default()
            .push((*ts, commit.clone(), geomean));
    }

    // First-regression scan: earliest breaching adjacent pair per
    // (series, metric); later breaches of the same pair suppressed.
    // Host throughput pairs a record with the previous one of its own
    // source only.
    for (key, records) in &series {
        for metric in GATED_METRICS {
            for (i, new_rec) in records.iter().enumerate().skip(1) {
                let prev_rec = if *metric == "host_mcps" {
                    match records[..i].iter().rfind(|r| r.source == new_rec.source) {
                        Some(r) => r,
                        None => continue,
                    }
                } else {
                    &records[i - 1]
                };
                let pair = [prev_rec, new_rec];
                let (Some(prev), Some(new)) =
                    (metric_value(pair[0], metric), metric_value(pair[1], metric))
                else {
                    continue;
                };
                let (delta, breach) = thresholds.judge(metric, prev, new);
                if breach {
                    out.regressions.push(Regression {
                        series: key.clone(),
                        metric: metric.to_string(),
                        timestamp: pair[1].timestamp,
                        commit: pair[1].commit.clone(),
                        prev,
                        new,
                        delta,
                    });
                    break; // first-bad only, for this (series, metric)
                }
            }
        }
    }

    // Aggregate host-throughput scan: the same first-bad walk over
    // the per-run "(geomean)" series, so a suite-wide host slowdown
    // is flagged cross-run even when no single workload's drop is
    // eye-catching on its own.
    for ((input, scale, config, _source), mut points) in agg_series {
        points.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        for pair in points.windows(2) {
            let (prev, new) = (pair[0].2 / 1.0e6, pair[1].2 / 1.0e6);
            let (delta, breach) = thresholds.judge("host_mcps_geomean", prev, new);
            if breach {
                out.regressions.push(Regression {
                    series: (
                        "(geomean)".to_string(),
                        input.clone(),
                        scale,
                        config.clone(),
                    ),
                    metric: "host_mcps_geomean".to_string(),
                    timestamp: pair[1].0,
                    commit: pair[1].1.clone(),
                    prev,
                    new,
                    delta,
                });
                break; // first-bad only
            }
        }
    }

    // Fingerprint-drift scan: a series key includes the config hash,
    // so consecutive *measured* records (unmeasured `""` ones are
    // skipped, not chain-breaking) disagreeing on the fingerprint
    // means the trajectory changed under an unchanged configuration.
    // First changed record per series only, like the metric scan.
    for (key, records) in &series {
        let measured: Vec<&&RunRecord> = records
            .iter()
            .filter(|r| !r.fingerprint.is_empty())
            .collect();
        if let Some(pair) = measured
            .windows(2)
            .find(|p| p[0].fingerprint != p[1].fingerprint)
        {
            out.regressions.push(Regression {
                series: key.clone(),
                metric: "fingerprint".to_string(),
                timestamp: pair[1].timestamp,
                commit: pair[1].commit.clone(),
                prev: 0.0,
                new: 0.0,
                delta: format!(
                    "{}\u{2192}{}",
                    short_fp(&pair[0].fingerprint),
                    short_fp(&pair[1].fingerprint)
                ),
            });
        }
    }

    let mut regressions = Table::new([
        "series",
        "metric",
        "first-bad when",
        "first-bad commit",
        "prev",
        "new",
        "delta",
    ]);
    for r in &out.regressions {
        // Fingerprint drift has no numeric before/after; the delta
        // cell carries the hash change instead.
        let (prev, new) = if r.metric == "fingerprint" {
            ("-".to_string(), "-".to_string())
        } else {
            (format!("{:.4}", r.prev), format!("{:.4}", r.new))
        };
        regressions.row([
            series_label(&r.series),
            r.metric.clone(),
            store::format_utc(r.timestamp),
            short_commit(&r.commit).to_string(),
            prev,
            new,
            r.delta.clone(),
        ]);
    }

    out.tables = vec![
        ("trend", trend),
        ("miss_mix", miss_mix),
        ("host", host),
        ("regressions", regressions),
    ];
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts: u64, ccr_cycles: u64, hit_rate: f64) -> RunRecord {
        RunRecord {
            timestamp: ts,
            commit: format!("{ts:040}"),
            config_hash: "00ff00ff00ff00ff".into(),
            source: "bench".into(),
            workload: "w".into(),
            input: "train".into(),
            scale: 1,
            base_cycles: 1000,
            ccr_cycles,
            speedup: 1000.0 / ccr_cycles as f64,
            hit_rate,
            miss_causes: [1, 1, 0, 0, 0],
            regions: 4,
            wall_ms: 10,
            sim_cycles_per_host_sec: 2.0e6,
            host_util_pct: 0.0,
            fingerprint: String::new(),
            points_per_sec: 0.0,
        }
    }

    fn store_of(records: Vec<RunRecord>) -> RunStore {
        RunStore {
            records,
            skipped_lines: 0,
        }
    }

    #[test]
    fn clean_history_reports_ok() {
        let store = store_of(vec![rec(100, 800, 0.8), rec(200, 800, 0.8)]);
        let out = report_over(&store, &Thresholds::default_gate());
        assert!(!out.flagged());
        assert_eq!(out.records, 2);
        assert_eq!(out.series, 1);
        let text = out.render();
        assert!(text.contains("OK: no regressions"), "{text}");
        assert!(text.contains("== trend =="), "{text}");
        // All four tables render even when regressions is empty.
        assert!(text.contains("== regressions =="), "{text}");
        assert!(text.contains("(no rows)"), "{text}");
    }

    #[test]
    fn first_bad_record_is_flagged_not_later_ones() {
        // Regression lands at ts=300 (+10% cycles) and persists at 400.
        let store = store_of(vec![
            rec(100, 800, 0.8),
            rec(200, 800, 0.8),
            rec(300, 880, 0.8),
            rec(400, 882, 0.8),
        ]);
        let out = report_over(&store, &Thresholds::default_gate());
        assert!(out.flagged());
        let cycles: Vec<_> = out
            .regressions
            .iter()
            .filter(|r| r.metric == "ccr_cycles")
            .collect();
        assert_eq!(cycles.len(), 1, "one finding per (series, metric)");
        assert_eq!(cycles[0].timestamp, 300, "the FIRST bad record");
        // speedup drops with the cycle growth, so it flags too — also
        // at the introduction point.
        assert!(
            out.regressions.iter().all(|r| r.timestamp == 300),
            "{:?}",
            out.regressions
        );
        assert!(out.render().contains("FAIL: "), "{}", out.render());
    }

    #[test]
    fn unordered_appends_are_scanned_in_time_order() {
        // Appended out of order; in time order the metric is flat.
        let store = store_of(vec![
            rec(300, 802, 0.8),
            rec(100, 800, 0.8),
            rec(200, 801, 0.8),
        ]);
        let out = report_over(&store, &Thresholds::default_gate());
        assert!(!out.flagged(), "{:?}", out.regressions);
    }

    #[test]
    fn series_isolate_configs_from_each_other() {
        // A config change makes a new series; the big cycle jump
        // between configs must not flag.
        let mut other = rec(200, 1600, 0.8);
        other.config_hash = "1111111111111111".into();
        let store = store_of(vec![rec(100, 800, 0.8), other]);
        let out = report_over(&store, &Thresholds::default_gate());
        assert_eq!(out.series, 2);
        assert!(!out.flagged());
    }

    #[test]
    fn hit_rate_and_host_gates_fire() {
        let store = store_of(vec![rec(100, 800, 0.8), rec(200, 800, 0.75)]); // −5pp
        let out = report_over(&store, &Thresholds::default_gate());
        assert_eq!(out.regressions.len(), 1);
        assert_eq!(out.regressions[0].metric, "hit_rate");
        assert!(out.regressions[0].delta.ends_with("pp"));

        let mut slow = rec(200, 800, 0.8);
        slow.sim_cycles_per_host_sec = 0.4e6; // −80%
        let store = store_of(vec![rec(100, 800, 0.8), slow]);
        // Default gate ignores host throughput...
        assert!(!report_over(&store, &Thresholds::default_gate()).flagged());
        // ...an explicit tolerance gates it.
        let gate = Thresholds {
            max_host_throughput_drop_pct: Some(50.0),
            ..Thresholds::none()
        };
        let out = report_over(&store, &gate);
        // Both the per-workload figure and the (one-workload) suite
        // geomean flag the drop.
        assert_eq!(out.regressions.len(), 2, "{:?}", out.regressions);
        assert!(out.regressions.iter().any(|r| r.metric == "host_mcps"));
        assert!(out
            .regressions
            .iter()
            .any(|r| r.metric == "host_mcps_geomean"));
    }

    #[test]
    fn geomean_series_rows_and_aggregate_regressions() {
        // Two workloads per run, two runs; the second run's host
        // throughput halves across the whole suite (−50% geomean)
        // while each workload alone also drops — only the aggregate
        // series must carry the `host_mcps_geomean` finding.
        let wl = |ts, name: &str, mcps: f64| {
            let mut r = rec(ts, 800, 0.8);
            r.workload = name.into();
            r.sim_cycles_per_host_sec = mcps;
            r
        };
        let store = store_of(vec![
            wl(100, "a", 2.0e6),
            wl(100, "b", 8.0e6),
            wl(200, "a", 1.0e6),
            wl(200, "b", 4.0e6),
        ]);
        let gate = Thresholds {
            max_host_throughput_drop_pct: Some(30.0),
            ..Thresholds::none()
        };
        let out = report_over(&store, &gate);
        // Host table: one "(geomean)" row per run, geomean(2,8)=4.
        let host = &out.tables.iter().find(|(n, _)| *n == "host").unwrap().1;
        let csv = host.to_csv();
        assert!(csv.contains("(geomean)"), "{csv}");
        assert!(csv.contains("4.0"), "geomean(2,8) Mcyc/s: {csv}");
        assert!(csv.contains("2.0"), "geomean(1,4) Mcyc/s: {csv}");
        // The aggregate regression is flagged at the second run.
        let agg: Vec<_> = out
            .regressions
            .iter()
            .filter(|r| r.metric == "host_mcps_geomean")
            .collect();
        assert_eq!(agg.len(), 1, "{:?}", out.regressions);
        assert_eq!(agg[0].timestamp, 200);
        assert_eq!(agg[0].series.0, "(geomean)");
        assert!(out.flagged());
    }

    #[test]
    fn host_throughput_compares_only_within_one_source() {
        // One commit's `lex` measured by bench, exp and a traced
        // profile: three definitions of host time, no slowdown.
        let at = |ts, source: &str, mcps: f64| RunRecord {
            commit: "c".repeat(40),
            source: source.into(),
            workload: "lex".into(),
            sim_cycles_per_host_sec: mcps * 1.0e6,
            ..rec(ts, 800, 0.8)
        };
        let gate = Thresholds {
            max_host_throughput_drop_pct: Some(20.0),
            ..Thresholds::none()
        };
        let mut records = vec![
            at(100, "bench", 10.1),
            at(101, "exp", 19.1),
            at(102, "profile", 13.7),
        ];
        let out = report_over(&store_of(records.clone()), &gate);
        assert!(!out.flagged(), "{:?}", out.regressions);
        // A drop within one source still flags, past the other sources.
        records.push(at(103, "exp", 9.0));
        let out = report_over(&store_of(records), &gate);
        let metrics: Vec<_> = out.regressions.iter().map(|r| &r.metric).collect();
        assert_eq!(metrics, ["host_mcps", "host_mcps_geomean"]);
        assert!(out.regressions.iter().all(|r| r.timestamp == 103));
    }

    #[test]
    fn missing_host_figures_never_compare() {
        let gate = Thresholds {
            max_host_throughput_drop_pct: Some(1.0),
            ..Thresholds::none()
        };
        let mut import = rec(200, 800, 0.8);
        import.sim_cycles_per_host_sec = 0.0; // an import, no figure
        let store = store_of(vec![rec(100, 800, 0.8), import, rec(300, 800, 0.8)]);
        // 2.0 → (absent) → 2.0: no pair compares, nothing flags.
        assert!(!report_over(&store, &gate).flagged());
    }

    #[test]
    fn fingerprint_drift_flags_the_first_changed_record() {
        let fp = |ts, hash: &str| {
            let mut r = rec(ts, 800, 0.8);
            r.fingerprint = hash.into();
            r
        };
        // Same config throughout; trajectory changes at ts=300 and the
        // change persists — one finding, at the introduction point.
        let store = store_of(vec![
            fp(100, "aaaaaaaaaaaaaaaa"),
            fp(200, "aaaaaaaaaaaaaaaa"),
            fp(300, "bbbbbbbbbbbbbbbb"),
            fp(400, "bbbbbbbbbbbbbbbb"),
        ]);
        let out = report_over(&store, &Thresholds::default_gate());
        let drifts: Vec<_> = out
            .regressions
            .iter()
            .filter(|r| r.metric == "fingerprint")
            .collect();
        assert_eq!(drifts.len(), 1, "{:?}", out.regressions);
        assert_eq!(drifts[0].timestamp, 300, "the FIRST changed record");
        assert_eq!(drifts[0].delta, "aaaaaaaa\u{2192}bbbbbbbb");
        assert!(out.flagged(), "drift gates like a regression");
        let text = out.render();
        assert!(text.contains("aaaaaaaa\u{2192}bbbbbbbb"), "{text}");
    }

    #[test]
    fn unmeasured_fingerprints_never_compare_or_break_the_chain() {
        let fp = |ts, hash: &str| {
            let mut r = rec(ts, 800, 0.8);
            r.fingerprint = hash.into();
            r
        };
        // "" gaps (imports, old records) are skipped, not treated as
        // a change — a flat measured chain around them stays quiet...
        let store = store_of(vec![
            fp(100, "aaaaaaaaaaaaaaaa"),
            rec(200, 800, 0.8),
            fp(300, "aaaaaaaaaaaaaaaa"),
        ]);
        assert!(!report_over(&store, &Thresholds::default_gate()).flagged());
        // ...and a change across a gap still flags on the record that
        // introduced it.
        let store = store_of(vec![
            fp(100, "aaaaaaaaaaaaaaaa"),
            rec(200, 800, 0.8),
            fp(300, "cccccccccccccccc"),
        ]);
        let out = report_over(&store, &Thresholds::default_gate());
        assert_eq!(out.regressions.len(), 1);
        assert_eq!(out.regressions[0].metric, "fingerprint");
        assert_eq!(out.regressions[0].timestamp, 300);
    }

    #[test]
    fn fingerprint_change_with_config_change_is_a_new_series_not_drift() {
        let mut a = rec(100, 800, 0.8);
        a.fingerprint = "aaaaaaaaaaaaaaaa".into();
        let mut b = rec(200, 800, 0.8);
        b.fingerprint = "bbbbbbbbbbbbbbbb".into();
        b.config_hash = "1111111111111111".into();
        let store = store_of(vec![a, b]);
        let out = report_over(&store, &Thresholds::default_gate());
        assert_eq!(out.series, 2);
        assert!(!out.flagged(), "{:?}", out.regressions);
    }

    #[test]
    fn diff_and_report_reach_one_verdict_per_change() {
        use crate::bench::{BenchReport, BenchWorkload};
        // Exactly representable limits, so the at-threshold rows land
        // exactly on them.
        let gate = Thresholds {
            max_cycle_regress_pct: Some(25.0),
            max_hit_rate_drop_pp: Some(25.0),
            max_speedup_drop_pct: Some(50.0),
            max_host_throughput_drop_pct: Some(50.0),
        };
        // (metric, base, new, breach)
        let rows: &[(&str, f64, f64, bool)] = &[
            ("ccr_cycles", 800.0, 800.0, false),
            ("ccr_cycles", 800.0, 600.0, false),
            ("ccr_cycles", 800.0, 1000.0, false), // exactly +25%
            ("ccr_cycles", 800.0, 1001.0, true),
            ("ccr_cycles", 0.0, 0.0, false),
            ("ccr_cycles", 0.0, 800.0, true), // +inf%
            ("hit_rate", 0.75, 0.875, false),
            ("hit_rate", 0.75, 0.5, false), // exactly -25pp
            ("hit_rate", 0.75, 0.25, true),
            ("hit_rate", 0.0, 0.0, false),
            ("hit_rate", 0.0, 0.5, false),
            ("speedup", 2.0, 3.0, false),
            ("speedup", 2.0, 1.0, false), // exactly -50%
            ("speedup", 2.0, 0.5, true),
            ("speedup", 0.0, 0.0, false),
            ("speedup", 0.0, 1.5, false), // +inf%, a gain
            ("host_mcps", 4.0, 8.0, false),
            ("host_mcps", 4.0, 2.0, false), // exactly -50%
            ("host_mcps", 4.0, 1.0, true),
        ];
        for &(metric, base, new, breach) in rows {
            let point = |ts, v: f64| {
                let mut r = rec(ts, 800, 0.8);
                match metric {
                    "ccr_cycles" => r.ccr_cycles = v as u64,
                    "hit_rate" => r.hit_rate = v,
                    "speedup" => r.speedup = v,
                    _ => r.sim_cycles_per_host_sec = v * 1.0e6,
                }
                r
            };
            let (b, n) = (point(100, base), point(200, new));
            let case = format!("{metric} {base} -> {new}");
            // `ccr diff`: two one-workload bench snapshots, where the
            // suite geomean is the gated host figure.
            let bench = |r: &RunRecord| BenchReport {
                config_hash: r.config_hash.clone(),
                workloads: vec![BenchWorkload::from(r)],
                ..BenchReport::default()
            };
            let diff = crate::diff::diff_bench(&bench(&b), &bench(&n), &gate, false).unwrap();
            let gated = match metric {
                "host_mcps" => "host_mcps_geomean",
                m => m,
            };
            let row = diff.rows.iter().find(|r| r.metric == gated).unwrap();
            assert_eq!(row.breach, breach, "diff {case}: {}", row.delta);
            // `ccr report`: the same pair as a two-record series.
            let report = report_over(&store_of(vec![b, n]), &gate);
            let flagged: Vec<_> = report
                .regressions
                .iter()
                .filter(|r| r.metric == metric)
                .collect();
            assert_eq!(flagged.len(), usize::from(breach), "report {case}");
            for r in flagged {
                assert_eq!(r.delta, row.delta, "{case}");
            }
        }
    }

    #[test]
    fn report_is_deterministic() {
        let store = store_of(vec![rec(100, 800, 0.8), rec(200, 900, 0.7)]);
        let a = report_over(&store, &Thresholds::default_gate());
        let b = report_over(&store, &Thresholds::default_gate());
        assert_eq!(a.render(), b.render());
        for ((na, ta), (nb, tb)) in a.tables.iter().zip(&b.tables) {
            assert_eq!(na, nb);
            assert_eq!(ta.to_csv(), tb.to_csv());
        }
    }
}
