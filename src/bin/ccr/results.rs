//! The result-reading commands: `analyze`, `diff`, `report`.
//!
//! `ccr analyze` reads the artifacts of a `ccr run --telemetry` or
//! `ccr profile` directory back and writes `analysis.json`
//! (per-region reuse profiles, CRB pressure, IPC percentiles —
//! deterministic bytes) and a Chrome-trace `trace.json` (load it in
//! `chrome://tracing` or Perfetto); on profiled captures it also
//! refreshes `profile.folded` + `flamegraph.svg`. `ccr diff` compares
//! two runs — telemetry directories, saved `analysis.json` files, or
//! `BENCH_*.json` snapshots — and exits with status 2 when a
//! regression threshold is breached, which is what CI gates on.
//!
//! `ccr report` reads the cross-run store back and renders per-series
//! trend tables (speedup / hit rate / miss-cause mix / host
//! throughput) plus first-regression flags: for each (workload, input,
//! scale, config-hash) series and each gated metric, the earliest
//! adjacent pair breaching the thresholds is flagged as the
//! regression's introduction point, and the command exits 2 — the
//! same contract `ccr diff` has. `ccr report import` backfills a store
//! from saved `BENCH_*.json` / `analysis.json` artifacts. See
//! DESIGN.md §11.

use std::process::ExitCode;

use crate::{record_timestamp, store_path, usage_err, write_file, CliError, Flags};

/// Checks a telemetry directory has both run artifacts before any
/// analysis starts, so a wrong path fails with one clear line naming
/// the missing piece instead of a usage dump (or worse, a panic).
fn require_run_artifacts(dir: &std::path::Path) -> Result<(), String> {
    if !dir.is_dir() {
        return Err(format!(
            "{}: not a directory (expected a `ccr run --telemetry` or `ccr profile` output)",
            dir.display()
        ));
    }
    for name in ["events.jsonl", "report.json"] {
        if !dir.join(name).is_file() {
            return Err(format!(
                "{}: missing {name} (expected a `ccr run --telemetry` or `ccr profile` output)",
                dir.display()
            ));
        }
    }
    Ok(())
}

/// Writes `analysis.json` + `trace.json` (and, when the capture was
/// profiled, `profile.folded` + `flamegraph.svg`) for a loaded run.
/// Returns the human-readable list of files written.
pub(crate) fn write_analysis_artifacts(
    out: &std::path::Path,
    data: &ccr_analyze::RunData,
    analysis: &ccr_analyze::Analysis,
) -> Result<String, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut written = Vec::new();
    let mut write = |name: &str, contents: String| -> Result<(), String> {
        let path = out.join(name);
        std::fs::write(&path, contents).map_err(|e| format!("{}: {e}", path.display()))?;
        written.push(path.display().to_string());
        Ok(())
    };
    write("analysis.json", analysis.to_json())?;
    write("trace.json", ccr_analyze::chrome_trace(data))?;
    if !data.cycle_samples.is_empty() {
        let folded = ccr_analyze::fold_samples(data);
        write("flamegraph.svg", ccr_analyze::flamegraph_svg(&folded))?;
        write("profile.folded", folded)?;
    }
    Ok(written.join(" + "))
}

pub(crate) fn cmd_analyze(flags: &Flags) -> Result<(), CliError> {
    let dir = flags
        .positional
        .first()
        .ok_or_else(|| usage_err("missing <DIR> (a `ccr run --telemetry` output directory)"))?;
    let dir = std::path::Path::new(dir);
    require_run_artifacts(dir)?;
    let data = ccr_analyze::load_run(dir).map_err(|e| e.to_string())?;
    let analysis = ccr_analyze::analyze(&data, flags.top);
    let out = flags
        .out
        .as_ref()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| dir.to_path_buf());
    let written = write_analysis_artifacts(&out, &data, &analysis)?;
    print!("{}", analysis.summary());
    println!("wrote      : {written}");
    Ok(())
}

/// One side of a `ccr diff`: a run (telemetry dir or saved
/// `analysis.json`) or a bench suite snapshot.
enum DiffSide {
    Run(ccr_analyze::diff::RunSnapshot),
    Bench(ccr_analyze::BenchReport),
}

fn load_diff_side(spec: &str, top: usize) -> Result<DiffSide, String> {
    let path = std::path::Path::new(spec);
    if path.is_dir() {
        require_run_artifacts(path)?;
        let data = ccr_analyze::load_run(path).map_err(|e| e.to_string())?;
        let analysis = ccr_analyze::analyze(&data, top);
        return Ok(DiffSide::Run((&analysis).into()));
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{spec}: {e}"))?;
    let v = ccr_analyze::value::parse(text.trim()).map_err(|e| format!("{spec}: {e}"))?;
    if v.get("bench_schema_version").is_some() {
        return ccr_analyze::BenchReport::from_json(&text)
            .map(DiffSide::Bench)
            .map_err(|e| format!("{spec}: {e}"));
    }
    if v.get("analysis_schema_version").is_some() {
        return ccr_analyze::diff::RunSnapshot::from_analysis_json(&text)
            .map(DiffSide::Run)
            .map_err(|e| format!("{spec}: {e}"));
    }
    Err(format!(
        "{spec}: not a telemetry directory, analysis.json, or BENCH json"
    ))
}

fn thresholds_of(flags: &Flags) -> ccr_analyze::Thresholds {
    let base = if flags.thresholds_none {
        ccr_analyze::Thresholds::none()
    } else {
        ccr_analyze::Thresholds::default_gate()
    };
    let gate = &flags.gate;
    ccr_analyze::Thresholds {
        max_cycle_regress_pct: gate.max_cycle_regress_pct.or(base.max_cycle_regress_pct),
        max_hit_rate_drop_pp: gate.max_hit_rate_drop_pp.or(base.max_hit_rate_drop_pp),
        max_speedup_drop_pct: gate.max_speedup_drop_pct.or(base.max_speedup_drop_pct),
        max_host_throughput_drop_pct: gate
            .max_host_throughput_drop_pct
            .or(base.max_host_throughput_drop_pct),
    }
}

pub(crate) fn cmd_diff(flags: &Flags) -> Result<ExitCode, CliError> {
    let [base_spec, new_spec] = flags.positional.as_slice() else {
        return Err(usage_err("diff needs exactly two arguments: <BASE> <NEW>"));
    };
    let thresholds = thresholds_of(flags);
    let base = load_diff_side(base_spec, flags.top)?;
    let new = load_diff_side(new_spec, flags.top)?;
    let report = match (&base, &new) {
        (DiffSide::Run(b), DiffSide::Run(n)) => {
            ccr_analyze::diff_analyses(b, n, &thresholds, flags.force)?
        }
        (DiffSide::Bench(b), DiffSide::Bench(n)) => {
            ccr_analyze::diff_bench(b, n, &thresholds, flags.force)?
        }
        _ => {
            return Err(format!(
                "cannot compare a bench snapshot with a single run \
                 ({base_spec} vs {new_spec})"
            )
            .into())
        }
    };
    print!("{}", report.render());
    Ok(if report.breached() {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}

/// `ccr report`: cross-run trend tables and first-regression flags
/// over the run store, exiting 2 on a flag (like `ccr diff`).
/// `ccr report import <FILE>...` backfills the store from saved
/// BENCH / analysis artifacts instead.
pub(crate) fn cmd_report(flags: &Flags) -> Result<ExitCode, CliError> {
    match flags.positional.first().map(String::as_str) {
        Some("import") => cmd_report_import(flags).map(|()| ExitCode::SUCCESS),
        Some(other) => Err(usage_err(format!(
            "unknown report subcommand `{other}` (expected `import` or no argument)"
        ))),
        None => {
            let path = store_path(flags);
            let store = ccr_analyze::RunStore::load(&path)?;
            let output = ccr_analyze::report_over(&store, &thresholds_of(flags));
            if let Some(dir) = &flags.out {
                let dir = std::path::Path::new(dir);
                for (name, table) in &output.tables {
                    write_file(dir, &format!("report.{name}.csv"), &table.to_csv())?;
                }
                eprintln!(
                    "wrote {} csv table(s) under {}",
                    output.tables.len(),
                    dir.display()
                );
            }
            print!("{}", output.render());
            Ok(if output.flagged() {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            })
        }
    }
}

/// `ccr report import`: turns saved `BENCH_*.json` (one record per
/// workload, cause-lossy) and `analysis.json` (one record, full miss
/// mix) files into store appends. `--commit` overrides the recorded
/// commit — artifacts produced before provenance carried one say
/// "unknown" otherwise.
fn cmd_report_import(flags: &Flags) -> Result<(), CliError> {
    let files = &flags.positional[1..];
    if files.is_empty() {
        return Err(usage_err(
            "report import needs at least one BENCH_*.json or analysis.json file",
        ));
    }
    let ts = record_timestamp(flags);
    let mut records = Vec::new();
    for spec in files {
        let text = std::fs::read_to_string(spec).map_err(|e| format!("{spec}: {e}"))?;
        let v = ccr_analyze::value::parse(text.trim()).map_err(|e| format!("{spec}: {e}"))?;
        if v.get("bench_schema_version").is_some() {
            let report =
                ccr_analyze::BenchReport::from_json(&text).map_err(|e| format!("{spec}: {e}"))?;
            let mut recs = ccr_analyze::store::records_from_bench(&report, ts, "import");
            if let Some(commit) = &flags.commit {
                for rec in &mut recs {
                    rec.commit = commit.clone();
                }
            }
            records.extend(recs);
        } else if v.get("analysis_schema_version").is_some() {
            records.push(
                ccr_analyze::store::record_from_analysis_json(&text, ts, flags.commit.as_deref())
                    .map_err(|e| format!("{spec}: {e}"))?,
            );
        } else {
            return Err(format!("{spec}: not a BENCH json or analysis.json").into());
        }
    }
    let path = store_path(flags);
    ccr_analyze::RunStore::append(&path, &records)?;
    println!(
        "imported {} record(s) into {}",
        records.len(),
        path.display()
    );
    Ok(())
}
