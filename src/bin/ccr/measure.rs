//! The measuring commands: `suite`, `run`, `profile`, `bench`, `exp`.
//!
//! With `--telemetry DIR`, `ccr run` additionally writes
//! `DIR/events.jsonl` (one versioned JSON event per line: compile pass
//! spans, region-formation rejections, the per-region reuse timeline,
//! interval IPC windows, and CRB eviction/conflict/invalidation
//! events) and `DIR/report.json` (the full run report; see
//! `ccr::runreport`). The text output and every reported number are
//! identical with and without the flag.
//!
//! `ccr profile` is `ccr run --telemetry` plus cycle attribution: the
//! simulation charges every cycle to a stall bucket keyed by the
//! executing function, classifies every CRB miss by cause, and emits
//! periodic call-stack samples — then runs the analyzer, leaving
//! `DIR/analysis.json` (with its `attribution` section),
//! `DIR/trace.json`, `DIR/profile.folded` (collapsed stacks), and
//! `DIR/flamegraph.svg` (self-contained, deterministic SVG). Cycle
//! counts are bit-identical to an unprofiled `ccr run`. Both write
//! their capture through one [`capture`].
//!
//! `ccr bench` runs the built-in suite and snapshots `BENCH_ccr.json`,
//! the committed performance baseline. `ccr suite` runs the same
//! suite and prints its averaged speedup table instead.
//!
//! `ccr exp` is the declarative experiment engine (`ccr-bench`'s
//! `exp` module): it plans the selected experiment specs into a
//! deduplicated set of compile and simulation units — each distinct
//! (workload, region-config) pair compiled once, each distinct sweep
//! point simulated once across experiments — runs them in parallel,
//! and renders each figure's tables byte-identically to the retired
//! per-figure binaries. `--out DIR` writes `<name>.txt` plus
//! `<name>.<table>.csv`; without it the tables go to stdout and the
//! plan log to stderr. See DESIGN.md §10.
//!
//! Every measuring command (`ccr bench`, `ccr exp`, `ccr profile`)
//! also appends its measurements to the append-only cross-run store —
//! `runs/store.jsonl` by default, `--store FILE` to redirect,
//! `--no-store` to opt out, `--at TS` to pin the record timestamp.

use std::path::{Path, PathBuf};

use ccr::report::{pct, speedup, Table};
use ccr::sim::TraceConfig;
use ccr::workloads::NAMES;
use ccr::{CompiledWorkload, Harness, Measurement};

use crate::{
    append_to_store, compile_target, file_stem, finish_harness, harness_of, measured,
    record_timestamp, replay, results, scenario_of, sim_task, target_of, usage_err, write_file,
    CliError, Flags,
};

pub(crate) fn cmd_suite(flags: &Flags) -> Result<(), CliError> {
    let harness = harness_of(flags)?;
    // One-shot run through a fresh engine: every cache lookup misses,
    // so the statistics match the historical uncached path exactly.
    let engine = ccr_bench::Engine::new(ccr::resolve_jobs(flags.jobs));
    let runs = engine.run_selected(&NAMES, &scenario_of(flags), &harness)?;
    finish_harness(&harness);
    let mut table = Table::new([
        "benchmark",
        "base cycles",
        "ccr cycles",
        "speedup",
        "eliminated",
    ]);
    for run in &runs {
        let m = &run.measurement;
        table.row([
            run.name.to_string(),
            m.base.stats.cycles.to_string(),
            m.ccr.stats.cycles.to_string(),
            speedup(m.speedup()),
            pct(m.eliminated_fraction()),
        ]);
    }
    let avg = runs.iter().map(|r| r.measurement.speedup()).sum::<f64>() / runs.len() as f64;
    table.row([
        "average".to_string(),
        String::new(),
        String::new(),
        speedup(avg),
        String::new(),
    ]);
    println!(
        "CCR suite — {:?} input, scale {}, CRB {}x{}",
        flags.input, flags.scale, flags.entries, flags.instances
    );
    println!("{table}");
    Ok(())
}

pub(crate) fn cmd_run(flags: &Flags) -> Result<(), CliError> {
    let snapshotted = flags.save_snapshot.is_some() || flags.restore_snapshot.is_some();
    if flags.save_snapshot.is_some() && flags.restore_snapshot.is_some() {
        return Err(usage_err(
            "--save-snapshot and --restore-snapshot are mutually exclusive",
        ));
    }
    if snapshotted && flags.telemetry.is_some() {
        return Err(usage_err(
            "--telemetry cannot be combined with --save-snapshot/--restore-snapshot",
        ));
    }
    if flags.save_snapshot.is_some() && flags.snapshot_cycle.is_none() {
        return Err(usage_err("--save-snapshot needs --snapshot-cycle N"));
    }
    if flags.save_snapshot.is_none() && flags.snapshot_cycle.is_some() {
        return Err(usage_err("--snapshot-cycle needs --save-snapshot FILE"));
    }
    if flags.save_snapshot.is_none() && flags.window.is_some() {
        return Err(usage_err("--window needs --save-snapshot FILE"));
    }
    let spec = target_of(flags)?;
    let harness = harness_of(flags)?;
    harness.plan(1, 1, &[("scale", u64::from(flags.scale))]);
    if snapshotted {
        let (compiled, m, fingerprint) = replay::run_snapshotted(flags, &spec, &harness)?;
        finish_harness(&harness);
        print_measurement(&spec, &compiled, &m);
        println!("{fingerprint}");
        return Ok(());
    }
    let compiled = compile_target(flags, &spec, flags.input, flags.scale, &harness)?;
    let m = match &flags.telemetry {
        None => {
            let ccr_bench::exp::Scenario {
                machine, crb, emu, ..
            } = scenario_of(flags);
            let sims = || Ok(measured(ccr::measure(&compiled, &machine, crb, emu)?));
            sim_task(flags, &harness, "run", &spec, sims)?.0
        }
        Some(dir) => {
            let trace = TraceConfig::default();
            let cap = capture(flags, &spec, &compiled, Path::new(dir), &trace, &harness)?;
            println!(
                "telemetry : {} + {}",
                cap.events.display(),
                cap.report.display()
            );
            cap.measurement
        }
    };
    finish_harness(&harness);
    print_measurement(&spec, &compiled, &m);
    Ok(())
}

/// The five measurement lines of `ccr run`, snapshotted or not.
pub(crate) fn print_measurement(spec: &str, compiled: &CompiledWorkload, m: &Measurement) {
    println!("program   : {spec}");
    println!("regions   : {}", compiled.regions.len());
    println!("baseline  : {} cycles", m.base.stats.cycles);
    println!(
        "with CCR  : {} cycles ({} hits / {} misses)",
        m.ccr.stats.cycles, m.ccr.stats.reuse_hits, m.ccr.stats.reuse_misses
    );
    println!(
        "speedup   : {}x  eliminated {}",
        speedup(m.speedup()),
        pct(m.eliminated_fraction())
    );
}

/// A measurement captured to disk by [`capture`].
struct Capture {
    measurement: Measurement,
    events: PathBuf,
    report: PathBuf,
    sim_wall_ms: u64,
}

/// The one run-capture writer behind `ccr run --telemetry` and `ccr
/// profile`: measures `compiled` under `cfg` with its event stream in
/// `dir/events.jsonl` (a `run_begin` marker, the compile events, then
/// the simulations) and writes the full run report to
/// `dir/report.json`. The simulations are one `sim` task of `harness`.
fn capture(
    flags: &Flags,
    spec: &str,
    compiled: &CompiledWorkload,
    dir: &Path,
    cfg: &TraceConfig,
    harness: &Harness,
) -> Result<Capture, CliError> {
    use ccr::telemetry::{Event, FieldValue, JsonlSink, TelemetrySink, SCHEMA_VERSION};
    let ccr_bench::exp::Scenario {
        machine, crb, emu, ..
    } = scenario_of(flags);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let events = dir.join("events.jsonl");
    let mut sink = JsonlSink::create(&events).map_err(|e| format!("{}: {e}", events.display()))?;
    let mut begin = vec![
        ("schema", FieldValue::from(u64::from(SCHEMA_VERSION))),
        ("workload", spec.into()),
        ("input", flags.input.name().into()),
        ("scale", flags.scale.into()),
    ];
    if cfg.profile {
        begin.push(("profiled", true.into()));
    }
    sink.emit(&Event {
        kind: "run_begin",
        fields: &begin,
    });
    ccr::emit_compile_events(&compiled.telemetry, &mut sink);
    let kind = if cfg.profile { "profile" } else { "run" };
    let (m, sim_wall_ms) = sim_task(flags, harness, kind, spec, || {
        Ok(measured(ccr::measure_with(
            compiled, &machine, crb, emu, cfg, &mut sink,
        )?))
    })?;
    sink.finish()
        .map_err(|e| format!("{}: {e}", events.display()))?;
    let argv: Vec<String> = std::env::args().collect();
    let provenance = ccr::Provenance::new(&argv, &machine, &crb);
    let report = ccr::RunReport {
        workload: spec,
        input: flags.input.name(),
        scale: flags.scale,
        machine: &machine,
        crb: &crb,
        provenance: &provenance,
        compile: &compiled.telemetry,
        regions: &compiled.regions,
        measurement: &m,
    };
    let report_path = dir.join("report.json");
    std::fs::write(&report_path, report.to_json() + "\n")
        .map_err(|e| format!("{}: {e}", report_path.display()))?;
    Ok(Capture {
        measurement: m,
        events,
        report: report_path,
        sim_wall_ms,
    })
}

pub(crate) fn cmd_profile(flags: &Flags) -> Result<(), CliError> {
    let spec = target_of(flags)?;
    let harness = harness_of(flags)?;
    harness.plan(1, 1, &[("scale", u64::from(flags.scale))]);
    let compiled = compile_target(flags, &spec, flags.input, flags.scale, &harness)?;

    // Default the output directory to one derived from the target, so
    // `ccr profile bitcount` works bare.
    let dir = flags
        .telemetry
        .clone()
        .unwrap_or_else(|| format!("{}-profile", file_stem(&spec)));
    let dir = Path::new(&dir);
    let cfg = TraceConfig {
        profile: true,
        sample_period: flags.sample_period,
        ..TraceConfig::default()
    };
    let cap = capture(flags, &spec, &compiled, dir, &cfg, &harness)?;
    finish_harness(&harness);

    // Read the capture back through the same path `ccr analyze` uses:
    // the committed artifacts are exactly what an offline analysis of
    // this directory would produce.
    let data = ccr_analyze::load_run(dir).map_err(|e| e.to_string())?;
    let analysis = ccr_analyze::analyze(&data, flags.top);
    let written = results::write_analysis_artifacts(dir, &data, &analysis)?;
    print!("{}", analysis.summary());
    println!(
        "samples    : {} cycle samples (period {})",
        data.cycle_samples.len(),
        flags.sample_period
    );
    println!(
        "wrote      : {} + {} + {written}",
        cap.events.display(),
        cap.report.display()
    );
    // Store hook: the analysis's own record, with the miss mix the
    // profiled run classified. The rest stays zero: a profile run is
    // single-threaded host-side (no pool, no utilization measurement),
    // runs a profiled session (no fingerprint window)
    // and is a one-shot run, not a serve session.
    let rec = ccr_analyze::RunRecord {
        timestamp: record_timestamp(flags),
        commit: ccr::git_commit_id().to_string(),
        source: "profile".to_string(),
        ..analysis.record(cap.sim_wall_ms)
    };
    append_to_store(flags, &[rec])
}

pub(crate) fn cmd_bench(flags: &Flags) -> Result<(), CliError> {
    let scenario = scenario_of(flags);
    let selected: Vec<&'static str> = match &flags.only {
        None => NAMES.to_vec(),
        Some(list) => {
            let mut out = Vec::new();
            for name in list.split(',').filter(|s| !s.is_empty()) {
                let Some(&known) = NAMES.iter().find(|&&n| n == name) else {
                    return Err(format!("unknown workload `{name}` (see `ccr list`)").into());
                };
                out.push(known);
            }
            out
        }
    };
    if selected.is_empty() {
        return Err(usage_err("--only selected no workloads"));
    }
    let mut report = ccr_analyze::BenchReport {
        suite: "ccr".to_string(),
        input: flags.input.name().to_string(),
        scale: u64::from(flags.scale),
        config_hash: ccr::config_hash(&scenario.machine, &scenario.crb),
        crate_version: env!("CARGO_PKG_VERSION").to_string(),
        git_commit: ccr::git_commit_id().to_string(),
        host_reps: flags.host_reps as u64,
        ..ccr_analyze::BenchReport::default()
    };
    let harness = harness_of(flags)?;
    // Host repetitions share compiles but re-run every simulation (a
    // result cache of capacity 0), so each rep measures the host. The
    // report keeps the first rep's runs with each workload's median
    // wall time; simulated statistics are deterministic, so every rep
    // must reproduce them.
    let engine = ccr_bench::Engine::with_capacity(ccr::resolve_jobs(flags.jobs), 0);
    let run_once = || engine.run_selected(&selected, &scenario, &harness);
    let mut runs = run_once()?;
    let mut walls: Vec<Vec<u64>> = runs.iter().map(|r| vec![r.wall_ms]).collect();
    for _ in 1..flags.host_reps {
        let rep = run_once()?;
        for (i, r) in rep.iter().enumerate() {
            assert_eq!(
                runs[i].measurement.base.stats, r.measurement.base.stats,
                "{}: host repetition changed baseline statistics",
                r.name
            );
            assert_eq!(
                runs[i].measurement.ccr.stats, r.measurement.ccr.stats,
                "{}: host repetition changed CCR statistics",
                r.name
            );
            walls[i].push(r.wall_ms);
        }
    }
    for (run, wall) in runs.iter_mut().zip(&mut walls) {
        run.wall_ms = median_ms(wall);
    }
    let harness_summary = finish_harness(&harness);
    // Optional service-throughput baseline: N synthetic clients
    // concurrently sweeping the same selection through one shared
    // engine — the fully-overlapping request population `ccr serve`
    // dedups. Skipped by default so the gate's timing is unchanged.
    if let Some(clients) = flags.serve_clients {
        let engine = ccr_bench::Engine::new(ccr::resolve_jobs(flags.jobs));
        let (points, points_per_sec) =
            ccr::serve::synthetic_client_baseline(&engine, clients, &selected, &scenario)?;
        report.serve_clients = clients as u64;
        report.serve_points_per_sec = points_per_sec;
        eprintln!(
            "serve baseline: {clients} client(s), {points} point(s), \
             {points_per_sec:.2} points/s \
             (result cache: {} hit(s), {} miss(es))",
            engine.result_cache().hits(),
            engine.result_cache().misses()
        );
    }
    // One store record per run; the snapshot rows are derived from
    // them (the BENCH file itself is cause-lossy, so imports of it
    // carry an all-zero miss mix).
    let ts = record_timestamp(flags);
    let host_util_pct = harness_summary.map_or(0.0, |s| s.utilization_pct);
    let records: Vec<ccr_analyze::RunRecord> = runs
        .iter()
        .map(|run| ccr_analyze::RunRecord {
            timestamp: ts,
            commit: report.git_commit.clone(),
            source: "bench".to_string(),
            host_util_pct,
            points_per_sec: report.serve_points_per_sec,
            ..run.record(flags.input, flags.scale, &report.config_hash)
        })
        .collect();
    report.workloads = records
        .iter()
        .map(ccr_analyze::BenchWorkload::from)
        .collect();
    report.agg_sim_cycles_per_host_sec = ccr_analyze::geomean_host_throughput(&report.workloads);
    let out = flags.out.as_deref().unwrap_or("BENCH_ccr.json");
    std::fs::write(out, report.to_json()).map_err(|e| format!("{out}: {e}"))?;
    print!("{}", report.render());
    println!("wrote {out}");
    append_to_store(flags, &records)
}

/// Median of a sample of millisecond timings (midpoint of the two
/// central values for even sample sizes).
fn median_ms(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    let n = samples.len();
    if n == 0 {
        0
    } else if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2
    }
}

/// `ccr exp`: the declarative experiment engine. Plans the selected
/// specs into a deduplicated set of compile and simulation units,
/// runs them in parallel, and renders each experiment exactly as its
/// legacy binary did (tables to stdout, or `<output>.txt` +
/// `<output>.<table>.csv` under `--out DIR`). The plan log — how many
/// points were requested and how many survived deduplication — goes
/// to stderr so piped table output stays clean.
pub(crate) fn cmd_exp(flags: &Flags) -> Result<(), CliError> {
    use ccr_bench::exp;
    if flags.window.is_some() && !flags.fingerprint {
        return Err(usage_err("--window needs --fingerprint"));
    }
    let registry = exp::specs::registry();
    if flags.list {
        let mut table = Table::new(["name", "output", "experiment"]);
        for spec in &registry {
            table.row([
                spec.name.to_string(),
                spec.output.to_string(),
                spec.title.to_string(),
            ]);
        }
        print!("{table}");
        return Ok(());
    }
    let selected: Vec<&exp::ExperimentSpec> = if flags.all {
        if !flags.positional.is_empty() {
            return Err(usage_err("--all takes no experiment names"));
        }
        registry.iter().collect()
    } else {
        if flags.positional.is_empty() {
            return Err(usage_err(
                "exp needs experiment names or --all (see `ccr exp --list`)",
            ));
        }
        let mut out = Vec::new();
        for name in &flags.positional {
            let Some(spec) = registry
                .iter()
                .find(|s| s.name == name.as_str() || s.output == name.as_str())
            else {
                return Err(format!("unknown experiment `{name}` (see `ccr exp --list`)").into());
            };
            out.push(spec);
        }
        out
    };
    let plan = exp::plan(&selected);
    eprint!("{}", plan.stats.render());
    let harness = harness_of(flags)?;
    let executed = ccr_bench::Engine::new(ccr::resolve_jobs(flags.jobs)).execute_plan(
        &plan,
        &harness,
        flags.checkpoint.as_deref().map(std::path::Path::new),
        flags.fingerprint.then(|| replay::fingerprint_window(flags)),
    )?;
    let (cache_hits, cache_misses) = executed.cache_stats();
    eprintln!(
        "compile cache: {cache_hits} hit(s), {cache_misses} miss(es) \
         across {} compile unit(s)",
        cache_hits + cache_misses
    );
    let (profiles_run, profiles_reused) = executed.profile_stats();
    eprintln!("value profiles: {profiles_run} run, {profiles_reused} reused");
    let (trials_run, trials_reused) = executed.trial_stats();
    eprintln!("reiteration trials: {trials_run} run, {trials_reused} reused");
    let (base_runs, ccr_runs) = executed.functional_runs();
    eprintln!(
        "functional runs: {} for {} sims ({base_runs} baseline + {ccr_runs} ccr)",
        base_runs + ccr_runs,
        plan.stats.unique_sims
    );
    let harness_summary = finish_harness(&harness);
    for spec in &selected {
        let rendered = executed.results(spec).render();
        match &flags.out {
            Some(dir) => {
                let dir = Path::new(dir);
                let txt = write_file(dir, &format!("{}.txt", spec.output), &rendered.text)?;
                for (name, table) in &rendered.tables {
                    write_file(dir, &format!("{}.{name}.csv", spec.output), &table.to_csv())?;
                }
                eprintln!("wrote {}", txt.display());
            }
            None => print!("{}", rendered.text),
        }
    }
    // Store hook: one record per unique executed CCR sweep point.
    let ts = record_timestamp(flags);
    let commit = ccr::git_commit_id();
    let host_util_pct = harness_summary.map_or(0.0, |s| s.utilization_pct);
    let records: Vec<ccr_analyze::RunRecord> = executed
        .records()
        .into_iter()
        .map(|r| ccr_analyze::RunRecord {
            timestamp: ts,
            commit: commit.to_string(),
            source: "exp".to_string(),
            host_util_pct,
            ..r
        })
        .collect();
    append_to_store(flags, &records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median_ms(&mut []), 0);
        assert_eq!(median_ms(&mut [7]), 7);
        assert_eq!(median_ms(&mut [9, 1, 5]), 5);
        assert_eq!(median_ms(&mut [4, 2, 8, 6]), 5);
    }
}
