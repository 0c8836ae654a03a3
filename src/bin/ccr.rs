//! `ccr` — command-line driver for the CCR framework.
//!
//! ```text
//! ccr suite [--input train|ref] [--scale N] [--entries E] [--instances C]
//!           [--jobs N]
//! ccr run <benchmark|file.ccr> [--entries E] [--instances C] [--function-level]
//!         [--telemetry DIR] [--jobs N]
//! ccr profile <benchmark|file.ccr> [--telemetry DIR] [--sample-period N]
//!             [--entries E] [--instances C] [--function-level] [--top N]
//! ccr analyze <DIR> [--top N] [--out DIR]
//! ccr diff <BASE> <NEW> [--thresholds default|none] [--force]
//!          [--max-cycle-regress-pct X] [--max-hit-rate-drop-pp X]
//!          [--max-speedup-drop-pct X]
//! ccr bench [--input train|ref] [--scale N] [--entries E] [--instances C]
//!           [--only NAME[,NAME...]] [--out FILE] [--jobs N] [--host-reps N]
//! ccr exp <NAME>... | --all [--jobs N] [--out DIR]
//! ccr exp --list
//! ccr report [--store FILE] [--out DIR] [--thresholds default|none]
//!            [--max-cycle-regress-pct X] [--max-hit-rate-drop-pp X]
//!            [--max-speedup-drop-pct X] [--max-host-throughput-drop-pct X]
//! ccr report import <FILE>... [--store FILE] [--commit HASH] [--at TS]
//! ccr fingerprint <benchmark|file.ccr>... [--window K] [--out DIR] [--jobs N]
//! ccr fingerprint --compare <A.fp.jsonl> <B.fp.jsonl> [--out DIR]
//! ccr snapshot save <benchmark|file.ccr> --at-cycle N [--out FILE] [--window K]
//! ccr snapshot restore <FILE>
//! ccr regions <benchmark|file.ccr>
//! ccr potential <benchmark|file.ccr>
//! ccr print <benchmark> [--annotated]
//! ccr trace <benchmark|file.ccr> [--limit N]
//! ccr list
//! ```
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
//! counts are bit-identical to an unprofiled `ccr run`.
//!
//! `ccr analyze` reads those artifacts back and writes
//! `analysis.json` (per-region reuse profiles, CRB pressure, IPC
//! percentiles — deterministic bytes) and a Chrome-trace `trace.json`
//! (load it in `chrome://tracing` or Perfetto); on profiled captures
//! it also refreshes `profile.folded` + `flamegraph.svg`. `ccr diff`
//! compares two runs — telemetry directories, saved `analysis.json`
//! files, or `BENCH_*.json` snapshots — and exits with status 2 when
//! a regression threshold is breached, which is what CI gates on.
//! `ccr bench` runs the built-in suite and snapshots `BENCH_ccr.json`,
//! the committed performance baseline.
//!
//! Every measuring command (`ccr bench`, `ccr exp`, `ccr profile`)
//! also appends its measurements to the append-only cross-run store —
//! `runs/store.jsonl` by default, `--store FILE` to redirect,
//! `--no-store` to opt out, `--at TS` to pin the record timestamp.
//! `ccr report` reads the store back and renders per-series trend
//! tables (speedup / hit rate / miss-cause mix / host throughput)
//! plus first-regression flags: for each (workload, input, scale,
//! config-hash) series and each gated metric, the earliest adjacent
//! pair breaching the thresholds is flagged as the regression's
//! introduction point, and the command exits 2 — the same contract
//! `ccr diff` has. `ccr report import` backfills a store from saved
//! `BENCH_*.json` / `analysis.json` artifacts. See DESIGN.md §11.
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
//! `ccr fingerprint` runs each named workload under the simulator's
//! streaming determinism fingerprint (an FNV-1a fold over the full
//! architectural + CRB state, chained every `--window` cycles) and
//! prints the final chain hash plus every per-window digest; `--out
//! DIR` additionally writes one `<name>.fp.jsonl` digest file per
//! workload and a `chains.txt` summary for CI `cmp` gating. `ccr
//! fingerprint --compare A B` bisects two digest files to the exact
//! first divergent cycle window (chained hashes make the first
//! mismatch the first divergence), dumps a state snapshot at the last
//! agreed boundary when the workload is locally reproducible, and
//! exits 2 — the `ccr diff` contract. `ccr snapshot save/restore`
//! captures the complete mid-run simulation state at a cycle as
//! versioned `{"snap_v":1}` JSONL and resumes it later with
//! bit-identical final statistics; `ccr run --save-snapshot FILE
//! --snapshot-cycle N` / `--restore-snapshot FILE` does the same
//! inside a full measurement, and `ccr exp --checkpoint FILE` makes
//! long sweeps crash-resumable at simulation-unit granularity. See
//! DESIGN.md §13.
//!
//! `--jobs N` (or the `CCR_JOBS` environment variable; `0` = one per
//! hardware thread) fans independent compiles and simulations out
//! over N worker threads. Parallelism is a host concern only: every
//! simulated statistic is bit-identical to a serial run — just the
//! `wall_ms` numbers change.
//!
//! A `<benchmark>` is one of the thirteen built-in workload names
//! (`ccr list`, plus the `bitcount` smoke workload); a `file.ccr` is
//! a textual-IR program as produced by `ccr print`.

use std::process::ExitCode;

use ccr::ir::Program;
use ccr::profile::EmuConfig;
use ccr::regions::RegionConfig;
use ccr::report::{pct, speedup, Table};
use ccr::sim::{CrbConfig, MachineConfig, SimSession};
use ccr::workloads::{build, InputSet, NAMES};
use ccr::{compile_ccr, CompileConfig};

/// A CLI failure. `Usage` errors (bad subcommand, bad flags, missing
/// arguments) get the usage text appended; `Failure` errors (a
/// command that started and could not finish — missing files,
/// unparseable input, simulation limits) print exactly one line.
/// Both exit with status 1.
enum CliError {
    Usage(String),
    Failure(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Failure(msg)
    }
}

fn usage_err(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(CliError::Failure(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  ccr suite [--input train|ref] [--scale N] [--entries E] [--instances C]
            [--jobs N]
  ccr run <benchmark|file.ccr> [--entries E] [--instances C] [--function-level]
          [--telemetry DIR] [--jobs N]
  ccr profile <benchmark|file.ccr> [--telemetry DIR] [--sample-period N]
              [--entries E] [--instances C] [--function-level] [--top N]
  ccr analyze <DIR> [--top N] [--out DIR]
  ccr diff <BASE> <NEW> [--thresholds default|none] [--force]
           [--max-cycle-regress-pct X] [--max-hit-rate-drop-pp X]
           [--max-speedup-drop-pct X]
  ccr bench [--input train|ref] [--scale N] [--entries E] [--instances C]
            [--only NAME[,NAME...]] [--out FILE] [--jobs N] [--host-reps N]
  ccr exp <NAME>... | --all [--jobs N] [--out DIR]
  ccr exp --list
  ccr serve --socket PATH | --port N [--queue N] [--jobs N]
            [--harness-out FILE] [--store FILE] [--no-store] [--at TS]
  ccr submit --socket PATH | --port N <EXPERIMENT>...
  ccr submit --socket PATH | --port N --workload NAME [--input train|ref]
             [--scale N] [--entries E] [--instances C]
  (submit also takes [--shutdown] — ask the server to exit after the
   submissions; bench also takes [--serve-clients N] — measure service
   throughput with N concurrent synthetic clients)
  ccr report [--store FILE] [--out DIR] [--thresholds default|none]
             [--max-cycle-regress-pct X] [--max-hit-rate-drop-pp X]
             [--max-speedup-drop-pct X] [--max-host-throughput-drop-pct X]
  ccr report import <FILE>... [--store FILE] [--commit HASH] [--at TS]
  ccr fingerprint <benchmark|file.ccr>... [--window K] [--out DIR] [--jobs N]
                  [--input train|ref] [--scale N] [--entries E] [--instances C]
  ccr fingerprint --compare <A.fp.jsonl> <B.fp.jsonl> [--out DIR]
  ccr snapshot save <benchmark|file.ccr> --at-cycle N [--out FILE] [--window K]
               [--input train|ref] [--scale N] [--entries E] [--instances C]
  ccr snapshot restore <FILE> [--entries E] [--instances C]
  (run also takes [--save-snapshot FILE --snapshot-cycle N] and
   [--restore-snapshot FILE]; exp also takes [--checkpoint FILE] and
   [--fingerprint [--window K]] — resumable sweeps and stored trajectory
   hashes)
  (bench/exp/profile also take [--store FILE] [--no-store] [--at TS])
  (suite/bench/exp/profile also take [--progress[=plain|json]] [--no-progress]
   [--harness-out FILE] — live progress to stderr and a structured
   harness.jsonl event log; simulated results are bit-identical either way)
  ccr regions <benchmark|file.ccr>
  ccr potential <benchmark|file.ccr>
  ccr print <benchmark> [--annotated]
  ccr trace <benchmark|file.ccr> [--limit N]
  ccr list
  (a flag the subcommand does not read is an error)";

/// Parsed flag set shared by the subcommands.
struct Flags {
    input: InputSet,
    scale: u32,
    entries: usize,
    instances: usize,
    function_level: bool,
    annotated: bool,
    limit: u64,
    sample_period: u64,
    telemetry: Option<String>,
    top: usize,
    out: Option<String>,
    thresholds: String,
    force: bool,
    only: Option<String>,
    all: bool,
    list: bool,
    jobs: Option<usize>,
    host_reps: usize,
    max_cycle_regress_pct: Option<f64>,
    max_hit_rate_drop_pp: Option<f64>,
    max_speedup_drop_pct: Option<f64>,
    max_host_throughput_drop_pct: Option<f64>,
    store: Option<String>,
    no_store: bool,
    commit: Option<String>,
    at: Option<u64>,
    progress: Option<String>,
    no_progress: bool,
    harness_out: Option<String>,
    window: Option<u64>,
    at_cycle: Option<u64>,
    snapshot_cycle: Option<u64>,
    compare: bool,
    checkpoint: Option<String>,
    fingerprint: bool,
    save_snapshot: Option<String>,
    restore_snapshot: Option<String>,
    socket: Option<String>,
    port: Option<u16>,
    queue: Option<usize>,
    workload: Option<String>,
    shutdown: bool,
    serve_clients: Option<usize>,
    positional: Vec<String>,
}

/// Parses `ccr <cmd>`'s arguments, accepting only the flags in `reads`
/// (space-separated groups).
fn parse_flags(cmd: &str, args: &[String], reads: &[&str]) -> Result<Flags, String> {
    let mut flags = Flags {
        input: InputSet::Train,
        scale: 1,
        entries: 128,
        instances: 8,
        function_level: false,
        annotated: false,
        limit: 40,
        sample_period: ccr::sim::DEFAULT_SAMPLE_PERIOD,
        telemetry: None,
        top: 10,
        out: None,
        thresholds: "default".to_string(),
        force: false,
        only: None,
        all: false,
        list: false,
        jobs: None,
        host_reps: 1,
        max_cycle_regress_pct: None,
        max_hit_rate_drop_pp: None,
        max_speedup_drop_pct: None,
        max_host_throughput_drop_pct: None,
        store: None,
        no_store: false,
        commit: None,
        at: None,
        progress: None,
        no_progress: false,
        harness_out: None,
        window: None,
        at_cycle: None,
        snapshot_cycle: None,
        compare: false,
        checkpoint: None,
        fingerprint: false,
        save_snapshot: None,
        restore_snapshot: None,
        socket: None,
        port: None,
        queue: None,
        workload: None,
        shutdown: false,
        serve_clients: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs a value"))
        };
        match a.as_str() {
            "--input" => {
                flags.input = match take()?.as_str() {
                    "train" => InputSet::Train,
                    "ref" => InputSet::Ref,
                    other => return Err(format!("unknown input set `{other}`")),
                };
            }
            "--scale" => flags.scale = num(a, take()?)?,
            "--entries" => {
                flags.entries = num(a, take()?)?;
                if flags.entries == 0 {
                    return Err("--entries must be at least 1".to_string());
                }
            }
            "--instances" => {
                flags.instances = num(a, take()?)?;
                if flags.instances == 0 {
                    return Err("--instances must be at least 1".to_string());
                }
            }
            "--function-level" => flags.function_level = true,
            "--annotated" => flags.annotated = true,
            "--limit" => flags.limit = num(a, take()?)?,
            "--sample-period" => {
                flags.sample_period = num(a, take()?)?;
                if flags.sample_period == 0 {
                    return Err("--sample-period must be at least 1".to_string());
                }
            }
            "--telemetry" => flags.telemetry = Some(take()?),
            "--top" => flags.top = num(a, take()?)?,
            "--out" => flags.out = Some(take()?),
            "--thresholds" => {
                flags.thresholds = take()?;
                if !matches!(flags.thresholds.as_str(), "default" | "none") {
                    return Err(format!(
                        "--thresholds must be `default` or `none`, got `{}`",
                        flags.thresholds
                    ));
                }
            }
            "--force" => flags.force = true,
            "--only" => flags.only = Some(take()?),
            "--all" => flags.all = true,
            "--list" => flags.list = true,
            "--jobs" => flags.jobs = Some(num(a, take()?)?),
            "--max-cycle-regress-pct" => flags.max_cycle_regress_pct = Some(num(a, take()?)?),
            "--max-hit-rate-drop-pp" => flags.max_hit_rate_drop_pp = Some(num(a, take()?)?),
            "--max-speedup-drop-pct" => flags.max_speedup_drop_pct = Some(num(a, take()?)?),
            "--host-reps" => {
                flags.host_reps = num(a, take()?)?;
                if flags.host_reps == 0 {
                    return Err("--host-reps must be at least 1".to_string());
                }
            }
            "--max-host-throughput-drop-pct" => {
                flags.max_host_throughput_drop_pct = Some(num(a, take()?)?);
            }
            "--store" => flags.store = Some(take()?),
            "--no-store" => flags.no_store = true,
            "--progress" => flags.progress = Some("plain".to_string()),
            "--no-progress" => flags.no_progress = true,
            "--harness-out" => flags.harness_out = Some(take()?),
            "--window" => {
                flags.window = Some(num(a, take()?)?);
                if flags.window == Some(0) {
                    return Err("--window must be at least 1 cycle".to_string());
                }
            }
            "--at-cycle" => flags.at_cycle = Some(num(a, take()?)?),
            "--snapshot-cycle" => flags.snapshot_cycle = Some(num(a, take()?)?),
            "--socket" => flags.socket = Some(take()?),
            "--port" => flags.port = Some(num(a, take()?)?),
            "--queue" => {
                flags.queue = Some(num(a, take()?)?);
                if flags.queue == Some(0) {
                    return Err("--queue must be at least 1".to_string());
                }
            }
            "--workload" => flags.workload = Some(take()?),
            "--shutdown" => flags.shutdown = true,
            "--serve-clients" => {
                flags.serve_clients = Some(num(a, take()?)?);
                if flags.serve_clients == Some(0) {
                    return Err("--serve-clients must be at least 1".to_string());
                }
            }
            "--compare" => flags.compare = true,
            "--checkpoint" => flags.checkpoint = Some(take()?),
            "--fingerprint" => flags.fingerprint = true,
            "--save-snapshot" => flags.save_snapshot = Some(take()?),
            "--restore-snapshot" => flags.restore_snapshot = Some(take()?),
            "--commit" => flags.commit = Some(take()?),
            "--at" => {
                let at = take()?.parse();
                flags.at = Some(at.map_err(|_| "bad --at value (unix seconds)".to_string())?);
            }
            other if other.starts_with("--progress=") => {
                let mode = other.trim_start_matches("--progress=");
                if ccr::ProgressMode::parse(mode).is_none() {
                    return Err(format!(
                        "--progress must be `plain` or `json`, got `{mode}`"
                    ));
                }
                flags.progress = Some(mode.to_string());
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`"));
            }
            other => flags.positional.push(other.to_string()),
        }
        let name = a.split('=').next().unwrap_or(a);
        if name.starts_with("--") && !reads.iter().any(|g| g.split(' ').any(|f| f == name)) {
            return Err(format!("`ccr {cmd}` does not take {name}"));
        }
    }
    Ok(flags)
}

/// Parses a numeric flag value, naming the flag when it is malformed.
fn num<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad {flag} value"))
}

/// Flag groups several subcommands read (see [`dispatch`]).
const TARGET: &str = "--input --scale";
const CONFIG: &str = "--entries --instances --function-level";
const HARNESS: &str = "--progress --no-progress --harness-out";
const STORE: &str = "--store --no-store --at";
const SNAPSHOT: &str = "--save-snapshot --snapshot-cycle --restore-snapshot";
const GATE: &str = concat!(
    "--thresholds --max-cycle-regress-pct --max-hit-rate-drop-pp ",
    "--max-speedup-drop-pct --max-host-throughput-drop-pct"
);

type Command = fn(&Flags) -> Result<ExitCode, CliError>;

fn ok(r: Result<(), CliError>) -> Result<ExitCode, CliError> {
    r.map(|()| ExitCode::SUCCESS)
}

/// Runs a subcommand. Each subcommand lists the flags it reads; any
/// other flag is a usage error rather than silently ignored.
fn dispatch(args: &[String]) -> Result<ExitCode, CliError> {
    let Some(cmd) = args.first() else {
        return Err(usage_err("missing subcommand"));
    };
    let (reads, run): (&[&str], Command) = match cmd.as_str() {
        "list" => (&[], |_| {
            for name in NAMES {
                println!("{name}");
            }
            Ok(ExitCode::SUCCESS)
        }),
        "suite" => (&[TARGET, CONFIG, HARNESS, "--jobs"], |f| ok(cmd_suite(f))),
        "run" => (
            &[
                TARGET,
                CONFIG,
                HARNESS,
                "--jobs --telemetry --window",
                SNAPSHOT,
            ],
            |f| ok(cmd_run(f)),
        ),
        "profile" => (
            &[
                TARGET,
                CONFIG,
                HARNESS,
                STORE,
                "--telemetry --sample-period --top",
            ],
            |f| ok(cmd_profile(f)),
        ),
        "analyze" => (&["--top --out"], |f| ok(cmd_analyze(f))),
        "diff" => (&[GATE, "--force --top"], cmd_diff),
        "bench" => (
            &[
                TARGET,
                CONFIG,
                HARNESS,
                STORE,
                "--jobs --only --out --host-reps --serve-clients",
            ],
            |f| ok(cmd_bench(f)),
        ),
        "exp" => (
            &[
                HARNESS,
                STORE,
                "--jobs --out --list --all --checkpoint --fingerprint --window",
            ],
            |f| ok(cmd_exp(f)),
        ),
        "serve" => (
            &[STORE, "--socket --port --queue --jobs --harness-out"],
            |f| ok(cmd_serve(f)),
        ),
        "submit" => (
            &[
                TARGET,
                "--entries --instances --socket --port --workload --shutdown",
            ],
            |f| ok(cmd_submit(f)),
        ),
        "report" => (&[GATE, "--store --out --commit --at"], cmd_report),
        "fingerprint" => (
            &[TARGET, CONFIG, HARNESS, "--window --jobs --out --compare"],
            cmd_fingerprint,
        ),
        "snapshot" => (
            &[TARGET, CONFIG, HARNESS, "--at-cycle --out --window"],
            |f| ok(cmd_snapshot(f)),
        ),
        "regions" => (&[TARGET, "--instances --function-level"], |f| {
            ok(cmd_regions(f))
        }),
        "potential" => (&[TARGET], |f| ok(cmd_potential(f))),
        "print" => (&[TARGET, "--annotated --instances --function-level"], |f| {
            ok(cmd_print(f))
        }),
        "trace" => (&[TARGET, "--limit"], |f| ok(cmd_trace(f))),
        other => return Err(usage_err(format!("unknown subcommand `{other}`"))),
    };
    run(&parse_flags(cmd, &args[1..], reads).map_err(usage_err)?)
}

fn emu() -> EmuConfig {
    EmuConfig {
        max_instrs: 500_000_000,
        max_depth: 1024,
    }
}

/// Builds the harness from `--progress` / `--no-progress` /
/// `--harness-out`. Disabled (a guaranteed no-op) unless some sink
/// was requested; `--no-progress` silences the stderr stream but
/// leaves a requested `--harness-out` file active.
fn harness_of(flags: &Flags) -> Result<ccr::Harness, CliError> {
    let progress = match (&flags.progress, flags.no_progress) {
        (_, true) | (None, _) => ccr::ProgressMode::Off,
        (Some(mode), false) => ccr::ProgressMode::parse(mode).ok_or_else(|| {
            usage_err(format!(
                "--progress must be `plain` or `json`, got `{mode}`"
            ))
        })?,
    };
    let opts = ccr::HarnessOptions {
        progress,
        out: flags.harness_out.as_ref().map(std::path::PathBuf::from),
        ..ccr::HarnessOptions::default()
    };
    ccr::Harness::start(&opts).map_err(|e| CliError::Failure(format!("harness: {e}")))
}

/// Ends a harnessed command: stops the monitor, emits the
/// `harness_summary` event, and renders the summary to stderr (off
/// when the harness is disabled, so undecorated runs stay silent).
fn finish_harness(harness: &ccr::Harness) -> Option<ccr::HarnessSummary> {
    let summary = harness.finish()?;
    eprint!("{}", summary.render());
    Some(summary)
}

fn crb_of(flags: &Flags) -> CrbConfig {
    CrbConfig {
        entries: flags.entries,
        instances: flags.instances,
        ..CrbConfig::paper()
    }
}

fn compile_config(flags: &Flags) -> CompileConfig {
    CompileConfig {
        region: RegionConfig {
            trial_instances: flags.instances,
            function_level: flags.function_level,
            ..RegionConfig::paper()
        },
        emu: emu(),
        ..CompileConfig::paper()
    }
}

/// Loads a program: a built-in benchmark name or a `.ccr` text file.
fn load_program(spec: &str, input: InputSet, scale: u32) -> Result<Program, String> {
    if let Some(p) = build(spec, input, scale) {
        return Ok(p);
    }
    if spec.ends_with(".ccr") {
        let text = std::fs::read_to_string(spec).map_err(|e| format!("{spec}: {e}"))?;
        let p = ccr::ir::parse_program(&text).map_err(|e| format!("{spec}: {e}"))?;
        ccr::ir::verify_program(&p).map_err(|e| format!("{spec}: {e}"))?;
        return Ok(p);
    }
    Err(format!(
        "`{spec}` is neither a known benchmark (see `ccr list`) nor a .ccr file"
    ))
}

fn target_of(flags: &Flags) -> Result<String, CliError> {
    flags
        .positional
        .first()
        .cloned()
        .ok_or_else(|| usage_err("missing <benchmark|file.ccr>"))
}

fn cmd_suite(flags: &Flags) -> Result<(), CliError> {
    let machine = MachineConfig::paper();
    let crb = crb_of(flags);
    let harness = harness_of(flags)?;
    // One-shot run through a fresh engine: every cache lookup misses,
    // so the statistics match the historical uncached path exactly.
    let engine = ccr_bench::Engine::new(ccr::resolve_jobs(flags.jobs));
    let runs = engine.run_selected(
        &NAMES,
        flags.input,
        flags.scale,
        &compile_config(flags),
        &machine,
        crb,
        emu(),
        &harness,
    )?;
    finish_harness(&harness);
    let mut table = Table::new([
        "benchmark",
        "base cycles",
        "ccr cycles",
        "speedup",
        "eliminated",
    ]);
    let mut speedups = Vec::new();
    for run in &runs {
        let m = &run.measurement;
        speedups.push(m.speedup());
        table.row([
            run.name.to_string(),
            m.base.stats.cycles.to_string(),
            m.ccr.stats.cycles.to_string(),
            speedup(m.speedup()),
            pct(m.eliminated_fraction()),
        ]);
    }
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
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

fn cmd_run(flags: &Flags) -> Result<(), CliError> {
    if flags.save_snapshot.is_some() || flags.restore_snapshot.is_some() {
        if flags.save_snapshot.is_some() && flags.restore_snapshot.is_some() {
            return Err(usage_err(
                "--save-snapshot and --restore-snapshot are mutually exclusive",
            ));
        }
        if flags.telemetry.is_some() {
            return Err(usage_err(
                "--telemetry cannot be combined with --save-snapshot/--restore-snapshot",
            ));
        }
        if flags.save_snapshot.is_some() && flags.snapshot_cycle.is_none() {
            return Err(usage_err("--save-snapshot needs --snapshot-cycle N"));
        }
        return cmd_run_snapshotted(flags);
    }
    if flags.snapshot_cycle.is_some() {
        return Err(usage_err("--snapshot-cycle needs --save-snapshot FILE"));
    }
    let spec = target_of(flags)?;
    let train = load_program(&spec, InputSet::Train, flags.scale)?;
    let target = load_program(&spec, flags.input, flags.scale)?;
    let machine = MachineConfig::paper();
    let crb = crb_of(flags);
    let compiled =
        compile_ccr(&train, &target, &compile_config(flags)).map_err(|e| e.to_string())?;
    let jobs = ccr::resolve_jobs(flags.jobs);

    let trace = ccr::sim::TraceConfig::default();
    let m = match &flags.telemetry {
        None => ccr::measure_with(
            &compiled,
            &machine,
            crb,
            emu(),
            jobs,
            &trace,
            &mut ccr::telemetry::NullSink,
        )
        .map_err(|e| e.to_string())?,
        Some(dir) => {
            use ccr::telemetry::{emit, JsonlSink, SCHEMA_VERSION};
            let dir = std::path::Path::new(dir);
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let events_path = dir.join("events.jsonl");
            let mut sink = JsonlSink::create(&events_path)
                .map_err(|e| format!("{}: {e}", events_path.display()))?;
            emit!(&mut sink, "run_begin",
                schema: u64::from(SCHEMA_VERSION),
                workload: spec.as_str(),
                input: input_name(flags.input),
                scale: flags.scale,
            );
            ccr::emit_compile_events(&compiled.telemetry, &mut sink);
            let m = ccr::measure_with(&compiled, &machine, crb, emu(), jobs, &trace, &mut sink)
                .map_err(|e| e.to_string())?;
            sink.finish()
                .map_err(|e| format!("{}: {e}", events_path.display()))?;
            let argv: Vec<String> = std::env::args().collect();
            let provenance = ccr::Provenance::new(&argv, &machine, &crb);
            let report = ccr::RunReport {
                workload: &spec,
                input: input_name(flags.input),
                scale: flags.scale,
                machine: &machine,
                crb: &crb,
                provenance: &provenance,
                compile: &compiled.telemetry,
                regions: &compiled.regions,
                measurement: &m,
            };
            let report_path = dir.join("report.json");
            let mut json = report.to_json();
            json.push('\n');
            std::fs::write(&report_path, json)
                .map_err(|e| format!("{}: {e}", report_path.display()))?;
            println!(
                "telemetry : {} + {}",
                events_path.display(),
                report_path.display()
            );
            m
        }
    };

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
    Ok(())
}

fn input_name(input: InputSet) -> &'static str {
    match input {
        InputSet::Train => "train",
        InputSet::Ref => "ref",
    }
}

fn cmd_profile(flags: &Flags) -> Result<(), CliError> {
    use ccr::telemetry::{emit, JsonlSink, SCHEMA_VERSION};
    let spec = target_of(flags)?;
    let machine = MachineConfig::paper();
    let crb = crb_of(flags);
    let harness = harness_of(flags)?;
    harness.plan(1, 1, &[("scale", u64::from(flags.scale))]);
    let compile_label = format!("compile:{spec}:{}@{}", input_name(flags.input), flags.scale);
    harness.task_start("compile", &compile_label);
    let compile_start = std::time::Instant::now();
    // Registry benchmarks route through the engine's compile cache
    // (single profile runs always miss, so the compile is identical);
    // raw .ccr files have no registry key and compile directly.
    let engine = ccr_bench::Engine::new(1);
    let compiled = if build(&spec, InputSet::Train, flags.scale).is_some() {
        engine.compile_cache().get_or_compile(
            &spec,
            flags.input,
            flags.scale,
            &compile_config(flags),
        )?
    } else {
        let train = load_program(&spec, InputSet::Train, flags.scale)?;
        let target = load_program(&spec, flags.input, flags.scale)?;
        std::sync::Arc::new(
            compile_ccr(&train, &target, &compile_config(flags)).map_err(|e| e.to_string())?,
        )
    };
    harness.task_finish(
        "compile",
        &compile_label,
        compile_start.elapsed().as_millis() as u64,
        None,
    );

    // Default the output directory to one derived from the target, so
    // `ccr profile bitcount` works bare.
    let dir = flags.telemetry.clone().unwrap_or_else(|| {
        let stem = spec.trim_end_matches(".ccr").replace(['/', '\\'], "_");
        format!("{stem}-profile")
    });
    let dir = std::path::Path::new(&dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let events_path = dir.join("events.jsonl");
    let mut sink =
        JsonlSink::create(&events_path).map_err(|e| format!("{}: {e}", events_path.display()))?;
    emit!(&mut sink, "run_begin",
        schema: u64::from(SCHEMA_VERSION),
        workload: spec.as_str(),
        input: input_name(flags.input),
        scale: flags.scale,
        profiled: true,
    );
    ccr::emit_compile_events(&compiled.telemetry, &mut sink);
    let cfg = ccr::sim::TraceConfig {
        profile: true,
        sample_period: flags.sample_period,
        ..ccr::sim::TraceConfig::default()
    };
    let sim_label = format!("sim:profile:{spec}:{}", ccr::config_hash(&machine, &crb));
    harness.task_start("sim", &sim_label);
    let sim_start = std::time::Instant::now();
    let m = ccr::measure_with(&compiled, &machine, crb, emu(), 1, &cfg, &mut sink)
        .map_err(|e| e.to_string())?;
    let sim_wall_ms = sim_start.elapsed().as_millis() as u64;
    harness.task_finish(
        "sim",
        &sim_label,
        sim_wall_ms,
        Some(m.base.stats.cycles + m.ccr.stats.cycles),
    );
    finish_harness(&harness);
    sink.finish()
        .map_err(|e| format!("{}: {e}", events_path.display()))?;
    let argv: Vec<String> = std::env::args().collect();
    let provenance = ccr::Provenance::new(&argv, &machine, &crb);
    let report = ccr::RunReport {
        workload: &spec,
        input: input_name(flags.input),
        scale: flags.scale,
        machine: &machine,
        crb: &crb,
        provenance: &provenance,
        compile: &compiled.telemetry,
        regions: &compiled.regions,
        measurement: &m,
    };
    let report_path = dir.join("report.json");
    let mut json = report.to_json();
    json.push('\n');
    std::fs::write(&report_path, json).map_err(|e| format!("{}: {e}", report_path.display()))?;

    // Read the capture back through the same path `ccr analyze` uses:
    // the committed artifacts are exactly what an offline analysis of
    // this directory would produce.
    let data = ccr_analyze::load_run(dir).map_err(|e| e.to_string())?;
    let analysis = ccr_analyze::analyze(&data, flags.top);
    let written = write_analysis_artifacts(dir, &data, &analysis)?;
    print!("{}", analysis.summary());
    println!(
        "samples    : {} cycle samples (period {})",
        data.cycle_samples.len(),
        flags.sample_period
    );
    println!(
        "wrote      : {} + {} + {written}",
        events_path.display(),
        report_path.display()
    );
    // Store hook: one record from the analysis totals, with the miss
    // mix the profiled run classified.
    let rec = ccr_analyze::RunRecord {
        timestamp: record_timestamp(flags),
        commit: ccr::git_commit_id().to_string(),
        config_hash: analysis.config_hash.clone().unwrap_or_default(),
        source: "profile".to_string(),
        workload: analysis.workload.clone(),
        input: analysis.input.clone(),
        scale: analysis.scale,
        base_cycles: analysis.base_cycles,
        ccr_cycles: analysis.ccr_cycles,
        speedup: analysis.speedup,
        hit_rate: analysis.hit_rate,
        miss_causes: analysis.miss_causes,
        regions: analysis.regions_formed,
        wall_ms: sim_wall_ms,
        sim_cycles_per_host_sec: ccr_analyze::BenchWorkload::host_throughput(
            analysis.base_cycles,
            analysis.ccr_cycles,
            sim_wall_ms,
        ),
        // A profile run is single-threaded host-side: no pool, no
        // utilization measurement.
        host_util_pct: 0.0,
        // Profiled runs go through the attributing simulator, which
        // has no fingerprint stream.
        fingerprint: String::new(),
        // One-shot run, not a serve session.
        points_per_sec: 0.0,
    };
    append_to_store(flags, &[rec])
}

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
fn write_analysis_artifacts(
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

fn cmd_analyze(flags: &Flags) -> Result<(), CliError> {
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
    let mut t = match flags.thresholds.as_str() {
        "none" => ccr_analyze::Thresholds::none(),
        _ => ccr_analyze::Thresholds::default_gate(),
    };
    if flags.max_cycle_regress_pct.is_some() {
        t.max_cycle_regress_pct = flags.max_cycle_regress_pct;
    }
    if flags.max_hit_rate_drop_pp.is_some() {
        t.max_hit_rate_drop_pp = flags.max_hit_rate_drop_pp;
    }
    if flags.max_speedup_drop_pct.is_some() {
        t.max_speedup_drop_pct = flags.max_speedup_drop_pct;
    }
    if flags.max_host_throughput_drop_pct.is_some() {
        t.max_host_throughput_drop_pct = flags.max_host_throughput_drop_pct;
    }
    t
}

/// The run-store path a command appends to / reads from.
fn store_path(flags: &Flags) -> std::path::PathBuf {
    std::path::PathBuf::from(
        flags
            .store
            .as_deref()
            .unwrap_or(ccr_analyze::store::DEFAULT_STORE_PATH),
    )
}

/// Timestamp for new store records: `--at` when given (deterministic
/// runs, tests), the system clock otherwise.
fn record_timestamp(flags: &Flags) -> u64 {
    flags.at.unwrap_or_else(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0)
    })
}

/// Appends a measuring command's records to the run store unless the
/// user opted out. The confirmation goes to stderr so piped table
/// output (the `ccr exp` bit-identity contract) stays clean.
fn append_to_store(flags: &Flags, records: &[ccr_analyze::RunRecord]) -> Result<(), CliError> {
    if flags.no_store || records.is_empty() {
        return Ok(());
    }
    let path = store_path(flags);
    ccr_analyze::RunStore::append(&path, records)?;
    eprintln!(
        "store: appended {} record(s) to {}",
        records.len(),
        path.display()
    );
    Ok(())
}

fn cmd_diff(flags: &Flags) -> Result<ExitCode, CliError> {
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

fn cmd_bench(flags: &Flags) -> Result<(), CliError> {
    let machine = MachineConfig::paper();
    let crb = crb_of(flags);
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
        input: input_name(flags.input).to_string(),
        scale: u64::from(flags.scale),
        config_hash: ccr::config_hash(&machine, &crb),
        crate_version: env!("CARGO_PKG_VERSION").to_string(),
        git_commit: ccr::git_commit_id().to_string(),
        host_reps: flags.host_reps as u64,
        agg_sim_cycles_per_host_sec: 0.0,
        serve_clients: 0,
        serve_points_per_sec: 0.0,
        workloads: Vec::new(),
    };
    let harness = harness_of(flags)?;
    // Host repetitions share compiles but re-run every simulation (a
    // result cache of capacity 0), so each rep measures the host. The
    // report keeps the first rep's runs with each workload's median
    // wall time; simulated statistics are deterministic, so every rep
    // must reproduce them.
    let engine = ccr_bench::Engine::with_capacity(ccr::resolve_jobs(flags.jobs), 0);
    let run_once = || {
        engine.run_selected(
            &selected,
            flags.input,
            flags.scale,
            &compile_config(flags),
            &machine,
            crb,
            emu(),
            &harness,
        )
    };
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
    for run in &runs {
        let m = &run.measurement;
        let lookups = m.ccr.stats.reuse_hits + m.ccr.stats.reuse_misses;
        report.workloads.push(ccr_analyze::BenchWorkload {
            name: run.name.to_string(),
            base_cycles: m.base.stats.cycles,
            ccr_cycles: m.ccr.stats.cycles,
            speedup: m.speedup(),
            hit_rate: if lookups == 0 {
                0.0
            } else {
                m.ccr.stats.reuse_hits as f64 / lookups as f64
            },
            regions: run.compiled.regions.len() as u64,
            wall_ms: run.wall_ms,
            sim_cycles_per_host_sec: ccr_analyze::BenchWorkload::host_throughput(
                m.base.stats.cycles,
                m.ccr.stats.cycles,
                run.wall_ms,
            ),
        });
    }
    report.agg_sim_cycles_per_host_sec = ccr_analyze::geomean_host_throughput(&report.workloads);
    // Optional service-throughput baseline: N synthetic clients
    // concurrently sweeping the same selection through one shared
    // engine — the fully-overlapping request population `ccr serve`
    // dedups. Skipped by default so the gate's timing is unchanged.
    if let Some(clients) = flags.serve_clients {
        let engine = ccr_bench::Engine::new(ccr::resolve_jobs(flags.jobs));
        let (points, points_per_sec) = ccr::serve::synthetic_client_baseline(
            &engine,
            clients,
            &selected,
            flags.input,
            flags.scale,
            &compile_config(flags),
            &machine,
            crb,
            emu(),
        )?;
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
    let out = flags
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_ccr.json".to_string());
    std::fs::write(&out, report.to_json()).map_err(|e| format!("{out}: {e}"))?;
    print!("{}", report.render());
    println!("wrote {out}");
    // Store hook: the snapshot's records, with the real miss-cause mix
    // from the live simulator stats (the BENCH file itself is
    // cause-lossy, so imports of it stay all-zero).
    let mut records =
        ccr_analyze::store::records_from_bench(&report, record_timestamp(flags), "bench");
    let host_util_pct = harness_summary
        .as_ref()
        .map(|s| s.utilization_pct)
        .unwrap_or(0.0);
    for (rec, run) in records.iter_mut().zip(&runs) {
        let crb = &run.measurement.ccr.stats.crb;
        rec.miss_causes = [
            crb.miss_cold,
            crb.miss_mismatch,
            crb.miss_capacity,
            crb.miss_conflict,
            crb.miss_invalidated,
        ];
        rec.host_util_pct = host_util_pct;
    }
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
fn cmd_exp(flags: &Flags) -> Result<(), CliError> {
    use ccr_bench::exp;
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
        flags.fingerprint.then(|| fingerprint_window(flags)),
    )?;
    let (cache_hits, cache_misses) = executed.cache_stats();
    eprintln!(
        "compile cache: {cache_hits} hit(s), {cache_misses} miss(es) \
         across {} compile unit(s)",
        cache_hits + cache_misses
    );
    let (profiles_run, profiles_reused) = executed.profile_stats();
    eprintln!("value profiles: {profiles_run} run, {profiles_reused} reused");
    let harness_summary = finish_harness(&harness);
    for spec in &selected {
        let rendered = executed.results(spec).render();
        match &flags.out {
            Some(dir) => {
                let dir = std::path::Path::new(dir);
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("create {}: {e}", dir.display()))?;
                let txt = dir.join(format!("{}.txt", spec.output));
                std::fs::write(&txt, &rendered.text)
                    .map_err(|e| format!("write {}: {e}", txt.display()))?;
                for (name, table) in &rendered.tables {
                    let csv = dir.join(format!("{}.{name}.csv", spec.output));
                    std::fs::write(&csv, table.to_csv())
                        .map_err(|e| format!("write {}: {e}", csv.display()))?;
                }
                eprintln!("wrote {}", txt.display());
            }
            None => print!("{}", rendered.text),
        }
    }
    // Store hook: one record per unique executed CCR sweep point.
    let ts = record_timestamp(flags);
    let commit = ccr::git_commit_id();
    let host_util_pct = harness_summary
        .as_ref()
        .map(|s| s.utilization_pct)
        .unwrap_or(0.0);
    let records: Vec<ccr_analyze::RunRecord> = executed
        .point_summaries()
        .into_iter()
        .map(|p| ccr_analyze::RunRecord {
            timestamp: ts,
            commit: commit.to_string(),
            config_hash: p.config_hash,
            source: "exp".to_string(),
            workload: p.workload.to_string(),
            input: p.input.to_string(),
            scale: u64::from(p.scale),
            base_cycles: p.base_cycles,
            ccr_cycles: p.ccr_cycles,
            speedup: p.speedup,
            hit_rate: p.hit_rate,
            miss_causes: p.miss_causes,
            regions: p.regions,
            wall_ms: p.wall_ms,
            sim_cycles_per_host_sec: ccr_analyze::BenchWorkload::host_throughput(
                p.base_cycles,
                p.ccr_cycles,
                p.wall_ms,
            ),
            host_util_pct,
            fingerprint: p.fingerprint,
            points_per_sec: 0.0,
        })
        .collect();
    append_to_store(flags, &records)
}

/// Resolves `--socket` / `--port` into a service address, shared by
/// `ccr serve` and `ccr submit`.
fn bind_of(flags: &Flags) -> Result<ccr::serve::Bind, CliError> {
    match (&flags.socket, flags.port) {
        (Some(_), Some(_)) => Err(usage_err("pass --socket or --port, not both")),
        (None, None) => Err(usage_err("need a --socket PATH or --port N")),
        (None, Some(port)) => Ok(ccr::serve::Bind::Tcp(port)),
        #[cfg(unix)]
        (Some(path), None) => Ok(ccr::serve::Bind::Unix(std::path::PathBuf::from(path))),
        #[cfg(not(unix))]
        (Some(_), None) => Err(usage_err(
            "--socket needs unix-domain sockets; use --port on this host",
        )),
    }
}

/// `ccr serve`: the batched experiment service. Keeps one engine —
/// job pool, compile cache, sim-result cache — alive across every
/// request of the session, so concurrent clients sweeping overlapping
/// configuration spaces pay for each unique compile and simulation
/// exactly once. Runs until a client sends a `shutdown` request;
/// completed points append to the run store at shutdown, stamped with
/// the session's points-per-second throughput.
fn cmd_serve(flags: &Flags) -> Result<(), CliError> {
    if !flags.positional.is_empty() {
        return Err(usage_err("serve takes no positional arguments"));
    }
    let opts = ccr::serve::ServeOptions {
        bind: bind_of(flags)?,
        queue: flags.queue.unwrap_or(ccr::serve::DEFAULT_QUEUE),
        jobs: ccr::resolve_jobs(flags.jobs),
        executors: 2,
        harness_out: Some(std::path::PathBuf::from(
            flags
                .harness_out
                .as_deref()
                .unwrap_or(ccr::serve::DEFAULT_SERVE_JSONL),
        )),
        store: (!flags.no_store).then(|| store_path(flags)),
        timestamp: record_timestamp(flags),
        commit: ccr::git_commit_id().to_string(),
    };
    let summary = ccr::serve::run(&opts)?;
    eprintln!(
        "serve: {} request(s), {} point(s), {:.2} points/s",
        summary.requests, summary.points, summary.points_per_sec
    );
    eprintln!(
        "result cache: {} hit(s), {} miss(es); compile cache: {} hit(s), {} miss(es); \
         value profiles: {} run, {} reused",
        summary.result_cache_hits,
        summary.result_cache_misses,
        summary.compile_cache_hits,
        summary.compile_cache_misses,
        summary.profiles_run,
        summary.profiles_reused
    );
    Ok(())
}

/// `ccr submit`: the client side of `ccr serve`. Submits each named
/// experiment (or one `--workload` point) to a running server, waits
/// for the results, and prints the rendered text — byte-identical to
/// what the one-shot `ccr exp` prints — to stdout. Per-request
/// accounting (points, wall time, result-cache traffic) goes to
/// stderr so piped table output stays clean.
fn cmd_submit(flags: &Flags) -> Result<(), CliError> {
    let bind = bind_of(flags)?;
    let mut requests = Vec::new();
    match &flags.workload {
        Some(name) => {
            if !flags.positional.is_empty() {
                return Err(usage_err(
                    "submit takes experiment names or --workload, not both",
                ));
            }
            requests.push(ccr::serve::submit_point_request(
                name,
                flags.input,
                flags.scale,
                flags.entries,
                flags.instances,
            ));
        }
        None => {
            if flags.positional.is_empty() && !flags.shutdown {
                return Err(usage_err(
                    "submit needs experiment names, --workload, or --shutdown",
                ));
            }
            for name in &flags.positional {
                requests.push(ccr::serve::submit_exp_request(name));
            }
        }
    }
    let mut client = ccr::serve::Client::connect(&bind).map_err(CliError::Failure)?;
    for request in requests {
        let result = client.submit_and_wait(&request)?;
        print!("{}", result.text);
        eprintln!(
            "request {}: {} point(s) in {} ms (result cache: {} hit(s), {} miss(es))",
            result.id, result.points, result.wall_ms, result.cache_hits, result.cache_misses
        );
    }
    if flags.shutdown {
        client.shutdown()?;
        eprintln!("asked the server to shut down");
    }
    Ok(())
}

/// `ccr report`: cross-run trend tables and first-regression flags
/// over the run store, exiting 2 on a flag (like `ccr diff`).
/// `ccr report import <FILE>...` backfills the store from saved
/// BENCH / analysis artifacts instead.
fn cmd_report(flags: &Flags) -> Result<ExitCode, CliError> {
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
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("create {}: {e}", dir.display()))?;
                for (name, table) in &output.tables {
                    let csv = dir.join(format!("report.{name}.csv"));
                    std::fs::write(&csv, table.to_csv())
                        .map_err(|e| format!("write {}: {e}", csv.display()))?;
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

fn cmd_regions(flags: &Flags) -> Result<(), CliError> {
    let spec = target_of(flags)?;
    let p = load_program(&spec, flags.input, flags.scale)?;
    let compiled = compile_ccr(&p, &p, &compile_config(flags)).map_err(|e| e.to_string())?;
    let mut table = Table::new([
        "region",
        "shape",
        "class",
        "instrs",
        "inputs",
        "outputs",
        "mem",
        "invalidations",
    ]);
    for info in &compiled.regions {
        table.row([
            info.id.to_string(),
            if info.spec.is_cyclic() {
                "cyclic".to_string()
            } else if info.spec.is_function_level() {
                "call".to_string()
            } else {
                "acyclic".to_string()
            },
            format!("{:?}", info.spec.class),
            info.spec.static_instrs.to_string(),
            info.spec.input_count().to_string(),
            info.spec.live_outs.len().to_string(),
            info.spec.mem_count().to_string(),
            info.invalidation_sites.to_string(),
        ]);
    }
    println!("{table}");
    Ok(())
}

fn cmd_potential(flags: &Flags) -> Result<(), CliError> {
    let spec = target_of(flags)?;
    let p = load_program(&spec, flags.input, flags.scale)?;
    let pot = ccr::measure::reuse_potential(&p, emu()).map_err(|e| e.to_string())?;
    println!("dynamic instructions : {}", pot.total_instrs);
    println!("block-level reusable : {}", pct(pot.block_ratio()));
    println!("region-level reusable: {}", pct(pot.region_ratio()));
    Ok(())
}

fn cmd_trace(flags: &Flags) -> Result<(), CliError> {
    use ccr::profile::{EmuError, ExecEvent, NullCrb, TraceSink};
    let spec = target_of(flags)?;
    let p = load_program(&spec, flags.input, flags.scale)?;

    struct Tracer {
        remaining: u64,
    }
    impl TraceSink for Tracer {
        fn on_exec(&mut self, e: &ExecEvent<'_>) {
            if self.remaining == 0 {
                return;
            }
            self.remaining -= 1;
            let inputs: Vec<String> = e.inputs.iter().map(|v| v.as_int().to_string()).collect();
            let result = e
                .result
                .map(|v| format!(" => {}", v.as_int()))
                .unwrap_or_default();
            let mem = e
                .mem
                .map(|m| {
                    format!(
                        "  [{} {}[{}] = {}]",
                        if m.is_store { "store" } else { "load" },
                        m.object,
                        m.index,
                        m.value.as_int()
                    )
                })
                .unwrap_or_default();
            println!(
                "{:>4} {}:{}  {:<40} in=({}){}{}",
                e.instr.id,
                e.func,
                e.block,
                e.instr.to_string(),
                inputs.join(", "),
                result,
                mem
            );
        }
    }
    let mut tracer = Tracer {
        remaining: flags.limit,
    };
    // Bound emulation near the requested trace length; hitting the
    // step limit after the trace is complete is expected.
    let limited = ccr::profile::EmuConfig {
        max_instrs: flags.limit.saturating_add(1),
        max_depth: 1024,
    };
    match ccr::profile::Emulator::with_config(&p, limited).run(&mut NullCrb, &mut tracer) {
        Ok(_) | Err(EmuError::StepLimit) => Ok(()),
        Err(e) => Err(e.to_string().into()),
    }
}

fn cmd_print(flags: &Flags) -> Result<(), CliError> {
    let spec = target_of(flags)?;
    let p = load_program(&spec, flags.input, flags.scale)?;
    if flags.annotated {
        let compiled = compile_ccr(&p, &p, &compile_config(flags)).map_err(|e| e.to_string())?;
        print!("{}", compiled.annotated);
    } else {
        print!("{p}");
    }
    Ok(())
}

/// The fingerprint window in cycles: `--window` when given, the
/// simulator's conventional default otherwise.
fn fingerprint_window(flags: &Flags) -> u64 {
    flags.window.unwrap_or(ccr::sim::DEFAULT_FINGERPRINT_WINDOW)
}

/// The canonical workload label carried inside digest files and
/// snapshots: `spec:input@scale`. [`decode_workload`] inverts it so a
/// restore or a divergence dump can rebuild the exact same run.
fn encode_workload(spec: &str, input: InputSet, scale: u32) -> String {
    format!("{spec}:{}@{}", input_name(input), scale)
}

/// Parses an [`encode_workload`] label back into its parts — from the
/// right, so `.ccr` file paths containing `:` or `@` still round-trip.
fn decode_workload(s: &str) -> Result<(String, InputSet, u32), String> {
    let err = || format!("`{s}` is not a `workload:input@scale` label");
    let (rest, scale) = s.rsplit_once('@').ok_or_else(err)?;
    let scale: u32 = scale.parse().map_err(|_| err())?;
    let (spec, input) = rest.rsplit_once(':').ok_or_else(err)?;
    let input = match input {
        "train" => InputSet::Train,
        "ref" => InputSet::Ref,
        _ => return Err(err()),
    };
    Ok((spec.to_string(), input, scale))
}

/// Compiles a workload the way `ccr run` does: the train input drives
/// region selection, the requested input is the measured target.
fn compile_target(
    flags: &Flags,
    spec: &str,
    input: InputSet,
    scale: u32,
) -> Result<ccr::CompiledWorkload, CliError> {
    let train = load_program(spec, InputSet::Train, scale)?;
    let target = load_program(spec, input, scale)?;
    compile_ccr(&train, &target, &compile_config(flags))
        .map_err(|e| CliError::Failure(e.to_string()))
}

/// Filesystem-safe stem for per-workload output files.
fn file_stem(spec: &str) -> String {
    spec.trim_end_matches(".ccr").replace(['/', '\\'], "_")
}

/// Test hook: `CCR_FP_PERTURB=N` deterministically flips one CRB bit
/// once the N-th window digest has sealed, manufacturing a divergent
/// twin so the bisection tests can pin the exact reported window
/// without a second simulator implementation.
fn fp_perturb_env() -> Result<Option<u64>, CliError> {
    match std::env::var("CCR_FP_PERTURB") {
        Err(_) => Ok(None),
        Ok(v) => v
            .parse()
            .map(Some)
            .map_err(|_| CliError::Failure(format!("CCR_FP_PERTURB: bad window index `{v}`"))),
    }
}

/// Runs one compiled workload to completion under the streaming
/// determinism fingerprint and returns its digest file.
fn fingerprint_run(
    compiled: &ccr::CompiledWorkload,
    machine: &MachineConfig,
    crb: CrbConfig,
    window: u64,
    workload: &str,
    config_hash: &str,
    perturb_at: Option<u64>,
) -> Result<ccr_analyze::DigestFile, String> {
    let mut session = SimSession::new(&compiled.annotated, machine, Some(crb), emu(), window);
    session.set_provenance(workload, config_hash);
    if let Some(n) = perturb_at {
        while !session.finished() && (session.windows().len() as u64) < n {
            session.step().map_err(|e| e.to_string())?;
        }
        session.perturb_for_tests();
    }
    session.run_to_end().map_err(|e| e.to_string())?;
    Ok(ccr_analyze::DigestFile {
        workload: workload.to_string(),
        config_hash: config_hash.to_string(),
        window,
        windows: session
            .windows()
            .iter()
            .map(|w| ccr_analyze::DigestWindow {
                index: w.index,
                cycle: w.cycle,
                hash: w.hash,
            })
            .collect(),
        cycles: session.cycles_so_far(),
        final_hash: session.final_hash().expect("finished run has a final hash"),
    })
}

/// `ccr fingerprint`: runs each named workload under the streaming
/// determinism fingerprint and prints the final chain hash plus every
/// per-window digest; `--compare A B` bisects two saved digest files
/// to the first divergent window instead.
fn cmd_fingerprint(flags: &Flags) -> Result<ExitCode, CliError> {
    if flags.compare {
        return cmd_fingerprint_compare(flags);
    }
    if flags.positional.is_empty() {
        return Err(usage_err(
            "fingerprint needs at least one <benchmark|file.ccr> (or --compare A B)",
        ));
    }
    let machine = MachineConfig::paper();
    let crb = crb_of(flags);
    let config_hash = ccr::config_hash(&machine, &crb);
    let window = fingerprint_window(flags);
    let perturb_at = fp_perturb_env()?;
    let harness = harness_of(flags)?;
    let n = flags.positional.len() as u64;
    harness.plan(n, n, &[("window", window)]);
    let labels: Vec<String> = flags
        .positional
        .iter()
        .map(|s| format!("fingerprint:{s}"))
        .collect();
    let (results, pool) = ccr::parallel_map_observed(
        &flags.positional,
        ccr::resolve_jobs(flags.jobs),
        Some(&labels),
        harness.observer(),
        |i, spec| -> Result<ccr_analyze::DigestFile, String> {
            harness.task_start("sim", &labels[i]);
            let start = std::time::Instant::now();
            let train = load_program(spec, InputSet::Train, flags.scale)?;
            let target = load_program(spec, flags.input, flags.scale)?;
            let compiled =
                compile_ccr(&train, &target, &compile_config(flags)).map_err(|e| e.to_string())?;
            let workload = encode_workload(spec, flags.input, flags.scale);
            let digest = fingerprint_run(
                &compiled,
                &machine,
                crb,
                window,
                &workload,
                &config_hash,
                perturb_at,
            )?;
            harness.task_finish(
                "sim",
                &labels[i],
                start.elapsed().as_millis() as u64,
                Some(digest.cycles),
            );
            Ok(digest)
        },
    );
    harness.pool("fingerprint", &pool);
    let mut digests = Vec::new();
    for (spec, res) in flags.positional.iter().zip(results) {
        let d = res.map_err(|e| CliError::Failure(format!("{spec}: {e}")))?;
        harness.fingerprint(
            &d.workload,
            d.windows.len() as u64,
            d.cycles,
            &ccr_analyze::format_hash(d.final_hash),
        );
        digests.push(d);
    }
    finish_harness(&harness);
    for (spec, d) in flags.positional.iter().zip(&digests) {
        println!(
            "{spec}: final {} ({} windows of {} cycles, {} cycles)",
            ccr_analyze::format_hash(d.final_hash),
            d.windows.len(),
            d.window,
            d.cycles
        );
        for w in &d.windows {
            println!(
                "  window {} @ cycle {}: {}",
                w.index,
                w.cycle,
                ccr_analyze::format_hash(w.hash)
            );
        }
    }
    if let Some(dir) = &flags.out {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut chains = String::new();
        for (spec, d) in flags.positional.iter().zip(&digests) {
            let path = dir.join(format!("{}.fp.jsonl", file_stem(spec)));
            std::fs::write(&path, ccr_analyze::write_digest_file(d))
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
            chains.push_str(&format!(
                "{spec} {}\n",
                ccr_analyze::format_hash(d.final_hash)
            ));
        }
        let chains_path = dir.join("chains.txt");
        std::fs::write(&chains_path, chains)
            .map_err(|e| format!("write {}: {e}", chains_path.display()))?;
        eprintln!("wrote {}", chains_path.display());
    }
    Ok(ExitCode::SUCCESS)
}

/// `ccr fingerprint --compare A B`: loads two digest files and
/// bisects to the first divergent cycle window (chained hashes make
/// the first mismatch the first divergence). Exits 2 on any
/// divergence — the `ccr diff` contract.
fn cmd_fingerprint_compare(flags: &Flags) -> Result<ExitCode, CliError> {
    let [a_path, b_path] = flags.positional.as_slice() else {
        return Err(usage_err(
            "--compare needs exactly two digest files: <A.fp.jsonl> <B.fp.jsonl>",
        ));
    };
    let load = |p: &str| -> Result<ccr_analyze::DigestFile, CliError> {
        let text =
            std::fs::read_to_string(p).map_err(|e| CliError::Failure(format!("{p}: {e}")))?;
        ccr_analyze::parse_digest_file(p, &text).map_err(CliError::Failure)
    };
    let a = load(a_path)?;
    let b = load(b_path)?;
    match ccr_analyze::compare_digests(&a, &b)? {
        ccr_analyze::FingerprintDiff::Identical => {
            println!(
                "identical: {} windows, final {}",
                a.windows.len(),
                ccr_analyze::format_hash(a.final_hash)
            );
            Ok(ExitCode::SUCCESS)
        }
        ccr_analyze::FingerprintDiff::Window {
            index,
            cycle,
            a_hash,
            b_hash,
        } => {
            println!("divergence at window {index} (cycle {cycle}):");
            println!("  A {a_path}: {}", ccr_analyze::format_hash(a_hash));
            println!("  B {b_path}: {}", ccr_analyze::format_hash(b_hash));
            dump_divergence_snapshot(flags, &a, &b, index);
            Ok(ExitCode::from(2))
        }
        ccr_analyze::FingerprintDiff::LengthMismatch {
            a_windows,
            b_windows,
        } => {
            println!(
                "window-count mismatch: {a_path} has {a_windows} window(s), {b_path} has \
                 {b_windows} (final {} vs {})",
                ccr_analyze::format_hash(a.final_hash),
                ccr_analyze::format_hash(b.final_hash)
            );
            Ok(ExitCode::from(2))
        }
        ccr_analyze::FingerprintDiff::FinalOnly { a_hash, b_hash } => {
            println!(
                "every sealed window matches but the final hashes differ: {} vs {} \
                 (divergence after the last {}-cycle boundary)",
                ccr_analyze::format_hash(a_hash),
                ccr_analyze::format_hash(b_hash),
                a.window
            );
            Ok(ExitCode::from(2))
        }
    }
}

/// Best-effort local replay at a `--compare` divergence: when digest
/// A's workload is reproducible here (decodable label, matching
/// config hash), re-runs it to the last agreed window boundary, saves
/// a `SimSnapshot` there for inspection, then steps through the
/// divergent window and reports which side this host agrees with.
/// Every failure degrades to a printed note — the exit-2 verdict
/// stands on the digests alone.
fn dump_divergence_snapshot(
    flags: &Flags,
    a: &ccr_analyze::DigestFile,
    b: &ccr_analyze::DigestFile,
    index: u64,
) {
    let note = |msg: String| println!("  note: {msg}");
    let (spec, input, scale) = match decode_workload(&a.workload) {
        Ok(parts) => parts,
        Err(e) => return note(format!("{e}; skipping the local snapshot dump")),
    };
    let machine = MachineConfig::paper();
    let crb = crb_of(flags);
    let config_hash = ccr::config_hash(&machine, &crb);
    if config_hash != a.config_hash {
        return note(format!(
            "digest config hash {} does not match the local configuration {config_hash}; \
             rerun with the matching --entries/--instances to dump a snapshot",
            a.config_hash
        ));
    }
    let train = match load_program(&spec, InputSet::Train, scale) {
        Ok(p) => p,
        Err(e) => return note(e),
    };
    let target = match load_program(&spec, input, scale) {
        Ok(p) => p,
        Err(e) => return note(e),
    };
    let compiled = match compile_ccr(&train, &target, &compile_config(flags)) {
        Ok(c) => c,
        Err(e) => return note(e.to_string()),
    };
    let mut session = SimSession::new(&compiled.annotated, &machine, Some(crb), emu(), a.window);
    session.set_provenance(&a.workload, &config_hash);
    // The last boundary both digests agree on: window `index - 1`'s
    // seal cycle (cycle 0 when the very first window diverged).
    let boundary = if index == 0 {
        0
    } else {
        match a.windows.get(index as usize - 1) {
            Some(w) => w.cycle,
            None => return note(format!("digest A lacks window {}", index - 1)),
        }
    };
    if let Err(e) = session.run_until_cycle(boundary) {
        return note(e.to_string());
    }
    let snap = match session.snapshot() {
        Ok(s) => s,
        Err(e) => return note(e),
    };
    let out_dir = flags.out.clone().unwrap_or_else(|| ".".to_string());
    let out_dir = std::path::Path::new(&out_dir);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        return note(format!("create {}: {e}", out_dir.display()));
    }
    let path = out_dir.join(format!("{}.diverge.w{index}.snap.jsonl", file_stem(&spec)));
    if let Err(e) = ccr::sim::save_snapshot(&path, &snap) {
        return note(e);
    }
    println!(
        "  wrote pre-divergence snapshot (cycle {}) to {}",
        snap.cycle,
        path.display()
    );
    // Step through the divergent window locally and say which side
    // this host reproduces — the arbiter between A and B.
    while !session.finished() && (session.windows().len() as u64) <= index {
        if let Err(e) = session.step() {
            return note(e.to_string());
        }
    }
    match session.windows().get(index as usize) {
        None => note(format!("local replay finished before window {index}")),
        Some(w) => {
            let a_hash = a.windows.get(index as usize).map(|x| x.hash);
            let b_hash = b.windows.get(index as usize).map(|x| x.hash);
            let verdict = if Some(w.hash) == a_hash {
                "matches side A".to_string()
            } else if Some(w.hash) == b_hash {
                "matches side B".to_string()
            } else {
                "matches neither side".to_string()
            };
            println!(
                "  local replay of window {index}: {} — {verdict}",
                ccr_analyze::format_hash(w.hash)
            );
        }
    }
}

/// `ccr snapshot save|restore`: captures the complete mid-run
/// simulation state at a cycle as versioned `{"snap_v":1}` JSONL, or
/// resumes one to completion with bit-identical final statistics.
fn cmd_snapshot(flags: &Flags) -> Result<(), CliError> {
    match flags.positional.first().map(String::as_str) {
        Some("save") => cmd_snapshot_save(flags),
        Some("restore") => cmd_snapshot_restore(flags),
        Some(other) => Err(usage_err(format!(
            "unknown snapshot subcommand `{other}` (expected `save` or `restore`)"
        ))),
        None => Err(usage_err(
            "snapshot needs a subcommand: `save` or `restore`",
        )),
    }
}

fn cmd_snapshot_save(flags: &Flags) -> Result<(), CliError> {
    let spec = flags
        .positional
        .get(1)
        .ok_or_else(|| usage_err("snapshot save needs <benchmark|file.ccr>"))?;
    let at = flags
        .at_cycle
        .ok_or_else(|| usage_err("snapshot save needs --at-cycle N"))?;
    let machine = MachineConfig::paper();
    let crb = crb_of(flags);
    let config_hash = ccr::config_hash(&machine, &crb);
    let compiled = compile_target(flags, spec, flags.input, flags.scale)?;
    let workload = encode_workload(spec, flags.input, flags.scale);
    let mut session = SimSession::new(
        &compiled.annotated,
        &machine,
        Some(crb),
        emu(),
        fingerprint_window(flags),
    );
    session.set_provenance(&workload, &config_hash);
    session.run_until_cycle(at).map_err(|e| e.to_string())?;
    if session.finished() {
        return Err(format!(
            "{spec}: run finished at cycle {} before --at-cycle {at}",
            session.cycles_so_far()
        )
        .into());
    }
    let chain_so_far = session.fingerprint_hash();
    let windows_so_far = session.windows().len();
    let snap = session.snapshot()?;
    let path = flags
        .out
        .clone()
        .unwrap_or_else(|| format!("{}.snap.jsonl", file_stem(spec)));
    ccr::sim::save_snapshot(std::path::Path::new(&path), &snap)?;
    let harness = harness_of(flags)?;
    harness.snapshot("save", &workload, snap.cycle, &path);
    finish_harness(&harness);
    println!("workload   : {workload}");
    println!("cycle      : {}", snap.cycle);
    println!(
        "fingerprint: {} ({windows_so_far} window(s) sealed)",
        ccr_analyze::format_hash(chain_so_far)
    );
    println!("wrote      : {path}");
    Ok(())
}

fn cmd_snapshot_restore(flags: &Flags) -> Result<(), CliError> {
    let file = flags
        .positional
        .get(1)
        .ok_or_else(|| usage_err("snapshot restore needs <FILE>"))?;
    let snap = ccr::sim::load_snapshot(std::path::Path::new(file))?;
    let (spec, input, scale) = decode_workload(&snap.workload)
        .map_err(|e| format!("{file}: {e} (was it written by `ccr snapshot save`?)"))?;
    let machine = MachineConfig::paper();
    let crb = crb_of(flags);
    let config_hash = ccr::config_hash(&machine, &crb);
    if snap.config_hash != config_hash {
        return Err(format!(
            "{file}: snapshot config hash {} does not match the local configuration \
             {config_hash}; rerun with the --entries/--instances it was saved under",
            snap.config_hash
        )
        .into());
    }
    let compiled = compile_target(flags, &spec, input, scale)?;
    let mut session = SimSession::restore(&compiled.annotated, &machine, Some(crb), emu(), &snap)
        .map_err(|e| format!("{file}: {e}"))?;
    let harness = harness_of(flags)?;
    harness.snapshot("restore", &snap.workload, snap.cycle, file);
    session.run_to_end().map_err(|e| e.to_string())?;
    let windows = session.windows().len() as u64;
    let cycles = session.cycles_so_far();
    let final_hash = session.final_hash().expect("finished run has a final hash");
    harness.fingerprint(
        &snap.workload,
        windows,
        cycles,
        &ccr_analyze::format_hash(final_hash),
    );
    finish_harness(&harness);
    let out = session.into_outcome();
    println!(
        "resumed    : {} from cycle {} ({file})",
        snap.workload, snap.cycle
    );
    println!(
        "cycles     : {} ({} hits / {} misses)",
        out.stats.cycles, out.stats.reuse_hits, out.stats.reuse_misses
    );
    println!(
        "fingerprint: {} ({windows} window(s))",
        ccr_analyze::format_hash(final_hash)
    );
    Ok(())
}

/// `ccr run --save-snapshot/--restore-snapshot`: the full measurement
/// (baseline + CCR + speedup) with the CCR leg driven through a
/// [`SimSession`] so it can be checkpointed mid-flight or resumed
/// from a prior checkpoint. Final statistics are bit-identical to a
/// plain `ccr run`.
fn cmd_run_snapshotted(flags: &Flags) -> Result<(), CliError> {
    let spec = target_of(flags)?;
    let machine = MachineConfig::paper();
    let crb = crb_of(flags);
    let config_hash = ccr::config_hash(&machine, &crb);
    let window = fingerprint_window(flags);
    let harness = harness_of(flags)?;
    match &flags.restore_snapshot {
        None => {
            let cycle = flags.snapshot_cycle.expect("checked by cmd_run");
            let file = flags.save_snapshot.as_deref().expect("checked by cmd_run");
            let compiled = compile_target(flags, &spec, flags.input, flags.scale)?;
            let workload = encode_workload(&spec, flags.input, flags.scale);
            let mut session =
                SimSession::new(&compiled.annotated, &machine, Some(crb), emu(), window);
            session.set_provenance(&workload, &config_hash);
            session.run_until_cycle(cycle).map_err(|e| e.to_string())?;
            if session.finished() {
                return Err(format!(
                    "{spec}: run finished at cycle {} before --snapshot-cycle {cycle}",
                    session.cycles_so_far()
                )
                .into());
            }
            let snap = session.snapshot()?;
            ccr::sim::save_snapshot(std::path::Path::new(file), &snap)?;
            harness.snapshot("save", &workload, snap.cycle, file);
            println!("snapshot  : cycle {} -> {file}", snap.cycle);
            finish_session_measurement(&spec, &compiled, &machine, session, &harness, &workload)
        }
        Some(file) => {
            let snap = ccr::sim::load_snapshot(std::path::Path::new(file))?;
            let (snap_spec, input, scale) =
                decode_workload(&snap.workload).map_err(|e| format!("{file}: {e}"))?;
            if snap_spec != spec {
                return Err(format!("{file}: snapshot is of `{snap_spec}`, not `{spec}`").into());
            }
            if snap.config_hash != config_hash {
                return Err(format!(
                    "{file}: snapshot config hash {} does not match the local configuration \
                     {config_hash}; rerun with the --entries/--instances it was saved under",
                    snap.config_hash
                )
                .into());
            }
            let compiled = compile_target(flags, &spec, input, scale)?;
            let session =
                SimSession::restore(&compiled.annotated, &machine, Some(crb), emu(), &snap)
                    .map_err(|e| format!("{file}: {e}"))?;
            harness.snapshot("restore", &snap.workload, snap.cycle, file);
            println!("resumed   : cycle {} <- {file}", snap.cycle);
            finish_session_measurement(
                &spec,
                &compiled,
                &machine,
                session,
                &harness,
                &snap.workload,
            )
        }
    }
}

/// Runs a mid-measurement CCR session to completion, simulates the
/// baseline, checks the architectural results agree, and prints the
/// standard `ccr run` lines plus the trajectory fingerprint.
fn finish_session_measurement(
    spec: &str,
    compiled: &ccr::CompiledWorkload,
    machine: &MachineConfig,
    mut session: SimSession<'_>,
    harness: &ccr::Harness,
    workload: &str,
) -> Result<(), CliError> {
    session.run_to_end().map_err(|e| e.to_string())?;
    let windows = session.windows().len() as u64;
    let cycles = session.cycles_so_far();
    let final_hash = session.final_hash().expect("finished run has a final hash");
    harness.fingerprint(
        workload,
        windows,
        cycles,
        &ccr_analyze::format_hash(final_hash),
    );
    finish_harness(harness);
    let ccr_out = session.into_outcome();
    let base =
        ccr::sim::simulate(&compiled.base, machine, None, emu()).map_err(|e| e.to_string())?;
    if base.run.returned != ccr_out.run.returned {
        return Err("computation reuse changed architectural results"
            .to_string()
            .into());
    }
    let m = ccr::Measurement { base, ccr: ccr_out };
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
    println!(
        "fingerprint: {} ({windows} window(s))",
        ccr_analyze::format_hash(final_hash)
    );
    Ok(())
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
