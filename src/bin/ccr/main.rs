//! `ccr` — the command-line interface of the CCR framework. [`USAGE`] is the
//! synopsis of every subcommand and flag; README.md is the guide.
//!
//! The commands live in one module per family: [`measure`] (`suite`,
//! `run`, `profile`, `bench`, `exp`), [`replay`] (`fingerprint`,
//! `snapshot` and `run`'s snapshot flags), [`results`] (`analyze`,
//! `diff`, `report`), [`service`] (`serve`, `submit`) and [`inspect`]
//! (`list`, `regions`, `potential`, `print`, `trace`). This module
//! parses the flags once for every subcommand and holds what the
//! families share: the program loader, the compile, the harness and
//! the run-store hook.
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

mod inspect;
mod measure;
mod replay;
mod results;
mod service;

use std::process::ExitCode;

use ccr::ir::Program;
use ccr::regions::RegionConfig;
use ccr::sim::CrbConfig;
use ccr::workloads::{build, InputSet};
use ccr::{compile_ccr, ProgressMode};
use ccr_bench::exp::Scenario;

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

/// Parsed flag set shared by the subcommands. Every value is checked
/// and typed here; the commands never re-parse a flag.
#[derive(Default)]
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
    /// `--thresholds none`: gate from no thresholds instead of the
    /// default ones.
    thresholds_none: bool,
    /// The `--max-*` threshold overrides (`None` keeps the base gate's).
    gate: ccr_analyze::Thresholds,
    force: bool,
    only: Option<String>,
    all: bool,
    list: bool,
    jobs: Option<usize>,
    host_reps: usize,
    store: Option<String>,
    no_store: bool,
    commit: Option<String>,
    at: Option<u64>,
    /// `--progress[=mode]`, already `Off` under `--no-progress`.
    progress: ProgressMode,
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
        scale: 1,
        entries: 128,
        instances: 8,
        limit: 40,
        sample_period: ccr::sim::DEFAULT_SAMPLE_PERIOD,
        top: 10,
        host_reps: 1,
        ..Flags::default()
    };
    let mut no_progress = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs a value"))
        };
        match a.as_str() {
            "--input" => {
                let name = take()?;
                flags.input = InputSet::from_name(&name)
                    .ok_or_else(|| format!("unknown input set `{name}`"))?;
            }
            "--scale" => flags.scale = num(a, take()?)?,
            "--entries" => flags.entries = count(a, take()?)?,
            "--instances" => flags.instances = count(a, take()?)?,
            "--function-level" => flags.function_level = true,
            "--annotated" => flags.annotated = true,
            "--limit" => flags.limit = num(a, take()?)?,
            "--sample-period" => flags.sample_period = count(a, take()?)?,
            "--telemetry" => flags.telemetry = Some(take()?),
            "--top" => flags.top = num(a, take()?)?,
            "--out" => flags.out = Some(take()?),
            "--thresholds" => {
                flags.thresholds_none = match take()?.as_str() {
                    "default" => false,
                    "none" => true,
                    other => {
                        return Err(format!(
                            "--thresholds must be `default` or `none`, got `{other}`"
                        ))
                    }
                };
            }
            "--force" => flags.force = true,
            "--only" => flags.only = Some(take()?),
            "--all" => flags.all = true,
            "--list" => flags.list = true,
            "--jobs" => flags.jobs = Some(num(a, take()?)?),
            "--max-cycle-regress-pct" => flags.gate.max_cycle_regress_pct = Some(num(a, take()?)?),
            "--max-hit-rate-drop-pp" => flags.gate.max_hit_rate_drop_pp = Some(num(a, take()?)?),
            "--max-speedup-drop-pct" => flags.gate.max_speedup_drop_pct = Some(num(a, take()?)?),
            "--host-reps" => flags.host_reps = count(a, take()?)?,
            "--max-host-throughput-drop-pct" => {
                flags.gate.max_host_throughput_drop_pct = Some(num(a, take()?)?);
            }
            "--store" => flags.store = Some(take()?),
            "--no-store" => flags.no_store = true,
            "--progress" => flags.progress = ProgressMode::Plain,
            "--no-progress" => no_progress = true,
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
            "--queue" => flags.queue = Some(count(a, take()?)?),
            "--workload" => flags.workload = Some(take()?),
            "--shutdown" => flags.shutdown = true,
            "--serve-clients" => flags.serve_clients = Some(count(a, take()?)?),
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
                flags.progress = ProgressMode::parse(mode)
                    .ok_or_else(|| format!("--progress must be `plain` or `json`, got `{mode}`"))?;
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
    // `--no-progress` silences the stderr stream wherever it appears.
    if no_progress {
        flags.progress = ProgressMode::Off;
    }
    Ok(flags)
}

/// Parses a numeric flag value, naming the flag when it is malformed.
fn num<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad {flag} value"))
}

/// [`num`] for a count that must be at least 1.
fn count<T: std::str::FromStr + PartialEq + From<u8>>(
    flag: &str,
    value: String,
) -> Result<T, String> {
    let n = num(flag, value)?;
    if n == T::from(0) {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
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
        "list" => (&[], |f| ok(inspect::cmd_list(f))),
        "suite" => (&[TARGET, CONFIG, HARNESS, "--jobs"], |f| {
            ok(measure::cmd_suite(f))
        }),
        "run" => (
            &[
                TARGET,
                CONFIG,
                HARNESS,
                "--jobs --telemetry --window",
                SNAPSHOT,
            ],
            |f| ok(measure::cmd_run(f)),
        ),
        "profile" => (
            &[
                TARGET,
                CONFIG,
                HARNESS,
                STORE,
                "--telemetry --sample-period --top",
            ],
            |f| ok(measure::cmd_profile(f)),
        ),
        "analyze" => (&["--top --out"], |f| ok(results::cmd_analyze(f))),
        "diff" => (&[GATE, "--force --top"], results::cmd_diff),
        "bench" => (
            &[
                TARGET,
                CONFIG,
                HARNESS,
                STORE,
                "--jobs --only --out --host-reps --serve-clients",
            ],
            |f| ok(measure::cmd_bench(f)),
        ),
        "exp" => (
            &[
                HARNESS,
                STORE,
                "--jobs --out --list --all --checkpoint --fingerprint --window",
            ],
            |f| ok(measure::cmd_exp(f)),
        ),
        "serve" => (
            &[STORE, "--socket --port --queue --jobs --harness-out"],
            |f| ok(service::cmd_serve(f)),
        ),
        "submit" => (
            &[
                TARGET,
                "--entries --instances --socket --port --workload --shutdown",
            ],
            |f| ok(service::cmd_submit(f)),
        ),
        "report" => (&[GATE, "--store --out --commit --at"], results::cmd_report),
        "fingerprint" => (
            &[TARGET, CONFIG, HARNESS, "--window --jobs --out --compare"],
            replay::cmd_fingerprint,
        ),
        "snapshot" => (
            &[TARGET, CONFIG, HARNESS, "--at-cycle --out --window"],
            |f| ok(replay::cmd_snapshot(f)),
        ),
        "regions" => (&[TARGET, "--instances --function-level"], |f| {
            ok(inspect::cmd_regions(f))
        }),
        "potential" => (&[TARGET], |f| ok(inspect::cmd_potential(f))),
        "print" => (&[TARGET, "--annotated --instances --function-level"], |f| {
            ok(inspect::cmd_print(f))
        }),
        "trace" => (&[TARGET, "--limit"], |f| ok(inspect::cmd_trace(f))),
        other => return Err(usage_err(format!("unknown subcommand `{other}`"))),
    };
    run(&parse_flags(cmd, &args[1..], reads).map_err(usage_err)?)
}

/// Builds the harness from `--progress` / `--no-progress` /
/// `--harness-out`. Disabled (a guaranteed no-op) unless some sink
/// was requested; `--no-progress` silences the stderr stream but
/// leaves a requested `--harness-out` file active.
fn harness_of(flags: &Flags) -> Result<ccr::Harness, String> {
    let opts = ccr::HarnessOptions {
        progress: flags.progress,
        out: flags.harness_out.as_ref().map(std::path::PathBuf::from),
        ..ccr::HarnessOptions::default()
    };
    ccr::Harness::start(&opts).map_err(|e| format!("harness: {e}"))
}

/// Ends a harnessed command: stops the monitor, emits the
/// `harness_summary` event, and renders the summary to stderr (off
/// when the harness is disabled, so undecorated runs stay silent).
fn finish_harness(harness: &ccr::Harness) -> Option<ccr::HarnessSummary> {
    let summary = harness.finish()?;
    eprint!("{}", summary.render());
    Some(summary)
}

/// The configuration the flags select: their input, scale, CRB and
/// formation switches on the paper machine.
fn scenario_of(flags: &Flags) -> Scenario {
    let region = RegionConfig {
        function_level: flags.function_level,
        ..RegionConfig::paper()
    };
    let crb = CrbConfig {
        entries: flags.entries,
        instances: flags.instances,
        ..CrbConfig::paper()
    };
    Scenario::single(flags.input, flags.scale, &region, crb)
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

/// Compiles a workload the way `ccr run` does: the train input drives
/// region selection, the requested input is the measured target.
fn compile_target(
    flags: &Flags,
    spec: &str,
    input: InputSet,
    scale: u32,
) -> Result<ccr::CompiledWorkload, String> {
    let train = load_program(spec, InputSet::Train, scale)?;
    let target = load_program(spec, input, scale)?;
    compile_ccr(&train, &target, &scenario_of(flags).compile_config()).map_err(|e| e.to_string())
}

/// Filesystem-safe stem for per-workload output files.
fn file_stem(spec: &str) -> String {
    spec.trim_end_matches(".ccr").replace(['/', '\\'], "_")
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
