//! The CCR reproduction's benchmark: four workloads that stress
//! different layers, end-to-end metrics measured untraced, and a traced
//! run that splits host time by layer. See `README.md`.
//!
//! ```text
//! ccr-benchmark [run] [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
//! ccr-benchmark repeat-check A B
//! ```
//!
//! `run` starts each workload in a child process of its own (the
//! hidden `child` subcommand), so a workload that panics, fails or
//! hangs costs only its own result.

mod golden;
mod job;
mod layers;
mod metrics;
mod replay;
mod rng;
mod speed;
mod stats;
mod trace;
mod workloads {
    pub mod compile_grid;
    pub mod design_space;
    pub mod serve;
    pub mod sweep;
}

use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use ccr::telemetry::value::{self, Value};
use ccr::telemetry::JsonWriter;

use job::{Params, Report};
use metrics::{Better, Kind, METRICS};
use stats::{median, quartiles, spread};
use workloads::{compile_grid, design_space, serve, sweep};

/// The workloads, in the order `run` executes them.
pub const WORKLOADS: [&str; 4] = ["sweep", "design-space", "compile-grid", "serve"];

const OUT_DIR: &str = "benchmark/out";
const TRACE_FILE: &str = "benchmark/out/trace.jsonl";
/// No run may outlast this, whatever its expected length.
const HARD_LIMIT_S: f64 = 170.0;

struct Opts {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workloads: WORKLOADS.to_vec(),
        seed: golden::DEFAULT_SEED,
        seconds: 16.0,
        trace: false,
        out: PathBuf::from(OUT_DIR).join("results.jsonl"),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                opts.workloads = match WORKLOADS.iter().find(|k| **k == w) {
                    Some(k) => vec![*k],
                    None if w == "all" => WORKLOADS.to_vec(),
                    None => return Err(format!("unknown workload `{w}` (one of {WORKLOADS:?})")),
                };
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
                    return Err("--seconds must be a positive number".to_string());
                }
            }
            "--trace" => {
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => opts.out = PathBuf::from(value("--out")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child") => child(&args[1..]),
        Some("repeat-check") => repeat_check(&args[1..]),
        Some("run") => run(&args[1..]),
        _ => run(&args),
    };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("ccr-benchmark: {e}");
            std::process::exit(2);
        }
    }
}

// ---------------------------------------------------------------- child

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn metric_obj(w: &mut JsonWriter, key: &str, values: &[(&'static str, Option<f64>)]) {
    w.key(key).obj_begin();
    for (name, v) in values {
        let unit = metrics::find(name).map_or("", |m| m.unit);
        w.key(name).obj_begin();
        w.key("value").f64_val(v.unwrap_or(-1.0));
        w.key("unit").str_val(unit);
        w.obj_end();
    }
    w.obj_end();
}

/// The child's one-line record: everything the parent prints, and
/// what `--repeat-check` reads back.
fn record(name: &str, p: &Params, report: &Report) -> String {
    let e2e = [
        ("wall_s", Some(report.wall_s)),
        ("setup_s", Some(median(&report.setups.scaled()))),
        ("peak_rss_mb", Some(peak_rss_mb())),
    ];
    let mut extras = vec![(
        "ops_failed_frac",
        Some(report.failed as f64 / report.attempted.max(1) as f64),
    )];
    extras.extend(report.extras.iter().map(|(n, v)| (*n, Some(*v))));
    let mut w = JsonWriter::new();
    w.obj_begin();
    w.key("workload").str_val(name);
    w.key("seed").u64_val(p.seed);
    w.key("seconds").f64_val(p.seconds);
    w.key("trace").bool_val(p.trace);
    w.key("correct").bool_val(report.failed == 0);
    w.key("attempted").u64_val(report.attempted);
    w.key("failed").u64_val(report.failed);
    metric_obj(&mut w, "metrics", &e2e);
    metric_obj(&mut w, "extra", &extras);
    if p.trace {
        let layers: Vec<_> = report
            .layers
            .iter()
            .copied()
            .filter(|(n, _)| metrics::find(n).is_some_and(|m| m.measured_on(name)))
            .collect();
        metric_obj(&mut w, "layers", &layers);
    }
    w.key("samples").obj_begin();
    w.key("rounds").u64_val(report.rounds.len() as u64);
    w.key("setups").u64_val(report.setups.len() as u64);
    for (n, v) in &report.samples {
        w.key(n).u64_val(*v);
    }
    w.obj_end();
    w.key("probe_ms").f64_val(report.probe_s * 1e3);
    let setup_raw = report.setups.raw();
    for (key, values) in [("round_s", &report.rounds), ("setup_rep_s", &setup_raw)] {
        w.key(key).arr_begin();
        for v in values {
            w.f64_val(*v);
        }
        w.arr_end();
    }
    w.obj_end();
    w.finish()
}

fn child(args: &[String]) -> Result<bool, String> {
    let opts = parse(args)?;
    let [name] = opts.workloads[..] else {
        return Err("child runs exactly one workload".to_string());
    };
    let p = Params {
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
    };
    let report = match name {
        "sweep" => sweep::run(&p),
        "design-space" => design_space::run(&p),
        "compile-grid" => compile_grid::run(&p),
        "serve" => serve::run(&p),
        _ => unreachable!("parse accepts known workloads only"),
    }?;
    if p.trace {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(TRACE_FILE)
            .map_err(|e| format!("{TRACE_FILE}: {e}"))?;
        f.write_all(trace::to_jsonl(name, &report.spans).as_bytes())
            .map_err(|e| format!("{TRACE_FILE}: {e}"))?;
    }
    println!("{}", record(name, &p, &report));
    Ok(true)
}

// --------------------------------------------------------------- parent

/// Rough length of a healthy run, for the 3x timeout: the measured
/// phase with its set-up and checks, plus the traced phase. A round of
/// `sweep`, `design-space` or `compile-grid` takes about 15 s.
fn expected_s(name: &str, seconds: f64, trace: bool) -> f64 {
    let (untraced, traced) = match name {
        "sweep" => (seconds.max(16.0), 65.0),
        "design-space" => (seconds.max(18.0) + 13.0, 30.0),
        "compile-grid" => (seconds.max(15.0) + 6.0, 15.0),
        _ => (seconds + 3.0, 30.0),
    };
    untraced + if trace { traced } else { 0.0 }
}

/// Operations one round attempts, charged as failed when a workload
/// produces no result at all.
fn ops_per_round(name: &str, seed: u64) -> u64 {
    match name {
        "sweep" => sweep::ops_per_round(),
        "design-space" => design_space::ops_per_round(),
        "compile-grid" => compile_grid::draw(seed).len() as u64,
        _ => serve::draw(seed).iter().map(Vec::len).sum::<usize>() as u64,
    }
}

fn describe(status: ExitStatus) -> String {
    match status.code() {
        Some(101) => "panicked".to_string(),
        Some(code) => format!("exited with code {code}"),
        None => "was killed by a signal".to_string(),
    }
}

/// Runs one workload in a child process and returns its record line.
fn spawn_child(name: &str, opts: &Opts) -> Result<String, String> {
    let limit = (3.0 * expected_s(name, opts.seconds, opts.trace)).min(HARD_LIMIT_S);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(["child", "--workload", name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let deadline = Instant::now() + Duration::from_secs_f64(limit);
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| format!("wait: {e}"))? {
            break Some(status);
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let text = reader.join().expect("stdout reader");
    match status {
        None => Err(format!(
            "ran past {limit:.0} s (3x its expected time) and was killed"
        )),
        Some(s) if !s.success() => Err(describe(s)),
        Some(_) => {
            let line = text
                .lines()
                .rev()
                .find(|l| !l.trim().is_empty())
                .unwrap_or("");
            value::parse(line).map_err(|e| format!("unreadable result ({e:?})"))?;
            Ok(line.to_string())
        }
    }
}

fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "n/a".to_string()
    } else {
        format!("{v}")
    }
}

/// `25%`, or `25% or 0.05 s` for a metric with a floor.
fn bound_text(def: &metrics::MetricDef) -> String {
    let share = format!("{}%", def.bound.unwrap_or(0.0) * 100.0);
    if def.floor > 0.0 {
        format!("{share} or {} {}", def.floor, def.unit)
    } else {
        share
    }
}

fn print_metrics(record: &Value, key: &str) {
    let Some(obj) = record.get(key).and_then(Value::as_obj) else {
        return;
    };
    for def in METRICS {
        let Some(m) = obj.get(def.name) else { continue };
        let v = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let shown = if key == "layers" && v == -1.0 {
            "unavailable".to_string()
        } else {
            fmt_value(v)
        };
        let gate = match def.bound {
            Some(_) => format!(
                "{} is better, bound {}",
                def.better.as_str(),
                bound_text(def)
            ),
            None => format!("{} is better", def.better.as_str()),
        };
        println!("  {:<34} {:>16} {:<10} {gate}", def.name, shown, def.unit);
    }
}

fn print_report(name: &str, record: &Value) {
    let samples: Vec<String> = record
        .get("samples")
        .and_then(Value::as_obj)
        .map(|o| {
            o.iter()
                .map(|(k, v)| format!("{k}={}", v.as_u64().unwrap_or(0)))
                .collect()
        })
        .unwrap_or_default();
    println!(
        "== {name} · seed {} · {} · {} of {} ops failed · samples {}",
        record.u64_field("seed"),
        if record.get("trace").and_then(Value::as_bool) == Some(true) {
            "traced"
        } else {
            "untraced"
        },
        record.u64_field("failed"),
        record.u64_field("attempted"),
        samples.join(" "),
    );
    print_metrics(record, "metrics");
    print_metrics(record, "extra");
    print_metrics(record, "layers");
}

/// The machine-readable result line: the end-to-end metrics, or the
/// per-layer ones for a traced run.
fn result_line(record: &Value, trace: bool) -> String {
    let mut w = JsonWriter::new();
    w.obj_begin();
    w.key("correct")
        .bool_val(record.get("correct").and_then(Value::as_bool) == Some(true));
    w.key("attempted")
        .u64_val(record.u64_field("attempted").max(1));
    w.key("failed").u64_val(record.u64_field("failed"));
    w.key("metrics").obj_begin();
    let kind = if trace { Kind::Layer } else { Kind::EndToEnd };
    let key = if trace { "layers" } else { "metrics" };
    for def in metrics::listed(kind) {
        if let Some(v) = record.get(key).and_then(|o| o.get(def.name)) {
            w.key(def.name).obj_begin();
            w.key("value").f64_val(v.f64_field("value"));
            w.key("unit").str_val(def.unit);
            w.obj_end();
        }
    }
    w.obj_end();
    w.obj_end();
    w.finish()
}

fn failure_record(name: &str, opts: &Opts) -> String {
    let ops = ops_per_round(name, opts.seed);
    format!(
        r#"{{"workload":"{name}","seed":{},"trace":{},"correct":false,"attempted":{ops},"failed":{ops}}}"#,
        opts.seed, opts.trace
    )
}

fn run(args: &[String]) -> Result<bool, String> {
    let opts = parse(args)?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    if opts.trace {
        std::fs::write(TRACE_FILE, "").map_err(|e| format!("{TRACE_FILE}: {e}"))?;
    }
    let mut all_correct = true;
    for name in &opts.workloads {
        let line = spawn_child(name, &opts).unwrap_or_else(|e| {
            eprintln!("{name}: {e}; counting all its operations as failed");
            failure_record(name, &opts)
        });
        let record = value::parse(&line).map_err(|e| format!("{name} record: {e:?}"))?;
        all_correct &= record.get("correct").and_then(Value::as_bool) == Some(true);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&opts.out)
            .map_err(|e| format!("{}: {e}", opts.out.display()))?;
        writeln!(f, "{line}").map_err(|e| format!("{}: {e}", opts.out.display()))?;
        print_report(name, &record);
        println!("{}", result_line(&record, opts.trace));
    }
    Ok(all_correct)
}

// --------------------------------------------------------- repeat-check

/// Records from a result file, or from every `*.jsonl` in a directory.
fn load(path: &Path) -> Result<Vec<Value>, String> {
    let files: Vec<PathBuf> = if path.is_dir() {
        let mut v: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .collect();
        v.sort();
        v
    } else {
        vec![path.to_path_buf()]
    };
    let mut records = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        for (i, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            records
                .push(value::parse(line).map_err(|e| format!("{}:{}: {e:?}", f.display(), i + 1))?);
        }
    }
    Ok(records)
}

/// Values of one metric across the untraced records of one workload (a
/// run that produced no result has none).
fn samples_of(records: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.str_field("workload") == workload)
        .filter(|r| r.get("trace").and_then(Value::as_bool) != Some(true))
        .filter_map(|r| {
            ["metrics", "extra"]
                .iter()
                .find_map(|k| r.get(k).and_then(|o| o.get(metric)))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
        })
        .collect()
}

/// Spread that treats an all-zero sample (a failure count) as steady.
fn spread_of(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        spread(values)
    }
}

/// How B's sample compares with A's under the metric's bound. A side
/// whose interquartile distance exceeds its allowance cannot resolve a
/// shift of that size; a metric bounded at 0 (a failure share) is
/// judged on its medians alone.
fn verdict(def: &metrics::MetricDef, qa: (f64, f64, f64), qb: (f64, f64, f64)) -> &'static str {
    let diff = qb.1 - qa.1;
    let worse = match def.better {
        Better::Lower => diff,
        Better::Higher => -diff,
    };
    let allowance = def.allowance(qa.1);
    if allowance == 0.0 {
        if worse > 0.0 {
            "worse"
        } else {
            "agree"
        }
    } else if qa.2 - qa.0 > allowance || qb.2 - qb.0 > def.allowance(qb.1) {
        "unresolved"
    } else if worse.abs() <= allowance {
        "agree"
    } else if worse > 0.0 {
        "worse"
    } else {
        "better"
    }
}

fn repeat_check(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: repeat-check A B (result files or directories)".to_string());
    };
    let (a, b) = (load(Path::new(a))?, load(Path::new(b))?);
    println!(
        "{:<13} {:<18} {:>30} {:>30} {:>8} {:>12}  verdict",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "B vs A", "bound"
    );
    let mut agree = true;
    for workload in WORKLOADS {
        for def in METRICS.iter().filter(|d| d.bound.is_some()) {
            let (va, vb) = (
                samples_of(&a, workload, def.name),
                samples_of(&b, workload, def.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let verdict = verdict(def, qa, qb);
            agree &= verdict == "agree";
            // The change of B's median from A's: relative, or absolute
            // where A's median is 0 (a failure share).
            let diff = qb.1 - qa.1;
            let change = if qa.1 == 0.0 { diff } else { diff / qa.1.abs() };
            let cell =
                |q: (f64, f64, f64), n: usize| format!("{:.4} [{:.4}, {:.4}] ({n})", q.1, q.0, q.2);
            println!(
                "{:<13} {:<18} {:>30} {:>30} {:>+7.1}% {:>12}  {verdict} (spread A {:.1}%, B {:.1}%)",
                workload,
                def.name,
                cell(qa, va.len()),
                cell(qb, vb.len()),
                change * 100.0,
                bound_text(def),
                spread_of(&va) * 100.0,
                spread_of(&vb) * 100.0,
            );
        }
    }
    println!(
        "{}",
        if agree {
            "repeat-check: the two sets agree within every bound"
        } else {
            "repeat-check: the sets do not agree on every metric"
        }
    );
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_accept_explicit_and_short_forms() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse(&args("--workload serve --seed 3 --seconds 2.5 --trace 0")).unwrap();
        assert_eq!(
            (o.workloads, o.seed, o.seconds, o.trace),
            (vec!["serve"], 3, 2.5, false)
        );
        let o = parse(&args("--trace --seed 2")).unwrap();
        assert_eq!((o.workloads.len(), o.seed, o.trace), (4, 2, true));
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
    }

    #[test]
    fn verdicts_apply_the_bound_and_the_setup_floor() {
        let def = |name| metrics::find(name).expect(name);
        // Millisecond set-ups whose spread is 80% of the median: within
        // the 50 ms floor, unresolved under a plain 25% bound.
        let (a, b) = ((0.003, 0.005, 0.007), (0.006, 0.008, 0.010));
        assert_eq!(verdict(def("setup_s"), a, b), "agree");
        assert_eq!(verdict(def("wall_s"), a, b), "unresolved");
        let (a, b) = ((9.5, 10.0, 10.5), (12.5, 13.0, 13.5));
        assert_eq!(verdict(def("wall_s"), a, b), "worse");
        assert_eq!(verdict(def("points_per_s"), a, b), "better");
        assert_eq!(verdict(def("setup_s"), b, a), "agree");
        let (none, some) = ((0.0, 0.0, 0.0), (0.0, 0.01, 0.02));
        assert_eq!(verdict(def("ops_failed_frac"), none, some), "worse");
        assert_eq!(verdict(def("ops_failed_frac"), some, none), "agree");
    }

    #[test]
    fn result_line_carries_exactly_the_four_result_keys() {
        let rec = value::parse(
            r#"{"workload":"serve","correct":true,"attempted":3,"failed":0,
                "metrics":{"wall_s":{"value":1.5,"unit":"s"},"setup_s":{"value":0.25,"unit":"s"},
                           "peak_rss_mb":{"value":10,"unit":"MB"}},
                "extra":{"req_p50_ms":{"value":3,"unit":"ms"}}}"#,
        )
        .unwrap();
        let line = value::parse(&result_line(&rec, false)).unwrap();
        let keys: Vec<&String> = line.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = line.get("metrics").and_then(Value::as_obj).unwrap();
        assert_eq!(
            m.keys().collect::<Vec<_>>(),
            ["peak_rss_mb", "setup_s", "wall_s"]
        );
        assert_eq!(m["wall_s"].f64_field("value"), 1.5);
    }
}
