//! `ccr serve` — the batched multi-client experiment service.
//!
//! The one-shot CLI pays the whole plan→compile→sim pipeline per
//! invocation. The service keeps one [`ccr_bench::Engine`] alive for
//! a whole session instead, so the paper's core economics — amortize
//! one compile/region-formation pass across many dynamic executions —
//! applies to the harness itself: concurrent clients sweeping
//! overlapping configuration spaces pay for each unique compile,
//! reuse-potential study, and simulation exactly once. Dedup across
//! in-flight requests falls out of the engine's single-flight caches;
//! no request-level coordination is needed.
//!
//! ## Wire protocol (`req_v` 1)
//!
//! Newline-delimited JSON over a Unix socket (`--socket PATH`) or
//! local TCP (`--port N`), one request object per line, one reply
//! object per line, in order. Replies always carry `"req_v":1` and
//! `"ok":true|false`; protocol failures (unparseable line, unknown
//! `req_v`, unknown op/field/workload, a mistyped or out-of-range point
//! field, a CRB past [`MAX_POINT_ENTRIES`] × [`MAX_POINT_INSTANCES`])
//! are `ok:false` replies with a one-line `error`, never a closed
//! connection.
//!
//! | op | request | reply |
//! |---|---|---|
//! | `submit` | `{"req_v":1,"op":"submit","exp":"fig4"}` or `{"req_v":1,"op":"submit","workload":"bitcount","input":"train","scale":1,"entries":128,"instances":8}` | `{"req_v":1,"ok":true,"id":N,"state":"queued"}` |
//! | `status` | `{"req_v":1,"op":"status","id":N}` | `{"req_v":1,"ok":true,"id":N,"state":"queued\|running\|done\|error"}` |
//! | `results` | `{"req_v":1,"op":"results","id":N}` | done: adds `points`, `wall_ms`, cumulative `cache_hits`/`cache_misses`, and the rendered `text` (byte-identical to the one-shot CLI's) |
//! | `shutdown` | `{"req_v":1,"op":"shutdown"}` | `{"req_v":1,"ok":true,"state":"shutdown"}`; queued work drains first |
//!
//! The submit queue is bounded (`--queue N`): a submit past the bound
//! is refused with `ok:false` rather than queued without limit.
//!
//! ## Observability and trajectory
//!
//! The session harness appends `request_start` / `request_finish` /
//! `result_cache` events (plus the engine's usual plan/task/pool
//! events) to `serve.jsonl`. Completed points are buffered and
//! appended to the run store at shutdown under `source: "serve"`,
//! each stamped with the session's `points_per_sec` throughput —
//! completed request points per host second over the active window
//! (first dequeue to last completion) — which `ccr report` surfaces
//! as a column.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ccr_analyze::RunRecord;
use ccr_bench::exp::{self, Scenario};
use ccr_bench::Engine;

use crate::harness::{Harness, HarnessOptions, ProgressMode};
use crate::regions::RegionConfig;
use crate::sim::CrbConfig;
use crate::telemetry::value::{self, Value};
use crate::telemetry::JsonWriter;
use crate::workloads::{InputSet, NAMES};

/// Version tag of request/reply lines. Bumped only on incompatible
/// changes; additive fields ride under the same version.
pub const REQ_VERSION: u64 = 1;

/// Request versions the server understands.
pub const KNOWN_REQ_VERSIONS: &[u64] = &[1];

/// Default submit-queue bound.
pub const DEFAULT_QUEUE: usize = 64;

/// Default `serve.jsonl` location.
pub const DEFAULT_SERVE_JSONL: &str = "serve.jsonl";

/// Largest `entries` a point submission may ask for: eight times the
/// largest CRB of the experiment registry (128 entries). The buffer
/// allocates every slot up front, and an allocation failure aborts
/// the whole server where no panic guard can catch it.
pub const MAX_POINT_ENTRIES: usize = 1024;

/// Largest `instances` a point submission may ask for: over three
/// times the registry's largest (20 boosted instances).
pub const MAX_POINT_INSTANCES: usize = 64;

/// Where the service listens.
#[derive(Clone, Debug)]
pub enum Bind {
    /// Local TCP on `127.0.0.1:<port>`.
    Tcp(u16),
    /// A Unix-domain socket at the given path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Bind {
    fn describe(&self) -> String {
        match self {
            Bind::Tcp(port) => format!("127.0.0.1:{port}"),
            #[cfg(unix)]
            Bind::Unix(path) => path.display().to_string(),
        }
    }
}

/// A `ccr serve` session configuration.
pub struct ServeOptions {
    /// Listening address.
    pub bind: Bind,
    /// Submit-queue bound (submits past it are refused).
    pub queue: usize,
    /// Worker count of the session engine.
    pub jobs: usize,
    /// Executor threads draining the request queue (concurrent
    /// requests exercise the engine's cross-request dedup).
    pub executors: usize,
    /// Harness event log (`serve.jsonl`); `None` disables it.
    pub harness_out: Option<PathBuf>,
    /// Run store completed points append to at shutdown; `None`
    /// disables the store hook.
    pub store: Option<PathBuf>,
    /// Unix timestamp stamped on store records.
    pub timestamp: u64,
    /// Git commit stamped on store records.
    pub commit: String,
}

/// What a session did, returned by [`run`] after shutdown.
#[derive(Clone, Debug, Default)]
pub struct ServeSummary {
    /// Requests completed (done or error).
    pub requests: u64,
    /// Requested points across completed requests (simulation points
    /// plus reuse-potential studies, before cross-request dedup).
    pub points: u64,
    /// `points` per host second over the active window (first dequeue
    /// to last completion); 0.0 for an idle session.
    pub points_per_sec: f64,
    /// Simulated cycles per host second over the session, from the
    /// harness summary (0.0 when the harness was disabled).
    pub sim_cycles_per_host_sec: f64,
    /// Result-cache hits over the session.
    pub result_cache_hits: u64,
    /// Result-cache misses over the session.
    pub result_cache_misses: u64,
    /// Compile-cache hits over the session.
    pub compile_cache_hits: u64,
    /// Compile-cache misses over the session.
    pub compile_cache_misses: u64,
    /// Value-profiling runs over the session.
    pub profiles_run: u64,
    /// Compiles that reused another compile's value profile.
    pub profiles_reused: u64,
    /// Store records appended at shutdown.
    pub stored_records: u64,
}

/// One parsed, validated submission.
enum Submission {
    /// A registered experiment, by name or output stem.
    Exp(String),
    /// A single (workload, config) point through the suite pipeline.
    Point {
        workload: &'static str,
        input: InputSet,
        scale: u32,
        entries: usize,
        instances: usize,
    },
}

impl Submission {
    fn detail(&self) -> String {
        match self {
            Submission::Exp(name) => name.clone(),
            Submission::Point {
                workload,
                input,
                scale,
                entries,
                instances,
            } => format!(
                "{workload}:{}@{scale} crb {entries}x{instances}",
                input.name()
            ),
        }
    }
}

enum ReqState {
    Queued(Submission),
    Running,
    Done {
        text: String,
        wall_ms: u64,
        points: u64,
    },
    Failed(String),
}

#[derive(Default)]
struct SessionState {
    next_id: u64,
    queue: VecDeque<u64>,
    requests: HashMap<u64, ReqState>,
    shutdown: bool,
    records: Vec<RunRecord>,
    requests_done: u64,
    points_done: u64,
    active_from: Option<Instant>,
    active_until: Option<Instant>,
}

struct Session {
    engine: Engine,
    harness: Harness,
    state: Mutex<SessionState>,
    cv: Condvar,
    queue_cap: usize,
    timestamp: u64,
    commit: String,
    store_enabled: bool,
}

/// Runs a serve session to completion: binds, accepts clients,
/// executes submissions through one shared engine, and returns the
/// session summary after a `shutdown` request drains the queue.
///
/// # Errors
///
/// One-line messages for bind failures (port in use, stale socket
/// path), harness-sink failures, and store-append failures at
/// shutdown.
pub fn run(opts: &ServeOptions) -> Result<ServeSummary, String> {
    let listener = match &opts.bind {
        Bind::Tcp(port) => Listener::Tcp(
            TcpListener::bind(("127.0.0.1", *port))
                .map_err(|e| format!("127.0.0.1:{port}: {e}"))?,
        ),
        #[cfg(unix)]
        Bind::Unix(path) => {
            if path.exists() {
                return Err(format!(
                    "{}: socket path already exists (stale from a crashed \
                     server? remove it first)",
                    path.display()
                ));
            }
            Listener::Unix(
                UnixListener::bind(path).map_err(|e| format!("{}: {e}", path.display()))?,
            )
        }
    };
    let harness = Harness::start(&HarnessOptions {
        progress: ProgressMode::Off,
        out: opts.harness_out.clone(),
    })
    .map_err(|e| format!("harness: {e}"))?;
    let session = Arc::new(Session {
        engine: Engine::new(opts.jobs),
        harness,
        state: Mutex::new(SessionState::default()),
        cv: Condvar::new(),
        queue_cap: opts.queue,
        timestamp: opts.timestamp,
        commit: opts.commit.clone(),
        store_enabled: opts.store.is_some(),
    });
    eprintln!(
        "serve: listening on {} (queue {}, jobs {}, {} executor(s))",
        opts.bind.describe(),
        opts.queue,
        session.engine.jobs(),
        opts.executors
    );

    let executors: Vec<_> = (0..opts.executors.max(1))
        .map(|_| {
            let session = Arc::clone(&session);
            std::thread::spawn(move || executor_loop(&session, &execute_submission))
        })
        .collect();

    loop {
        let conn = match listener.accept() {
            Ok(conn) => conn,
            Err(e) => {
                if session.state.lock().expect("serve state").shutdown {
                    break;
                }
                eprintln!("serve: accept: {e}");
                continue;
            }
        };
        if session.state.lock().expect("serve state").shutdown {
            break;
        }
        // Handler threads are detached on purpose: shutdown must not
        // block on clients that keep an idle connection open. Late
        // submits are refused (the queue checks the shutdown flag);
        // status/results polls on a draining server stay answerable.
        let session = Arc::clone(&session);
        let bind = opts.bind.clone();
        std::thread::spawn(move || handle_connection(&session, conn, &bind));
    }
    // Executors exit once the queue is drained *and* shutdown was
    // requested, so joining them completes every accepted submission.
    for executor in executors {
        let _ = executor.join();
    }
    #[cfg(unix)]
    if let Bind::Unix(path) = &opts.bind {
        let _ = std::fs::remove_file(path);
    }

    let harness_summary = session.harness.finish();
    let state = session.state.lock().expect("serve state");
    let active_ms = match (state.active_from, state.active_until) {
        (Some(from), Some(until)) => until.duration_since(from).as_millis() as u64,
        _ => 0,
    };
    let points_per_sec = if active_ms > 0 {
        state.points_done as f64 / (active_ms as f64 / 1000.0)
    } else {
        0.0
    };
    let mut records = state.records.clone();
    for rec in &mut records {
        rec.points_per_sec = points_per_sec;
    }
    let summary = ServeSummary {
        requests: state.requests_done,
        points: state.points_done,
        points_per_sec,
        sim_cycles_per_host_sec: harness_summary
            .as_ref()
            .map(|s| {
                if s.wall_ms > 0 {
                    s.sim_cycles as f64 / (s.wall_ms as f64 / 1000.0)
                } else {
                    0.0
                }
            })
            .unwrap_or(0.0),
        result_cache_hits: session.engine.result_cache().hits(),
        result_cache_misses: session.engine.result_cache().misses(),
        compile_cache_hits: session.engine.compile_cache().hits(),
        compile_cache_misses: session.engine.compile_cache().misses(),
        profiles_run: session.engine.compile_cache().profiles_run(),
        profiles_reused: session.engine.compile_cache().profiles_reused(),
        stored_records: records.len() as u64,
    };
    drop(state);
    if let Some(store) = &opts.store {
        ccr_analyze::RunStore::append(store, &records)?;
        if !records.is_empty() {
            eprintln!(
                "store: appended {} record(s) to {}",
                records.len(),
                store.display()
            );
        }
    }
    Ok(summary)
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

impl Conn {
    fn try_clone(&self) -> std::io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }
}

impl std::io::Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl std::io::Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Unblocks the accept loop after a shutdown by dialing the listener
/// once; the accept loop re-checks the shutdown flag per connection.
fn wake_listener(bind: &Bind) {
    match bind {
        Bind::Tcp(port) => {
            let _ = TcpStream::connect(("127.0.0.1", *port));
        }
        #[cfg(unix)]
        Bind::Unix(path) => {
            let _ = UnixStream::connect(path);
        }
    }
}

fn handle_connection(session: &Session, conn: Conn, bind: &Bind) {
    let Ok(writer) = conn.try_clone() else { return };
    let mut writer = std::io::BufWriter::new(writer);
    let reader = BufReader::new(conn);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let (reply, shutdown) = handle_line(session, &line);
        if writeln!(writer, "{reply}")
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
        if shutdown {
            wake_listener(bind);
            break;
        }
    }
}

fn error_reply(msg: &str) -> String {
    let mut w = JsonWriter::new();
    w.obj_begin();
    w.key("req_v").u64_val(REQ_VERSION);
    w.key("ok").bool_val(false);
    w.key("error").str_val(msg);
    w.obj_end();
    w.finish()
}

/// Handles one request line, returning `(reply, shutdown)`.
fn handle_line(session: &Session, line: &str) -> (String, bool) {
    match handle_request(session, line) {
        Ok(out) => out,
        Err(msg) => (error_reply(&msg), false),
    }
}

fn check_fields(v: &Value, op: &str, allowed: &[&str]) -> Result<(), String> {
    let obj = v.as_obj().ok_or("request is not a JSON object")?;
    for key in obj.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(format!("unknown field `{key}` for op `{op}`"));
        }
    }
    Ok(())
}

fn handle_request(session: &Session, line: &str) -> Result<(String, bool), String> {
    let v = value::parse(line.trim()).map_err(|e| format!("unparseable request line: {e:?}"))?;
    value::check_version(&v, "req_v", KNOWN_REQ_VERSIONS)?;
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or("request missing `op`")?;
    match op {
        "submit" => {
            check_fields(
                &v,
                op,
                &[
                    "req_v",
                    "op",
                    "exp",
                    "workload",
                    "input",
                    "scale",
                    "entries",
                    "instances",
                ],
            )?;
            let submission = parse_submission(&v)?;
            let id = enqueue(session, submission)?;
            let mut w = JsonWriter::new();
            w.obj_begin();
            w.key("req_v").u64_val(REQ_VERSION);
            w.key("ok").bool_val(true);
            w.key("id").u64_val(id);
            w.key("state").str_val("queued");
            w.obj_end();
            Ok((w.finish(), false))
        }
        "status" | "results" => {
            check_fields(&v, op, &["req_v", "op", "id"])?;
            let id = v
                .get("id")
                .and_then(Value::as_u64)
                .ok_or(format!("op `{op}` needs a numeric `id`"))?;
            let state = session.state.lock().expect("serve state");
            let req = state
                .requests
                .get(&id)
                .ok_or(format!("unknown request id {id}"))?;
            let mut w = JsonWriter::new();
            w.obj_begin();
            w.key("req_v").u64_val(REQ_VERSION);
            match req {
                ReqState::Failed(e) => {
                    w.key("ok").bool_val(false);
                    w.key("id").u64_val(id);
                    w.key("state").str_val("error");
                    w.key("error").str_val(e);
                }
                ReqState::Done {
                    text,
                    wall_ms,
                    points,
                } => {
                    w.key("ok").bool_val(true);
                    w.key("id").u64_val(id);
                    w.key("state").str_val("done");
                    if op == "results" {
                        w.key("points").u64_val(*points);
                        w.key("wall_ms").u64_val(*wall_ms);
                        w.key("cache_hits")
                            .u64_val(session.engine.result_cache().hits());
                        w.key("cache_misses")
                            .u64_val(session.engine.result_cache().misses());
                        w.key("text").str_val(text);
                    }
                }
                ReqState::Queued(_) | ReqState::Running => {
                    w.key("ok").bool_val(true);
                    w.key("id").u64_val(id);
                    w.key("state").str_val(match req {
                        ReqState::Queued(_) => "queued",
                        _ => "running",
                    });
                }
            }
            w.obj_end();
            Ok((w.finish(), false))
        }
        "shutdown" => {
            check_fields(&v, op, &["req_v", "op"])?;
            let mut state = session.state.lock().expect("serve state");
            state.shutdown = true;
            drop(state);
            session.cv.notify_all();
            let mut w = JsonWriter::new();
            w.obj_begin();
            w.key("req_v").u64_val(REQ_VERSION);
            w.key("ok").bool_val(true);
            w.key("state").str_val("shutdown");
            w.obj_end();
            Ok((w.finish(), true))
        }
        other => Err(format!(
            "unknown op `{other}` (submit, status, results, shutdown)"
        )),
    }
}

fn parse_submission(v: &Value) -> Result<Submission, String> {
    let exp_name = v.get("exp").and_then(Value::as_str);
    let workload = v.get("workload").and_then(Value::as_str);
    match (exp_name, workload) {
        (Some(_), Some(_)) => Err("submit takes `exp` or `workload`, not both".to_string()),
        (None, None) => Err("submit needs an `exp` or `workload` field".to_string()),
        (Some(name), None) => {
            let registry = exp::specs::registry();
            if !registry.iter().any(|s| s.name == name || s.output == name) {
                return Err(format!(
                    "unknown experiment `{name}` (see `ccr exp --list`)"
                ));
            }
            Ok(Submission::Exp(name.to_string()))
        }
        (None, Some(name)) => {
            let Some(&known) = NAMES.iter().find(|&&n| n == name) else {
                return Err(format!("unknown workload `{name}` (see `ccr list`)"));
            };
            // A present field must be what it names: a mistyped or
            // out-of-range value is refused, never defaulted or
            // truncated into a point the client did not ask for.
            let number = |field: &str, default: u64| match v.get(field) {
                None => Ok(default),
                Some(x) => x
                    .as_u64()
                    .ok_or_else(|| format!("`{field}` is not an unsigned integer")),
            };
            let input = match v.get("input") {
                None => InputSet::Train,
                Some(x) => {
                    let tag = x.as_str().ok_or("`input` is not a string (train or ref)")?;
                    InputSet::from_name(tag)
                        .ok_or_else(|| format!("unknown input set `{tag}` (train or ref)"))?
                }
            };
            let scale = u32::try_from(number("scale", 1)?).map_err(|_| "`scale` exceeds u32")?;
            let paper = CrbConfig::paper();
            // A zero dimension would panic the executor that builds
            // the buffer, and an oversized one could exhaust memory;
            // refuse both here, where the client gets a reply.
            let dimension =
                |field: &str, default: usize, cap: usize| match number(field, default as u64)? {
                    0 => Err(format!("`{field}` must be at least 1")),
                    n if n > cap as u64 => Err(format!("`{field}` must be at most {cap}")),
                    n => Ok(n as usize),
                };
            Ok(Submission::Point {
                workload: known,
                input,
                scale,
                entries: dimension("entries", paper.entries, MAX_POINT_ENTRIES)?,
                instances: dimension("instances", paper.instances, MAX_POINT_INSTANCES)?,
            })
        }
    }
}

fn enqueue(session: &Session, submission: Submission) -> Result<u64, String> {
    let mut state = session.state.lock().expect("serve state");
    if state.shutdown {
        return Err("server is shutting down".to_string());
    }
    if state.queue.len() >= session.queue_cap {
        return Err(format!(
            "queue full ({} request(s) pending)",
            state.queue.len()
        ));
    }
    state.next_id += 1;
    let id = state.next_id;
    state.requests.insert(id, ReqState::Queued(submission));
    state.queue.push_back(id);
    drop(state);
    session.cv.notify_all();
    Ok(id)
}

/// What a finished submission produced: rendered text, requested
/// point count, and store records.
type Executed = (String, u64, Vec<RunRecord>);

/// Drains the request queue through `execute` until shutdown. Each
/// submission runs under [`isolate`], so a panic fails that request
/// alone and the loop moves on to the next one.
fn executor_loop(
    session: &Session,
    execute: &dyn Fn(&Session, &Submission) -> Result<Executed, String>,
) {
    loop {
        let (id, submission) = {
            let mut state = session.state.lock().expect("serve state");
            loop {
                if let Some(id) = state.queue.pop_front() {
                    let submission = match state.requests.insert(id, ReqState::Running) {
                        Some(ReqState::Queued(s)) => s,
                        _ => unreachable!("queued ids map to queued requests"),
                    };
                    if state.active_from.is_none() {
                        state.active_from = Some(Instant::now());
                    }
                    break (id, submission);
                }
                if state.shutdown {
                    return;
                }
                state = session.cv.wait(state).expect("serve state");
            }
        };
        let detail = submission.detail();
        session.harness.request_start(id, "submit", &detail);
        let started = Instant::now();
        let outcome = isolate(|| execute(session, &submission));
        let wall_ms = started.elapsed().as_millis() as u64;
        let mut state = session.state.lock().expect("serve state");
        state.requests_done += 1;
        state.active_until = Some(Instant::now());
        match outcome {
            Ok((text, points, records)) => {
                state.points_done += points;
                if session.store_enabled {
                    state.records.extend(records);
                }
                state.requests.insert(
                    id,
                    ReqState::Done {
                        text,
                        wall_ms,
                        points,
                    },
                );
                drop(state);
                session.harness.request_finish(id, "done", wall_ms, points);
            }
            Err(e) => {
                state.requests.insert(id, ReqState::Failed(e));
                drop(state);
                session.harness.request_finish(id, "error", wall_ms, 0);
            }
        }
        let rc = session.engine.result_cache();
        session
            .harness
            .result_cache(rc.hits(), rc.misses(), rc.evictions());
    }
}

/// Runs `f`, turning a panic into a one-line `internal error: …`
/// failure. Callers never hold the session state lock across `f`, so
/// a panic cannot poison it.
fn isolate<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("panic");
        Err(format!(
            "internal error: {}",
            msg.lines().next().unwrap_or_default()
        ))
    })
}

/// Executes one submission through the session engine, returning the
/// rendered text (byte-identical to the one-shot CLI's), the
/// requested point count, and the store records it produced.
fn execute_submission(session: &Session, submission: &Submission) -> Result<Executed, String> {
    // Session-level host figures stay zero until shutdown stamps the
    // session throughput into `points_per_sec`.
    let stamp = |record: RunRecord| RunRecord {
        timestamp: session.timestamp,
        commit: session.commit.clone(),
        source: "serve".to_string(),
        ..record
    };
    match submission {
        Submission::Exp(name) => {
            let registry = exp::specs::registry();
            let spec = registry
                .iter()
                .find(|s| s.name == name.as_str() || s.output == name.as_str())
                .ok_or_else(|| format!("unknown experiment `{name}`"))?;
            let plan = exp::plan(&[spec]);
            let points = (plan.stats.requested_points + plan.stats.potential_points) as u64;
            let executed = session
                .engine
                .execute_plan(&plan, &session.harness, None, None)?;
            let rendered = executed.results(spec).render();
            let records = executed.records().into_iter().map(stamp).collect();
            Ok((rendered.text, points, records))
        }
        Submission::Point {
            workload,
            input,
            scale,
            entries,
            instances,
        } => {
            let crb = CrbConfig {
                entries: *entries,
                instances: *instances,
                ..CrbConfig::paper()
            };
            let sc = Scenario::single(*input, *scale, &RegionConfig::paper(), crb);
            let runs = session.engine.run_selected(
                std::slice::from_ref(workload),
                &sc,
                &session.harness,
            )?;
            let r = stamp(runs[0].record(*input, *scale, &crate::config_hash(&sc.machine, &crb)));
            let text = format!(
                "{} base {} ccr {} speedup {:.6} hit_rate {:.6} regions {}\n",
                r.workload, r.base_cycles, r.ccr_cycles, r.speedup, r.hit_rate, r.regions
            );
            Ok((text, 1, vec![r]))
        }
    }
}

/// A blocking protocol client: one connection, submit-and-poll.
/// `ccr submit` and the protocol tests are thin wrappers over this.
pub struct Client {
    reader: BufReader<Conn>,
    writer: Conn,
}

/// One completed submission as the client saw it.
#[derive(Clone, Debug)]
pub struct ClientResult {
    /// Request id the server assigned.
    pub id: u64,
    /// Rendered result text (byte-identical to the one-shot CLI's).
    pub text: String,
    /// Requested points the submission covered.
    pub points: u64,
    /// Host wall time the request took server-side, ms.
    pub wall_ms: u64,
    /// Cumulative engine result-cache hits at reply time.
    pub cache_hits: u64,
    /// Cumulative engine result-cache misses at reply time.
    pub cache_misses: u64,
}

impl Client {
    /// Connects to a serve session.
    ///
    /// # Errors
    ///
    /// One-line connect failures naming the address.
    pub fn connect(bind: &Bind) -> Result<Client, String> {
        let conn = match bind {
            Bind::Tcp(port) => Conn::Tcp(
                TcpStream::connect(("127.0.0.1", *port))
                    .map_err(|e| format!("127.0.0.1:{port}: {e}"))?,
            ),
            #[cfg(unix)]
            Bind::Unix(path) => Conn::Unix(
                UnixStream::connect(path).map_err(|e| format!("{}: {e}", path.display()))?,
            ),
        };
        let writer = conn.try_clone().map_err(|e| format!("connect: {e}"))?;
        Ok(Client {
            reader: BufReader::new(conn),
            writer,
        })
    }

    /// Sends one raw request line and returns the parsed reply.
    ///
    /// # Errors
    ///
    /// Transport failures and `ok:false` replies (as the server's
    /// one-line `error`).
    pub fn roundtrip(&mut self, request: &str) -> Result<Value, String> {
        writeln!(self.writer, "{request}").map_err(|e| format!("send: {e}"))?;
        self.writer.flush().map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("recv: {e}"))?;
        if line.is_empty() {
            return Err("server closed the connection".to_string());
        }
        let v = value::parse(line.trim()).map_err(|e| format!("bad reply: {e:?}\n{line}"))?;
        if v.get("ok").and_then(Value::as_bool) == Some(false) {
            return Err(v.str_field("error").to_string());
        }
        Ok(v)
    }

    /// Submits an experiment or workload request and polls until the
    /// server finishes it.
    ///
    /// # Errors
    ///
    /// Transport failures, refused submissions (unknown name, full
    /// queue), and failed executions.
    pub fn submit_and_wait(&mut self, submit_request: &str) -> Result<ClientResult, String> {
        let reply = self.roundtrip(submit_request)?;
        let id = reply
            .get("id")
            .and_then(Value::as_u64)
            .ok_or("submit reply carried no id")?;
        let poll = {
            let mut w = JsonWriter::new();
            w.obj_begin();
            w.key("req_v").u64_val(REQ_VERSION);
            w.key("op").str_val("results");
            w.key("id").u64_val(id);
            w.obj_end();
            w.finish()
        };
        loop {
            let reply = self.roundtrip(&poll)?;
            if reply.str_field("state") == "done" {
                return Ok(ClientResult {
                    id,
                    text: reply.str_field("text").to_string(),
                    points: reply.u64_field("points"),
                    wall_ms: reply.u64_field("wall_ms"),
                    cache_hits: reply.u64_field("cache_hits"),
                    cache_misses: reply.u64_field("cache_misses"),
                });
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Asks the server to shut down once its queue drains.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn shutdown(&mut self) -> Result<(), String> {
        let mut w = JsonWriter::new();
        w.obj_begin();
        w.key("req_v").u64_val(REQ_VERSION);
        w.key("op").str_val("shutdown");
        w.obj_end();
        self.roundtrip(&w.finish()).map(|_| ())
    }
}

/// Builds the submit request line for an experiment.
pub fn submit_exp_request(name: &str) -> String {
    let mut w = JsonWriter::new();
    w.obj_begin();
    w.key("req_v").u64_val(REQ_VERSION);
    w.key("op").str_val("submit");
    w.key("exp").str_val(name);
    w.obj_end();
    w.finish()
}

/// Builds the submit request line for a single workload point.
pub fn submit_point_request(
    workload: &str,
    input: InputSet,
    scale: u32,
    entries: usize,
    instances: usize,
) -> String {
    let mut w = JsonWriter::new();
    w.obj_begin();
    w.key("req_v").u64_val(REQ_VERSION);
    w.key("op").str_val("submit");
    w.key("workload").str_val(workload);
    w.key("input").str_val(input.name());
    w.key("scale").u64_val(u64::from(scale));
    w.key("entries").u64_val(entries as u64);
    w.key("instances").u64_val(instances as u64);
    w.obj_end();
    w.finish()
}

/// Measures the service-throughput baseline `ccr bench
/// --serve-clients N` records: `clients` synthetic clients
/// concurrently sweeping the same workload selection through one
/// shared engine (maximum request overlap, so every duplicated point
/// dedups). Returns `(points, points_per_sec)` where `points` counts
/// requested points across all clients, before dedup — the service
/// throughput a fully-overlapping client population would see.
///
/// # Errors
///
/// The first failing workload's error.
pub fn synthetic_client_baseline(
    engine: &Engine,
    clients: usize,
    names: &[&'static str],
    scenario: &Scenario,
) -> Result<(u64, f64), String> {
    let started = Instant::now();
    let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|_| {
                scope.spawn(move || {
                    engine
                        .run_selected(names, scenario, &Harness::disabled())
                        .map(|_| ())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for result in results {
        result?;
    }
    let points = (clients.max(1) * names.len()) as u64;
    let wall = started.elapsed().as_secs_f64();
    let points_per_sec = if wall > 0.0 {
        points as f64 / wall
    } else {
        0.0
    };
    Ok((points, points_per_sec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn session(queue_cap: usize) -> Session {
        Session {
            engine: Engine::new(1),
            harness: Harness::start(&HarnessOptions::default()).expect("disabled harness"),
            state: Mutex::new(SessionState::default()),
            cv: Condvar::new(),
            queue_cap,
            timestamp: 0,
            commit: String::new(),
            store_enabled: false,
        }
    }

    fn status(session: &Session, id: u64) -> Value {
        let line = format!(r#"{{"req_v":1,"op":"status","id":{id}}}"#);
        value::parse(&handle_line(session, &line).0).expect("status reply parses")
    }

    #[test]
    fn a_panicking_request_fails_alone() {
        let session = session(8);
        for name in ["boom", "fine"] {
            enqueue(&session, Submission::Exp(name.to_string())).unwrap();
        }
        session.state.lock().unwrap().shutdown = true;
        executor_loop(&session, &|_, submission| match submission {
            Submission::Exp(name) if name == "boom" => panic!("exploded\nsecond line"),
            _ => Ok(("table\n".to_string(), 1, Vec::new())),
        });

        let failed = status(&session, 1);
        assert_eq!(failed.get("state").and_then(Value::as_str), Some("error"));
        assert_eq!(
            failed.get("error").and_then(Value::as_str),
            Some("internal error: exploded")
        );
        let done = status(&session, 2);
        assert_eq!(done.get("state").and_then(Value::as_str), Some("done"));
        let state = session.state.lock().unwrap();
        assert_eq!((state.requests_done, state.points_done), (2, 1));
    }

    /// Request-shaped lines: a JSON object assembled from the
    /// protocol's own keys and values, so cases reach past the parser.
    fn request_line() -> impl Strategy<Value = String> {
        let key = prop_oneof![
            Just("req_v"),
            Just("op"),
            Just("id"),
            Just("exp"),
            Just("workload"),
            Just("input"),
            Just("scale"),
            Just("entries"),
            Just("instances"),
            Just("bogus"),
        ];
        let val = prop_oneof![
            Just("1".to_string()),
            Just("0".to_string()),
            Just("-3".to_string()),
            Just("18446744073709551615".to_string()),
            Just("1e400".to_string()),
            Just(r#""submit""#.to_string()),
            Just(r#""status""#.to_string()),
            Just(r#""results""#.to_string()),
            Just(r#""shutdown""#.to_string()),
            Just(r#""fig4""#.to_string()),
            Just(r#""bitcount""#.to_string()),
            Just(r#""ref""#.to_string()),
            Just("null".to_string()),
            Just("[1,{}]".to_string()),
            ".{0,12}".prop_map(|s| format!("{s:?}")),
        ];
        proptest::collection::vec((key, val), 0..6).prop_map(|fields| {
            let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            format!("{{{}}}", body.join(","))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every line, however malformed, gets exactly one reply line
        /// that is a `req_v` 1 JSON object with an `ok` flag.
        #[test]
        fn any_line_gets_one_reply_line(
            line in prop_oneof![".{0,200}", request_line()]
        ) {
            let session = session(4);
            let (reply, _) = handle_line(&session, &line);
            prop_assert!(!reply.contains('\n'), "multi-line reply {reply:?}");
            let v = value::parse(&reply).map_err(|e| TestCaseError::fail(format!("{e:?}")))?;
            prop_assert_eq!(v.u64_field("req_v"), REQ_VERSION);
            prop_assert!(v.get("ok").is_some(), "reply without ok: {reply}");
        }
    }
}
