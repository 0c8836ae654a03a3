//! `ccr serve` wire-protocol contracts.
//!
//! Each test runs a real server in-process — listener thread,
//! executor threads, shared engine — over a Unix socket in a temp
//! directory, and talks to it through `ccr::serve::Client` (the same
//! code `ccr submit` uses). Pinned here:
//!
//! * the submit / status / results / shutdown round-trip, with served
//!   text byte-identical across repeated submissions,
//! * one-line `ok:false` error replies for malformed lines, unknown
//!   versions, ops, fields, and workloads — never a dropped
//!   connection,
//! * the bounded submit queue,
//! * cross-request dedup with pinned cache counts, and the session
//!   summary (throughput, store records) a drained server reports.

#![cfg(unix)]

use std::path::PathBuf;

use ccr::serve::{self, Bind, ServeOptions};
use ccr::workloads::InputSet;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Server {
    bind: Bind,
    handle: Option<std::thread::JoinHandle<Result<serve::ServeSummary, String>>>,
}

impl Server {
    /// Starts a server on a fresh socket under `dir` and waits until
    /// it accepts connections.
    fn start(
        dir: &std::path::Path,
        queue: usize,
        executors: usize,
        store: Option<PathBuf>,
    ) -> Server {
        let socket = dir.join("ccr.sock");
        let bind = Bind::Unix(socket.clone());
        let opts = ServeOptions {
            bind: bind.clone(),
            queue,
            jobs: 2,
            executors,
            harness_out: Some(dir.join("serve.jsonl")),
            store,
            timestamp: 1_700_000_000,
            commit: "f".repeat(40),
        };
        let handle = std::thread::spawn(move || serve::run(&opts));
        for _ in 0..500 {
            if socket.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        Server {
            bind,
            handle: Some(handle),
        }
    }

    fn client(&self) -> serve::Client {
        serve::Client::connect(&self.bind).expect("server is accepting")
    }

    /// Shuts the server down and returns its session summary.
    fn stop(mut self) -> serve::ServeSummary {
        self.client().shutdown().expect("shutdown acknowledged");
        self.handle
            .take()
            .unwrap()
            .join()
            .expect("server thread")
            .expect("clean shutdown")
    }
}

#[test]
fn submit_roundtrip_and_repeat_is_served_from_the_result_cache() {
    let dir = temp_dir("ccr-serve-roundtrip-test");
    let store = dir.join("store.jsonl");
    let server = Server::start(&dir, 8, 2, Some(store.clone()));

    let mut client = server.client();
    let request = serve::submit_point_request("lex", InputSet::Train, 1, 128, 8);
    let first = client.submit_and_wait(&request).expect("lex runs");
    assert_eq!(first.points, 1);
    assert!(first.text.starts_with("lex base "), "{}", first.text);
    assert_eq!(first.cache_hits, 0);
    assert_eq!(first.cache_misses, 2, "one base + one ccr sim");

    // The identical submission again: byte-identical text, every
    // lookup a hit, nothing recomputed.
    let again = client.submit_and_wait(&request).expect("repeat runs");
    assert_eq!(again.text, first.text);
    assert_eq!(again.cache_hits, 2);
    assert_eq!(again.cache_misses, 2);

    let summary = server.stop();
    assert_eq!(summary.requests, 2);
    assert_eq!(summary.points, 2);
    assert!(summary.points_per_sec > 0.0);
    assert_eq!(summary.result_cache_hits, 2);
    assert_eq!(summary.result_cache_misses, 2);
    assert_eq!(summary.compile_cache_hits, 1);
    assert_eq!(summary.compile_cache_misses, 1);
    assert_eq!(summary.stored_records, 2);

    // The store got both records, stamped with the session throughput.
    let loaded = ccr_analyze::RunStore::load(&store).unwrap();
    assert_eq!(loaded.skipped_lines, 0);
    assert_eq!(loaded.records.len(), 2);
    for rec in &loaded.records {
        assert_eq!(rec.source, "serve");
        assert_eq!(rec.workload, "lex");
        assert!((rec.points_per_sec - summary.points_per_sec).abs() < 1e-9);
    }

    // The session event log recorded the request lifecycle.
    let events = std::fs::read_to_string(dir.join("serve.jsonl")).unwrap();
    assert!(events.contains("\"ev\":\"request_start\""), "{events}");
    assert!(events.contains("\"ev\":\"request_finish\""), "{events}");
    assert!(events.contains("\"ev\":\"result_cache\""), "{events}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn protocol_errors_are_one_line_replies_not_dropped_connections() {
    let dir = temp_dir("ccr-serve-errors-test");
    let server = Server::start(&dir, 8, 2, None);
    let mut client = server.client();

    let cases: &[(&str, &str)] = &[
        ("not json at all", "unparseable request line"),
        (
            r#"{"req_v":9,"op":"submit","exp":"fig4"}"#,
            "unknown req_v 9",
        ),
        (r#"{"req_v":1,"op":"dance"}"#, "unknown op `dance`"),
        (
            r#"{"req_v":1,"op":"submit","exp":"fig4","color":"red"}"#,
            "unknown field `color` for op `submit`",
        ),
        (
            r#"{"req_v":1,"op":"submit","workload":"no-such-benchmark"}"#,
            "unknown workload `no-such-benchmark`",
        ),
        (
            r#"{"req_v":1,"op":"submit","exp":"no-such-experiment"}"#,
            "unknown experiment `no-such-experiment`",
        ),
        (
            r#"{"req_v":1,"op":"submit"}"#,
            "submit needs an `exp` or `workload` field",
        ),
        (
            r#"{"req_v":1,"op":"submit","workload":"lex","entries":0}"#,
            "`entries` must be at least 1",
        ),
        (
            r#"{"req_v":1,"op":"submit","workload":"lex","instances":0}"#,
            "`instances` must be at least 1",
        ),
        // Oversized buffers are refused before anything is allocated.
        (
            r#"{"req_v":1,"op":"submit","workload":"lex","entries":1025}"#,
            "`entries` must be at most 1024",
        ),
        (
            r#"{"req_v":1,"op":"submit","workload":"lex","instances":1048576}"#,
            "`instances` must be at most 64",
        ),
        (
            r#"{"req_v":1,"op":"submit","workload":"lex","entries":18446744073709551615}"#,
            "`entries` must be at most 1024",
        ),
        (
            r#"{"req_v":1,"op":"submit","workload":"lex","scale":4294967297}"#,
            "`scale` exceeds u32",
        ),
        (
            r#"{"req_v":1,"op":"submit","workload":"lex","scale":"2"}"#,
            "`scale` is not an unsigned integer",
        ),
        (
            r#"{"req_v":1,"op":"submit","workload":"lex","entries":"64"}"#,
            "`entries` is not an unsigned integer",
        ),
        (
            r#"{"req_v":1,"op":"submit","workload":"lex","instances":true}"#,
            "`instances` is not an unsigned integer",
        ),
        (
            r#"{"req_v":1,"op":"submit","workload":"lex","input":5}"#,
            "`input` is not a string",
        ),
        (
            r#"{"req_v":1,"op":"results","id":424242}"#,
            "unknown request id 424242",
        ),
    ];
    for (request, expected) in cases {
        let err = client.roundtrip(request).unwrap_err();
        assert!(
            err.contains(expected),
            "request {request}: got `{err}`, wanted `{expected}`"
        );
    }
    // The connection survived every error: a well-formed request on
    // the same connection still works.
    let reply = client
        .roundtrip(r#"{"req_v":1,"op":"submit","workload":"lex"}"#)
        .expect("connection still usable");
    assert_eq!(
        reply
            .get("state")
            .and_then(ccr::telemetry::value::Value::as_str),
        Some("queued")
    );

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn submit_queue_is_bounded() {
    let dir = temp_dir("ccr-serve-queue-test");
    let server = Server::start(&dir, 1, 1, None);
    let mut client = server.client();

    // Fill the single executor-visible pipeline: submit A and wait
    // until an executor has dequeued it (state `running` or beyond),
    // so the queue is observably empty again.
    let slow = serve::submit_point_request("yacc", InputSet::Train, 1, 128, 8);
    let reply = client.roundtrip(&slow).expect("first submit queued");
    let id = reply.u64_field("id");
    let status = {
        let mut w = ccr::telemetry::JsonWriter::new();
        w.obj_begin();
        w.key("req_v").u64_val(1);
        w.key("op").str_val("status");
        w.key("id").u64_val(id);
        w.obj_end();
        w.finish()
    };
    loop {
        let reply = client.roundtrip(&status).expect("status works");
        if reply.str_field("state") != "queued" {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    // B occupies the queue's single slot; C must be refused.
    client
        .roundtrip(&serve::submit_point_request(
            "lex",
            InputSet::Train,
            1,
            128,
            8,
        ))
        .expect("second submit fits the queue");
    let err = client
        .roundtrip(&serve::submit_point_request(
            "mpeg2enc",
            InputSet::Train,
            1,
            128,
            8,
        ))
        .unwrap_err();
    assert!(err.contains("queue full (1 request(s) pending)"), "{err}");

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_dedup_shared_points_with_pinned_counts() {
    let dir = temp_dir("ccr-serve-dedup-test");
    let server = Server::start(&dir, 8, 2, None);

    // Two clients submit the identical point at the same time; the
    // two executors run them concurrently against one engine. The
    // single-flight caches pin the totals: one compile and two sims
    // run once each, the losing request counts pure hits.
    let request = serve::submit_point_request("lex", InputSet::Train, 1, 128, 8);
    let texts: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let request = &request;
                let server = &server;
                scope.spawn(move || {
                    server
                        .client()
                        .submit_and_wait(request)
                        .expect("request completes")
                        .text
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(texts[0], texts[1], "both clients see identical results");

    let summary = server.stop();
    assert_eq!(summary.requests, 2);
    assert_eq!(summary.compile_cache_hits, 1);
    assert_eq!(summary.compile_cache_misses, 1);
    assert_eq!(summary.result_cache_hits, 2);
    assert_eq!(summary.result_cache_misses, 2);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queue_is_drained_before_shutdown_completes() {
    let dir = temp_dir("ccr-serve-drain-test");
    let server = Server::start(&dir, 8, 2, None);

    // Submit without waiting, then immediately ask for shutdown: the
    // server must finish the queued request before exiting.
    let mut client = server.client();
    client
        .roundtrip(&serve::submit_point_request(
            "lex",
            InputSet::Train,
            1,
            128,
            8,
        ))
        .expect("submit queued");
    let summary = server.stop();
    assert_eq!(summary.requests, 1, "queued work drained before exit");
    assert_eq!(summary.points, 1);

    let _ = std::fs::remove_dir_all(&dir);
}
