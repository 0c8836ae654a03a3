//! `serve`: the experiment service under a closed loop. Each round
//! starts a fresh in-process `ccr serve` session (two executors, one
//! engine worker) on a Unix socket, and two client threads each send
//! 156 single-point requests, sending the next only after the previous
//! one is done. Clients poll for results every 2 ms themselves, since
//! `Client::submit_and_wait` sleeps 20 ms between polls and would
//! quantise latency.
//!
//! The requests are a seeded Zipf draw over 234 points: 13 workloads ×
//! {train, ref} × entries {32, 64, 128} × instances {4, 8, 16}. A
//! quarter of requests repeat an earlier point (a result-cache hit), a
//! quarter first-touch a compile, and the rest reuse a compile but need
//! new simulations; the median and p90 latencies then each fall inside
//! one of those classes. The shares are exact and every point is
//! requested, so the seed decides the order and the repeats but not
//! the work, and a round's cost does not depend on it. This is the
//! only workload where either engine cache hits.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ccr::profile::EmuConfig;
use ccr::regions::RegionConfig;
use ccr::serve::{self, submit_point_request, Bind, Client, ServeOptions, ServeSummary};
use ccr::sim::{simulate, CrbConfig, MachineConfig};
use ccr::telemetry::value::{self, Value};
use ccr::workloads::{build, InputSet, NAMES};
use ccr::{CompileConfig, CompiledWorkload};

use crate::golden::{self, input_tag, text_digest};
use crate::job::{timed_rounds, Params, Report};
use crate::layers::{self, Given};
use crate::replay;
use crate::rng::Rng;
use crate::speed::{allowed_cpus, Sampler};
use crate::stats::{median, percentile};
use crate::trace::{Span, Tracer};

/// Set-up repetitions. A set-up takes a fraction of a millisecond and
/// hinges on how soon the server's threads get a CPU, so many are timed.
const SETUP_REPS: usize = 31;
const CLIENTS: usize = 2;
/// Each client owns 117 points; a quarter more requests repeat some.
const REQUESTS_PER_CLIENT: usize = 156;
const POLL: Duration = Duration::from_millis(2);
const ENTRIES: [usize; 3] = [32, 64, 128];
const INSTANCES: [usize; 3] = [4, 8, 16];
const INPUTS: [InputSet; 2] = [InputSet::Train, InputSet::Ref];

#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Point {
    workload: usize,
    input: usize,
    instances: usize,
    entries: usize,
}

impl Point {
    /// What the server compiles once per point family.
    fn compile(&self) -> (usize, usize, usize) {
        (self.workload, self.input, self.instances)
    }

    fn key(&self) -> String {
        format!(
            "point|{}|{}|1|e{}|i{}",
            NAMES[self.workload],
            input_tag(INPUTS[self.input]),
            self.entries,
            self.instances
        )
    }

    fn request(&self) -> String {
        submit_point_request(
            NAMES[self.workload],
            INPUTS[self.input],
            1,
            self.entries,
            self.instances,
        )
    }

    /// The configuration the server compiles a point with.
    fn compile_config(&self) -> CompileConfig {
        CompileConfig {
            region: RegionConfig {
                trial_instances: self.instances,
                ..RegionConfig::paper()
            },
            ..CompileConfig::paper()
        }
    }

    fn crb(&self) -> CrbConfig {
        CrbConfig {
            entries: self.entries,
            instances: self.instances,
            ..CrbConfig::paper()
        }
    }
}

/// Emulator limits the server simulates points with.
fn point_emu() -> EmuConfig {
    EmuConfig {
        max_instrs: 500_000_000,
        max_depth: 1024,
    }
}

/// One request stream per client. Compile families are split between
/// the clients, so a client's own history decides each request's
/// class: its closed loop guarantees every earlier request is done.
/// Each client gets every workload under three of the six
/// (input, instances) pairs, both inputs and all instance counts among
/// them, so the two clients carry about the same work.
pub fn draw(seed: u64) -> Vec<Vec<Point>> {
    let mut rng = Rng::new(seed, "serve");
    (0..CLIENTS)
        .map(|c| {
            let mut points = Vec::new();
            for workload in 0..NAMES.len() {
                for input in 0..INPUTS.len() {
                    for (k, &instances) in INSTANCES.iter().enumerate() {
                        if (input + k) % CLIENTS != c {
                            continue;
                        }
                        for &entries in &ENTRIES {
                            points.push(Point {
                                workload,
                                input,
                                instances,
                                entries,
                            });
                        }
                    }
                }
            }
            // The client's points in Zipf rank order.
            rng.shuffle(&mut points);
            stream(&mut rng, &points)
        })
        .collect()
}

/// A client's requests over its `points` (in Zipf rank order). The
/// quotas add up to the request count and match what the points offer
/// (a first touch per family, a new simulation per other point), and
/// whenever a class still has quota left, it or the first-touch class
/// has candidates; so every class gets exactly its quota.
fn stream(rng: &mut Rng, points: &[Point]) -> Vec<Point> {
    let n = REQUESTS_PER_CLIENT;
    // Remaining requests per class: repeat, first touch of a compile,
    // new simulation on a compiled family.
    let mut quota = [n / 4, n / 4, n - 2 * (n / 4)];
    let mut seen = vec![false; points.len()];
    let mut touched = HashSet::new();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let candidates: [Vec<usize>; 3] = [
            (0..points.len()).filter(|&i| seen[i]).collect(),
            (0..points.len())
                .filter(|&i| !touched.contains(&points[i].compile()))
                .collect(),
            (0..points.len())
                .filter(|&i| !seen[i] && touched.contains(&points[i].compile()))
                .collect(),
        ];
        let weights: Vec<f64> = (0..3)
            .map(|c| {
                if candidates[c].is_empty() {
                    0.0
                } else {
                    quota[c] as f64
                }
            })
            .collect();
        let class = rng.weighted(&weights);
        let zipf: Vec<f64> = candidates[class]
            .iter()
            .map(|&i| 1.0 / (i + 1) as f64)
            .collect();
        let i = candidates[class][rng.weighted(&zipf)];
        quota[class] -= 1;
        seen[i] = true;
        touched.insert(points[i].compile());
        out.push(points[i]);
    }
    out
}

struct Reply {
    point: Point,
    latency_ms: f64,
    text: String,
}

struct RoundOut {
    setup_s: f64,
    /// One entry per request, client by client; `None` for a request
    /// that failed.
    replies: Vec<Option<Reply>>,
    summary: ServeSummary,
}

fn poll_request(id: u64) -> String {
    format!(r#"{{"req_v":1,"op":"results","id":{id}}}"#)
}

/// Sends one client's stream through its connection, closed loop.
fn drive(mut client: Client, stream: &[Point], tr: Option<&Tracer>) -> Vec<Option<Reply>> {
    let mut replies = Vec::new();
    for &point in stream {
        let start = Instant::now();
        let start_ns = tr.map_or(0, Tracer::now_ns);
        let mut polls = 0u64;
        let mut one = || -> Result<Value, String> {
            let id = client
                .roundtrip(&point.request())?
                .get("id")
                .and_then(Value::as_u64)
                .ok_or("submit reply carried no id")?;
            loop {
                let reply = client.roundtrip(&poll_request(id))?;
                polls += 1;
                if reply.str_field("state") == "done" {
                    return Ok(reply);
                }
                std::thread::sleep(POLL);
            }
        };
        match one() {
            Ok(reply) => {
                if let Some(tr) = tr {
                    let server_ms = reply.u64_field("wall_ms") as f64;
                    tr.record(Span {
                        id: tr.new_id(),
                        parent: None,
                        unit: 0,
                        name: "serve.request",
                        start_ns,
                        end_ns: tr.now_ns(),
                        counts: vec![("polls", polls as f64), ("server_ms", server_ms)],
                    });
                }
                replies.push(Some(Reply {
                    point,
                    latency_ms: start.elapsed().as_secs_f64() * 1e3,
                    text: reply.str_field("text").to_string(),
                }));
            }
            Err(e) => {
                eprintln!("serve: {}: {e}", point.key());
                replies.push(None);
            }
        }
    }
    replies
}

/// Connects as soon as the server listens. It retries without sleeping:
/// the set-up takes a fraction of a millisecond, and sleeping between
/// attempts would round it up to the sleep's granularity.
fn connect(bind: &Bind, server_done: impl Fn() -> bool) -> Result<Client, String> {
    let start = Instant::now();
    loop {
        match Client::connect(bind) {
            Ok(client) => return Ok(client),
            Err(e) if server_done() || start.elapsed() > Duration::from_secs(10) => return Err(e),
            Err(_) => std::thread::yield_now(),
        }
    }
}

/// One fresh session: start the server, connect the clients (the
/// round's set-up), run both streams, shut down.
fn round(
    streams: &[Vec<Point>],
    harness_out: Option<PathBuf>,
    tr: Option<&Tracer>,
) -> Result<RoundOut, String> {
    // A relative path keeps the socket address short however deep the
    // checkout lies.
    let socket = PathBuf::from(format!("benchmark/out/serve-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let bind = Bind::Unix(socket);
    let opts = ServeOptions {
        bind: bind.clone(),
        queue: 64,
        jobs: 1,
        executors: 2,
        harness_out,
        store: None,
        timestamp: 0,
        commit: String::new(),
    };
    std::thread::scope(|s| {
        let setup_start = Instant::now();
        let server = s.spawn(|| serve::run(&opts));
        let clients: Result<Vec<Client>, String> = (0..CLIENTS)
            .map(|_| connect(&bind, || server.is_finished()))
            .collect();
        let setup_s = setup_start.elapsed().as_secs_f64();
        let driven: Result<Vec<Vec<Option<Reply>>>, String> = clients.map(|clients| {
            let handles: Vec<_> = clients
                .into_iter()
                .zip(streams)
                .map(|(client, stream)| s.spawn(move || drive(client, stream, tr)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        // Always stop the session, so the scope can end.
        let stopped = Client::connect(&bind).and_then(|mut c| c.shutdown());
        let summary = server.join().expect("server thread")?;
        stopped?;
        Ok(RoundOut {
            setup_s,
            replies: driven?.into_iter().flatten().collect(),
            summary,
        })
    })
}

/// Each request's median latency (ms) over the rounds of
/// `latencies[round][request]`, and the round's wall time estimated
/// from them: the clients run side by side, so a round lasts as long as
/// the slower client's requests add up to.
fn estimate(streams: &[Vec<Point>], latencies: &[Vec<f64>]) -> (f64, Vec<f64>) {
    let requests = latencies.first().map_or(0, Vec::len);
    let per_request: Vec<f64> = (0..requests)
        .map(|i| median(&latencies.iter().map(|l| l[i]).collect::<Vec<_>>()))
        .collect();
    let mut wall_s: f64 = 0.0;
    let mut offset = 0;
    for stream in streams {
        let client_ms: f64 = per_request[offset..offset + stream.len()].iter().sum();
        wall_s = wall_s.max(client_ms / 1e3);
        offset += stream.len();
    }
    (wall_s, per_request)
}

pub fn run(p: &Params) -> Result<Report, String> {
    let mut report = Report::default();
    // Set-up is starting a session and connecting the clients, timed on
    // sessions that serve nothing; each round then gets a fresh one.
    for _ in 0..SETUP_REPS {
        let setup_s = round(&vec![Vec::new(); CLIENTS], None, None)?.setup_s;
        report.setups.push_part(setup_s);
        report.setups.end_group();
    }
    let streams = draw(p.seed);
    let requests: usize = streams.iter().map(Vec::len).sum();
    // The session's threads run on every CPU; a sampler on each tracks
    // the machine's speed, and a round's latencies are scaled by it.
    let sampler = Sampler::start(&allowed_cpus()?)?;
    // latencies[round][request], client by client; NaN where it failed.
    let mut latencies: Vec<Vec<f64>> = Vec::new();
    let mut first: BTreeMap<String, String> = BTreeMap::new();
    timed_rounds(
        p.seconds,
        &mut report,
        || {
            let start = Instant::now();
            let out = round(&streams, None, None)?;
            Ok((out, sampler.speed(start, Instant::now())))
        },
        |(out, speed), report| {
            let mut bad = 0;
            let mut digests = BTreeMap::new();
            let mut lat = Vec::with_capacity(requests);
            for r in &out.replies {
                let Some(r) = r else {
                    bad += 1;
                    lat.push(f64::NAN);
                    continue;
                };
                lat.push(r.latency_ms * speed);
                let d = text_digest(&r.text);
                let known = first.get(&r.point.key()).or(digests.get(&r.point.key()));
                match known {
                    Some(k) if *k != d => bad += 1,
                    Some(_) => {}
                    None => {
                        digests.insert(r.point.key(), d);
                    }
                }
            }
            latencies.push(lat);
            if first.is_empty() {
                bad += golden::check("serve", p.seed, &digests)?.len();
            }
            first.extend(digests);
            report.ops(requests, bad);
            Ok(())
        },
    )?;
    let (wall_s, per_request) = estimate(&streams, &latencies);
    report.wall_s = wall_s;
    let ms = |q| percentile(&per_request, q).unwrap_or(f64::NAN);
    report.extras.push(("req_p50_ms", ms(0.5)));
    report.extras.push(("req_p90_ms", ms(0.9)));
    report
        .extras
        .push(("points_per_s", requests as f64 / report.wall_s));
    report.samples.push(("requests", requests as u64));
    report.probe_s = sampler.probe_s();
    if p.trace {
        traced(&streams, &sampler, &mut report)?;
    }
    Ok(report)
}

/// The result cache's evictions, from the session's last
/// `result_cache` event.
fn evictions(path: &Path) -> Result<u64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut last = 0;
    for line in text.lines() {
        let v = value::parse(line).map_err(|e| format!("{}: {e:?}", path.display()))?;
        if v.str_field("ev") == "result_cache" {
            last = v.u64_field("evictions");
        }
    }
    Ok(last)
}

/// `<name> base <cycles> ccr <cycles> ...` from a point reply.
fn reply_cycles(text: &str) -> Option<(u64, u64)> {
    let words: Vec<&str> = text.split_whitespace().collect();
    let at = |key: &str| {
        let i = words.iter().position(|w| *w == key)?;
        words.get(i + 1)?.parse().ok()
    };
    Some((at("base")?, at("ccr")?))
}

/// A traced session (request spans, harness log), its latencies scaled
/// like the untraced rounds', then every compile and simulation the
/// session ran, replayed into layers through direct calls with the
/// server's own configurations. The direct runs also cross-check each
/// reply's cycle counts.
fn traced(streams: &[Vec<Point>], sampler: &Sampler, report: &mut Report) -> Result<(), String> {
    let tr = Tracer::new();
    let harness_path = PathBuf::from("benchmark/out/serve-harness.jsonl");
    let start = Instant::now();
    let out = round(streams, Some(harness_path.clone()), Some(&tr))?;
    let speed = sampler.speed(start, Instant::now());
    let latencies: Vec<f64> = out
        .replies
        .iter()
        .map(|r| r.as_ref().map_or(f64::NAN, |r| r.latency_ms * speed))
        .collect();
    let s = &out.summary;
    let mut given = Given {
        compile_cache: (s.compile_cache_hits, s.compile_cache_misses),
        result_cache: (s.result_cache_hits, s.result_cache_misses),
        result_cache_evictions: evictions(&harness_path)?,
        untraced_wall_s: report.wall_s,
        traced_wall_s: estimate(streams, &[latencies]).0,
        ..Given::default()
    };
    let replies: Vec<&Reply> = out.replies.iter().flatten().collect();
    report.ops(out.replies.len(), out.replies.len() - replies.len());

    let points: BTreeSet<Point> = replies.iter().map(|r| r.point).collect();
    let families: BTreeSet<(usize, usize, usize)> = points.iter().map(Point::compile).collect();
    let machine = MachineConfig::paper();
    let emu = point_emu();
    let mut compiled: BTreeMap<(usize, usize, usize), CompiledWorkload> = BTreeMap::new();
    for &(workload, input, instances) in &families {
        let u = tr.new_id();
        let name = NAMES[workload];
        let (train, target) = tr.span("workloads.build", u, None, |_| {
            (
                build(name, InputSet::Train, 1),
                build(name, INPUTS[input], 1),
            )
        });
        let (train, target) = train.zip(target).ok_or("unknown workload")?;
        let config = Point {
            workload,
            input,
            instances,
            entries: 0,
        }
        .compile_config();
        let real = replay::compile(&tr, u, &train, &target, &config)
            .map_err(|e| format!("{name}: {e}"))?;
        replay::compile_stages(&tr, u, &train, &target, &config, &real)
            .map_err(|e| format!("{name}: {e}"))?;
        compiled.insert((workload, input, instances), real);
    }
    let mut base_cycles = BTreeMap::new();
    for (&(workload, input, _), cw) in &compiled {
        if base_cycles.contains_key(&(workload, input)) {
            continue;
        }
        let u = tr.new_id();
        let real = tr
            .span("sim.base", u, None, |_| {
                simulate(&cw.base, &machine, None, emu)
            })
            .map_err(|e| e.to_string())?;
        replay::sim_layers(&tr, u, &cw.base, &machine, None, emu, &real)
            .map_err(|e| e.to_string())?;
        base_cycles.insert((workload, input), real.stats.cycles);
    }
    let mut ccr_cycles = BTreeMap::new();
    for point in &points {
        let u = tr.new_id();
        let cw = &compiled[&point.compile()];
        let crb = Some(point.crb());
        let real = tr
            .span("sim.ccr", u, None, |_| {
                simulate(&cw.annotated, &machine, crb, emu)
            })
            .map_err(|e| e.to_string())?;
        replay::sim_layers(&tr, u, &cw.annotated, &machine, crb, emu, &real)
            .map_err(|e| e.to_string())?;
        ccr_cycles.insert(*point, real.stats.cycles);
    }
    let mismatched = replies
        .iter()
        .filter(|r| {
            let want = (
                base_cycles[&(r.point.workload, r.point.input)],
                ccr_cycles[&r.point],
            );
            reply_cycles(&r.text) != Some(want)
        })
        .count();
    if mismatched > 0 {
        eprintln!("serve: {mismatched} replies disagree with direct simulation");
    }
    report.failed += mismatched as u64;
    given.distinct_profiles = families.iter().map(|f| f.0).collect::<HashSet<_>>().len() as u64;
    let spans = tr.into_spans();
    report.layers = layers::compute(&spans, &given);
    report.spans = spans;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_is_seeded_and_hits_the_class_shares() {
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        for seed in 1..=20 {
            let streams = draw(seed);
            let families: Vec<HashSet<(usize, usize, usize)>> = streams
                .iter()
                .map(|s| s.iter().map(Point::compile).collect())
                .collect();
            assert!(
                families[0].is_disjoint(&families[1]),
                "clients share no compile"
            );
            for stream in &streams {
                assert_eq!(stream.len(), REQUESTS_PER_CLIENT);
                let mut seen = HashSet::new();
                let mut touched = HashSet::new();
                let (mut repeats, mut firsts) = (0, 0);
                for p in stream {
                    repeats += usize::from(!seen.insert(*p));
                    firsts += usize::from(touched.insert(p.compile()));
                }
                assert_eq!(seen.len(), 117, "seed {seed}: every point requested");
                assert_eq!((repeats, firsts), (39, 39), "seed {seed}");
            }
        }
    }

    #[test]
    fn reply_cycles_reads_the_point_reply() {
        let text = "lex base 296614 ccr 262047 speedup 1.131924 hit_rate 0.5 regions 7\n";
        assert_eq!(reply_cycles(text), Some((296614, 262047)));
        assert_eq!(reply_cycles("lex base x"), None);
    }
}
