//! The experiment service: `serve` keeps one engine alive across
//! requests, `submit` is its client (see `ccr::serve`).

use crate::{record_timestamp, store_path, usage_err, CliError, Flags};

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
pub(crate) fn cmd_serve(flags: &Flags) -> Result<(), CliError> {
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
pub(crate) fn cmd_submit(flags: &Flags) -> Result<(), CliError> {
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
