//! The trajectory commands: `fingerprint`, `snapshot`, and the
//! snapshot flags of `run` — every path that drives a [`SimSession`].
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
//! inside a full measurement (`ccr exp --checkpoint FILE` makes long
//! sweeps crash-resumable at simulation-unit granularity). See
//! DESIGN.md §13.
//!
//! Each step those paths share is one function here: compile a
//! [`Replay`] and start its session, save a snapshot at a cycle, load
//! and restore one, and finish a session.

use std::path::Path;
use std::process::ExitCode;

use ccr::sim::{SimOutcome, SimSession, SimSnapshot};
use ccr::workloads::InputSet;
use ccr::Harness;
use ccr_analyze::{format_hash, DigestFile};
use ccr_bench::exp::Scenario;

use crate::{
    compile_target, file_stem, finish_harness, harness_of, measure, scenario_of, target_of,
    usage_err, CliError, Flags,
};

/// The fingerprint window in cycles: `--window` when given, the
/// simulator's conventional default otherwise.
pub(crate) fn fingerprint_window(flags: &Flags) -> u64 {
    flags.window.unwrap_or(ccr::sim::DEFAULT_FINGERPRINT_WINDOW)
}

/// Parses a [`Replay::workload`] label back into its parts — from the
/// right, so `.ccr` file paths containing `:` or `@` still round-trip.
fn decode_workload(s: &str) -> Result<(String, InputSet, u32), String> {
    let err = || format!("`{s}` is not a `workload:input@scale` label");
    let (rest, scale) = s.rsplit_once('@').ok_or_else(err)?;
    let scale: u32 = scale.parse().map_err(|_| err())?;
    let (spec, input) = rest.rsplit_once(':').ok_or_else(err)?;
    let input = InputSet::from_name(input).ok_or_else(err)?;
    Ok((spec.to_string(), input, scale))
}

/// The local configuration's hash: the paper machine and the flags'
/// CRB, as digest files and snapshots record it.
fn config_hash(flags: &Flags) -> String {
    let sc = scenario_of(flags);
    ccr::config_hash(&sc.machine, &sc.crb)
}

/// A workload compiled for replay on the paper machine under the
/// flags' CRB, with the `spec:input@scale` label and the config hash
/// its digests and snapshots carry.
struct Replay {
    spec: String,
    /// The canonical `spec:input@scale` label; [`decode_workload`]
    /// inverts it so a restore or a divergence dump can rebuild the
    /// exact same run.
    workload: String,
    compiled: ccr::CompiledWorkload,
    scenario: Scenario,
    config_hash: String,
}

impl Replay {
    /// Compiles `spec` for `input` at `scale` the way `ccr run` does.
    fn compile(flags: &Flags, spec: &str, input: InputSet, scale: u32) -> Result<Replay, String> {
        Ok(Replay {
            spec: spec.to_string(),
            workload: format!("{spec}:{}@{scale}", input.name()),
            compiled: compile_target(flags, spec, input, scale)?,
            scenario: scenario_of(flags),
            config_hash: config_hash(flags),
        })
    }

    /// Loads a snapshot file, checks it was taken under the local
    /// configuration (and, for `ccr run`, of the named `spec`), and
    /// compiles its workload.
    fn load(
        flags: &Flags,
        file: &str,
        spec: Option<&str>,
    ) -> Result<(Replay, SimSnapshot), CliError> {
        let snap = ccr::sim::load_snapshot(Path::new(file))?;
        let (snap_spec, input, scale) =
            decode_workload(&snap.workload).map_err(|e| match spec {
                Some(_) => format!("{file}: {e}"),
                None => format!("{file}: {e} (was it written by `ccr snapshot save`?)"),
            })?;
        if let Some(spec) = spec.filter(|&spec| spec != snap_spec) {
            return Err(format!("{file}: snapshot is of `{snap_spec}`, not `{spec}`").into());
        }
        let config_hash = config_hash(flags);
        if snap.config_hash != config_hash {
            return Err(format!(
                "{file}: snapshot config hash {} does not match the local configuration \
                 {config_hash}; rerun with the --entries/--instances it was saved under",
                snap.config_hash
            )
            .into());
        }
        Ok((Replay::compile(flags, &snap_spec, input, scale)?, snap))
    }

    /// A fresh CCR session from cycle 0, labelled for its snapshots.
    fn start(&self, window: u64) -> SimSession<'_> {
        let (program, sc) = (&self.compiled.annotated, &self.scenario);
        let mut session = SimSession::new(program, &sc.machine, Some(sc.crb), sc.emu, window);
        session.set_provenance(&self.workload, &self.config_hash);
        session
    }

    /// Rebuilds the session `snap` (read from `file`) was taken of.
    fn restore(
        &self,
        snap: &SimSnapshot,
        file: &str,
        harness: &Harness,
    ) -> Result<SimSession<'_>, CliError> {
        let (program, sc) = (&self.compiled.annotated, &self.scenario);
        let session = SimSession::restore(program, &sc.machine, Some(sc.crb), sc.emu, snap)
            .map_err(|e| format!("{file}: {e}"))?;
        harness.snapshot("restore", &snap.workload, snap.cycle, file);
        Ok(session)
    }

    /// Runs `session` to `cycle` and saves its snapshot there to
    /// `path`; `flag` names the cycle's flag when the run ends first.
    fn save(
        &self,
        session: &mut SimSession<'_>,
        flag: &str,
        cycle: u64,
        path: &str,
        harness: &Harness,
    ) -> Result<SimSnapshot, CliError> {
        session.run_until_cycle(cycle).map_err(|e| e.to_string())?;
        if session.finished() {
            return Err(format!(
                "{}: run finished at cycle {} before {flag} {cycle}",
                self.spec,
                session.cycles_so_far()
            )
            .into());
        }
        let snap = session.snapshot()?;
        ccr::sim::save_snapshot(Path::new(path), &snap)?;
        harness.snapshot("save", &self.workload, snap.cycle, path);
        Ok(snap)
    }

    /// Runs `session` to completion and reports its trajectory hash
    /// to the harness. Returns the outcome and its `fingerprint:` line.
    fn finish(
        &self,
        mut session: SimSession<'_>,
        harness: &Harness,
    ) -> Result<(SimOutcome, String), CliError> {
        session.run_to_end().map_err(|e| e.to_string())?;
        let windows = session.windows().len() as u64;
        let hash = format_hash(session.final_hash().expect("finished run has a final hash"));
        harness.fingerprint(&self.workload, windows, session.cycles_so_far(), &hash);
        let line = format!("fingerprint: {hash} ({windows} window(s))");
        Ok((session.into_outcome(), line))
    }

    /// Runs a fresh session to completion under the streaming
    /// fingerprint and returns its digest file. `perturb_at` is the
    /// `CCR_FP_PERTURB` test hook (see [`fp_perturb_env`]).
    fn digest(&self, window: u64, perturb_at: Option<u64>) -> Result<DigestFile, String> {
        let mut session = self.start(window);
        if let Some(n) = perturb_at {
            while !session.finished() && (session.windows().len() as u64) < n {
                session.step().map_err(|e| e.to_string())?;
            }
            session.perturb_for_tests();
        }
        session.run_to_end().map_err(|e| e.to_string())?;
        Ok(DigestFile {
            workload: self.workload.clone(),
            config_hash: self.config_hash.clone(),
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
}

/// Test hook: `CCR_FP_PERTURB=N` deterministically flips one CRB bit
/// once the N-th window digest has sealed, manufacturing a divergent
/// twin so the bisection tests can pin the exact reported window
/// without a second simulator implementation.
fn fp_perturb_env() -> Result<Option<u64>, String> {
    let parse = |v: String| {
        v.parse()
            .map_err(|_| format!("CCR_FP_PERTURB: bad window index `{v}`"))
    };
    std::env::var("CCR_FP_PERTURB").ok().map(parse).transpose()
}

/// `ccr fingerprint`: runs each named workload under the streaming
/// determinism fingerprint and prints the final chain hash plus every
/// per-window digest; `--compare A B` bisects two saved digest files
/// to the first divergent window instead.
pub(crate) fn cmd_fingerprint(flags: &Flags) -> Result<ExitCode, CliError> {
    if flags.compare {
        return cmd_fingerprint_compare(flags);
    }
    if flags.positional.is_empty() {
        return Err(usage_err(
            "fingerprint needs at least one <benchmark|file.ccr> (or --compare A B)",
        ));
    }
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
        |i, spec| -> Result<DigestFile, String> {
            harness.task_start("sim", &labels[i]);
            let start = std::time::Instant::now();
            let replay = Replay::compile(flags, spec, flags.input, flags.scale)?;
            let digest = replay.digest(window, perturb_at)?;
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
            &format_hash(d.final_hash),
        );
        digests.push(d);
    }
    finish_harness(&harness);
    for (spec, d) in flags.positional.iter().zip(&digests) {
        println!(
            "{spec}: final {} ({} windows of {} cycles, {} cycles)",
            format_hash(d.final_hash),
            d.windows.len(),
            d.window,
            d.cycles
        );
        for w in &d.windows {
            println!(
                "  window {} @ cycle {}: {}",
                w.index,
                w.cycle,
                format_hash(w.hash)
            );
        }
    }
    if let Some(dir) = &flags.out {
        let dir = Path::new(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut chains = String::new();
        for (spec, d) in flags.positional.iter().zip(&digests) {
            let path = dir.join(format!("{}.fp.jsonl", file_stem(spec)));
            std::fs::write(&path, ccr_analyze::write_digest_file(d))
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
            chains.push_str(&format!("{spec} {}\n", format_hash(d.final_hash)));
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
    let load = |p: &str| -> Result<DigestFile, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        ccr_analyze::parse_digest_file(p, &text)
    };
    let a = load(a_path)?;
    let b = load(b_path)?;
    match ccr_analyze::compare_digests(&a, &b)? {
        ccr_analyze::FingerprintDiff::Identical => {
            println!(
                "identical: {} windows, final {}",
                a.windows.len(),
                format_hash(a.final_hash)
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
            println!("  A {a_path}: {}", format_hash(a_hash));
            println!("  B {b_path}: {}", format_hash(b_hash));
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
                format_hash(a.final_hash),
                format_hash(b.final_hash)
            );
            Ok(ExitCode::from(2))
        }
        ccr_analyze::FingerprintDiff::FinalOnly { a_hash, b_hash } => {
            println!(
                "every sealed window matches but the final hashes differ: {} vs {} \
                 (divergence after the last {}-cycle boundary)",
                format_hash(a_hash),
                format_hash(b_hash),
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
fn dump_divergence_snapshot(flags: &Flags, a: &DigestFile, b: &DigestFile, index: u64) {
    if let Err(msg) = replay_divergence(flags, a, b, index) {
        println!("  note: {msg}");
    }
}

fn replay_divergence(
    flags: &Flags,
    a: &DigestFile,
    b: &DigestFile,
    index: u64,
) -> Result<(), String> {
    let (spec, input, scale) = decode_workload(&a.workload)
        .map_err(|e| format!("{e}; skipping the local snapshot dump"))?;
    let config_hash = config_hash(flags);
    if config_hash != a.config_hash {
        return Err(format!(
            "digest config hash {} does not match the local configuration {config_hash}; \
             rerun with the matching --entries/--instances to dump a snapshot",
            a.config_hash
        ));
    }
    let replay = Replay::compile(flags, &spec, input, scale)?;
    let mut session = replay.start(a.window);
    // The last boundary both digests agree on: window `index - 1`'s
    // seal cycle (cycle 0 when the very first window diverged).
    let boundary = match index.checked_sub(1) {
        None => 0,
        Some(last) => (a.windows.get(last as usize).map(|w| w.cycle))
            .ok_or_else(|| format!("digest A lacks window {last}"))?,
    };
    session
        .run_until_cycle(boundary)
        .map_err(|e| e.to_string())?;
    let snap = session.snapshot()?;
    let out_dir = Path::new(flags.out.as_deref().unwrap_or("."));
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("{}.diverge.w{index}.snap.jsonl", file_stem(&spec)));
    ccr::sim::save_snapshot(&path, &snap)?;
    println!(
        "  wrote pre-divergence snapshot (cycle {}) to {}",
        snap.cycle,
        path.display()
    );
    // Step through the divergent window locally and say which side
    // this host reproduces — the arbiter between A and B.
    while !session.finished() && (session.windows().len() as u64) <= index {
        session.step().map_err(|e| e.to_string())?;
    }
    let w = (session.windows().get(index as usize))
        .ok_or_else(|| format!("local replay finished before window {index}"))?;
    let hash_of = |d: &DigestFile| d.windows.get(index as usize).map(|x| x.hash);
    let verdict = if Some(w.hash) == hash_of(a) {
        "matches side A"
    } else if Some(w.hash) == hash_of(b) {
        "matches side B"
    } else {
        "matches neither side"
    };
    println!(
        "  local replay of window {index}: {} — {verdict}",
        format_hash(w.hash)
    );
    Ok(())
}

/// `ccr snapshot save|restore`: captures the complete mid-run
/// simulation state at a cycle as versioned `{"snap_v":1}` JSONL, or
/// resumes one to completion with bit-identical final statistics.
pub(crate) fn cmd_snapshot(flags: &Flags) -> Result<(), CliError> {
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
    let harness = harness_of(flags)?;
    let replay = Replay::compile(flags, spec, flags.input, flags.scale)?;
    let mut session = replay.start(fingerprint_window(flags));
    let path = flags
        .out
        .clone()
        .unwrap_or_else(|| format!("{}.snap.jsonl", file_stem(spec)));
    let snap = replay.save(&mut session, "--at-cycle", at, &path, &harness)?;
    finish_harness(&harness);
    println!("workload   : {}", replay.workload);
    println!("cycle      : {}", snap.cycle);
    println!(
        "fingerprint: {} ({} window(s) sealed)",
        format_hash(session.fingerprint_hash()),
        session.windows().len()
    );
    println!("wrote      : {path}");
    Ok(())
}

fn cmd_snapshot_restore(flags: &Flags) -> Result<(), CliError> {
    let file = flags
        .positional
        .get(1)
        .ok_or_else(|| usage_err("snapshot restore needs <FILE>"))?;
    let (replay, snap) = Replay::load(flags, file, None)?;
    let harness = harness_of(flags)?;
    let session = replay.restore(&snap, file, &harness)?;
    let (outcome, fingerprint) = replay.finish(session, &harness)?;
    finish_harness(&harness);
    println!(
        "resumed    : {} from cycle {} ({file})",
        snap.workload, snap.cycle
    );
    let stats = &outcome.stats;
    println!(
        "cycles     : {} ({} hits / {} misses)",
        stats.cycles, stats.reuse_hits, stats.reuse_misses
    );
    println!("{fingerprint}");
    Ok(())
}

/// `ccr run --save-snapshot/--restore-snapshot`: the full measurement
/// (baseline + CCR + speedup) with the CCR leg driven through a
/// [`SimSession`] so it can be checkpointed mid-flight or resumed
/// from a prior checkpoint. Final statistics are bit-identical to a
/// plain `ccr run`, and pass the same soundness check.
pub(crate) fn run_snapshotted(flags: &Flags) -> Result<(), CliError> {
    let spec = target_of(flags)?;
    let harness = harness_of(flags)?;
    let (replay, restored) = match &flags.restore_snapshot {
        Some(file) => {
            let (replay, snap) = Replay::load(flags, file, Some(&spec))?;
            (replay, Some((snap, file)))
        }
        None => (
            Replay::compile(flags, &spec, flags.input, flags.scale)?,
            None,
        ),
    };
    let session = match restored {
        Some((snap, file)) => {
            let session = replay.restore(&snap, file, &harness)?;
            println!("resumed   : cycle {} <- {file}", snap.cycle);
            session
        }
        None => {
            let cycle = flags.snapshot_cycle.expect("checked by cmd_run");
            let file = flags.save_snapshot.as_deref().expect("checked by cmd_run");
            let mut session = replay.start(fingerprint_window(flags));
            let snap = replay.save(&mut session, "--snapshot-cycle", cycle, file, &harness)?;
            println!("snapshot  : cycle {} -> {file}", snap.cycle);
            session
        }
    };
    let (outcome, fingerprint) = replay.finish(session, &harness)?;
    finish_harness(&harness);
    let sc = &replay.scenario;
    let base = ccr::sim::simulate(&replay.compiled.base, &sc.machine, None, sc.emu)
        .map_err(|e| e.to_string())?;
    let m = ccr::Measurement::checked(base, outcome);
    measure::print_measurement(&spec, &replay.compiled, &m);
    println!("{fingerprint}");
    Ok(())
}
