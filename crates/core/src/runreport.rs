//! The run report: a versioned JSON serialization of one full
//! measurement — machine and CRB configuration, run provenance,
//! per-pass compile statistics, baseline and CCR [`SimStats`], and
//! per-region dynamics.
//!
//! The report schema is versioned by [`REPORT_SCHEMA_VERSION`]
//! (`schema_version` at the top level, independent of the per-event
//! `"v"` tag from [`ccr_telemetry::SCHEMA_VERSION`]); consumers
//! should reject versions they do not know. Version history:
//!
//! * **1** — initial report (PR 1), no provenance block.
//! * **2** — adds `provenance` (argv, machine/CRB config hash, crate
//!   version) so `ccr diff` can refuse incomparable runs. Readers
//!   (`ccr-analyze`) keep a v1 path: a v1 report simply has no
//!   provenance.
//! * **3** — adds CRB miss-cause counters (`miss_cold` … in the `crb`
//!   block and per-region entries) and an `attribution` key in each
//!   phase's stats (a cycle breakdown object for profiled runs, else
//!   `null`). Readers keep v1/v2 paths: the new keys simply read as
//!   absent.
//! * **4** — adds `git_commit` to the provenance block (best-effort
//!   `git rev-parse HEAD`, `"unknown"` outside a checkout) so the
//!   cross-run store can key records by commit. Readers keep the
//!   v1–v3 paths: an absent `git_commit` reads as unknown.
//!
//! All counters are serialized as the exact integers the simulator
//! reported, so a report agrees byte-for-byte with the plain-text
//! tables rendered from the same run. The `machine` and `crb` blocks
//! (which [`config_hash`] also hashes) and the counters of the `base`
//! and `ccr` blocks come from the one `record!` declaration of each
//! type in `ccr-sim` (the [`SimStats`] one is the snapshot's and
//! checkpoint's stats object); the phase blocks add only
//! `effective_ipc` and `attribution`.

use ccr_regions::RegionInfo;
use ccr_sim::{CrbConfig, MachineConfig, SimStats};
use ccr_telemetry::record::{Codec, Record, Strict};
use ccr_telemetry::{emit, JsonWriter, TelemetrySink};

use crate::compile::CompileTelemetry;
use crate::measure::Measurement;

/// Version of the run-report JSON schema (`schema_version`).
pub const REPORT_SCHEMA_VERSION: u32 = 4;

/// The current git commit id, resolved once per process via
/// `git rev-parse HEAD` in the working directory. Returns `"unknown"`
/// when git is unavailable, the directory is not a checkout, or the
/// output is not a well-formed hex id — provenance is best-effort and
/// must never fail a run.
pub fn git_commit_id() -> &'static str {
    static COMMIT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    COMMIT.get_or_init(|| {
        let out = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output();
        match out {
            Ok(out) if out.status.success() => {
                let id = String::from_utf8_lossy(&out.stdout).trim().to_string();
                if !id.is_empty() && id.bytes().all(|b| b.is_ascii_hexdigit()) {
                    id
                } else {
                    "unknown".to_string()
                }
            }
            _ => "unknown".to_string(),
        }
    })
}

/// Where a report came from: enough to decide whether two runs are
/// comparable (same code, same simulated hardware) before diffing
/// their numbers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Provenance {
    /// The CLI argument vector that produced the run (empty for
    /// library-driven runs).
    pub argv: Vec<String>,
    /// FNV-1a hash of the serialized machine + CRB configuration
    /// (see [`config_hash`]), as fixed-width hex.
    pub config_hash: String,
    /// `ccr-core` crate version that produced the report.
    pub crate_version: String,
    /// Git commit id of the checkout that produced the run
    /// ([`git_commit_id`]), `"unknown"` outside a checkout.
    pub git_commit: String,
}

impl Provenance {
    /// Builds provenance for a run of `machine` + `crb` launched with
    /// `argv` (pass the post-binary-name CLI words; empty is fine).
    pub fn new(argv: &[String], machine: &MachineConfig, crb: &CrbConfig) -> Provenance {
        Provenance {
            argv: argv.to_vec(),
            config_hash: config_hash(machine, crb),
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            git_commit: git_commit_id().to_string(),
        }
    }
}

/// A stable fingerprint of the simulated configuration: FNV-1a (64)
/// over the canonical JSON of the machine and CRB blocks, rendered as
/// 16 hex digits. Two runs with equal hashes simulated identical
/// hardware; comparing runs with different hashes compares apples to
/// oranges.
pub fn config_hash(machine: &MachineConfig, crb: &CrbConfig) -> String {
    let mut w = JsonWriter::new();
    w.obj_begin();
    Strict::put(machine, "machine", &mut w);
    Strict::put(crb, "crb", &mut w);
    w.obj_end();
    fnv1a_hex(w.finish().as_bytes())
}

/// FNV-1a (64-bit) over `bytes`, rendered as 16 hex digits — the hash
/// behind [`config_hash`] and the experiment planner's point keys
/// (`ccr_bench::exp`).
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Emits compile-time telemetry as events: one `pass` event per
/// optimizer pass, one `formation_reject` event per rejection reason,
/// and a `formation` summary.
pub fn emit_compile_events(telemetry: &CompileTelemetry, sink: &mut dyn TelemetrySink) {
    for rec in &telemetry.passes {
        emit!(sink, "pass",
            pass: rec.pass,
            wall_us: rec.wall_us,
            changes: rec.changes,
            instrs_before: rec.instrs_before,
            instrs_after: rec.instrs_after,
            blocks_before: rec.blocks_before,
            blocks_after: rec.blocks_after,
        );
    }
    for (reason, count) in telemetry.formation.rejections() {
        emit!(sink, "formation_reject", reason: reason, count: count);
    }
    emit!(sink, "formation",
        candidates: telemetry.formation.candidates,
        accepted: telemetry.formation.accepted,
        rejected: telemetry.formation.rejected_total(),
    );
}

/// Everything one run produced, borrowed for serialization.
pub struct RunReport<'a> {
    /// Workload name (benchmark or file path).
    pub workload: &'a str,
    /// Input set the target was built with (`train` / `ref`).
    pub input: &'a str,
    /// Workload scale factor.
    pub scale: u32,
    /// The simulated machine.
    pub machine: &'a MachineConfig,
    /// The CRB geometry.
    pub crb: &'a CrbConfig,
    /// Compile-time telemetry (pass records, formation stats).
    pub compile: &'a CompileTelemetry,
    /// Metadata of the formed regions.
    pub regions: &'a [RegionInfo],
    /// The baseline-vs-CCR measurement.
    pub measurement: &'a Measurement,
    /// Run provenance (argv, config hash, crate version).
    pub provenance: &'a Provenance,
}

impl RunReport<'_> {
    /// Serializes the report as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.obj_begin();
        w.key("schema_version")
            .u64_val(u64::from(REPORT_SCHEMA_VERSION));
        w.key("workload").str_val(self.workload);
        w.key("input").str_val(self.input);
        w.key("scale").u64_val(u64::from(self.scale));

        w.key("provenance").obj_begin();
        w.key("argv").arr_begin();
        for arg in &self.provenance.argv {
            w.str_val(arg);
        }
        w.arr_end();
        w.key("config_hash").str_val(&self.provenance.config_hash);
        w.key("crate_version")
            .str_val(&self.provenance.crate_version);
        w.key("git_commit").str_val(&self.provenance.git_commit);
        w.obj_end();

        Strict::put(self.machine, "machine", &mut w);
        Strict::put(self.crb, "crb", &mut w);

        w.key("compile").obj_begin();
        w.key("passes").arr_begin();
        for rec in &self.compile.passes {
            w.obj_begin();
            w.key("pass").str_val(rec.pass);
            w.key("wall_us").u64_val(rec.wall_us);
            w.key("changes").u64_val(rec.changes as u64);
            w.key("instrs_before").u64_val(rec.instrs_before as u64);
            w.key("instrs_after").u64_val(rec.instrs_after as u64);
            w.key("blocks_before").u64_val(rec.blocks_before as u64);
            w.key("blocks_after").u64_val(rec.blocks_after as u64);
            w.obj_end();
        }
        w.arr_end();
        w.key("formation").obj_begin();
        w.key("candidates")
            .u64_val(self.compile.formation.candidates);
        w.key("accepted").u64_val(self.compile.formation.accepted);
        w.key("rejected").obj_begin();
        for (reason, count) in self.compile.formation.rejections() {
            w.key(reason).u64_val(count);
        }
        w.obj_end();
        w.obj_end();
        w.obj_end();

        w.key("regions").u64_val(self.regions.len() as u64);
        w.key("base");
        sim_stats_json(&mut w, &self.measurement.base.stats);
        w.key("ccr");
        sim_stats_json(&mut w, &self.measurement.ccr.stats);
        w.key("speedup").f64_val(self.measurement.speedup());
        w.key("eliminated_fraction")
            .f64_val(self.measurement.eliminated_fraction());
        w.obj_end();
        w.finish()
    }
}

/// A phase's statistics: the checkpoint's [`SimStats`] members, plus
/// the report's own `effective_ipc` and `attribution`.
fn sim_stats_json(w: &mut JsonWriter, s: &SimStats) {
    w.obj_begin();
    s.put_fields(w);
    w.key("effective_ipc").f64_val(s.effective_ipc());
    w.key("attribution");
    match &s.attribution {
        None => {
            w.null_val();
        }
        Some(attr) => attribution_json(w, attr),
    }
    w.obj_end();
}

fn attribution_json(w: &mut JsonWriter, attr: &ccr_sim::Attribution) {
    w.obj_begin();
    Strict::put(&attr.total, "total", w);
    w.key("functions").arr_begin();
    for f in &attr.functions {
        w.obj_begin();
        w.key("name").str_val(&f.name);
        w.key("cycles").u64_val(f.buckets.total());
        Strict::put(&f.buckets, "buckets", w);
        w.obj_end();
    }
    w.arr_end();
    w.key("regions").arr_begin();
    for (id, cycles) in &attr.regions {
        w.obj_begin();
        w.key("region").u64_val(id.index() as u64);
        w.key("cycles").u64_val(*cycles);
        w.obj_end();
    }
    w.arr_end();
    w.obj_end();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile_ccr, CompileConfig};
    use crate::measure::measure;
    use ccr_profile::EmuConfig;
    use ccr_telemetry::SummarySink;
    use ccr_workloads::{build, InputSet};

    #[test]
    fn run_report_serializes_the_whole_measurement() {
        let p = build("008.espresso", InputSet::Train, 1).unwrap();
        let cw = compile_ccr(&p, &p, &CompileConfig::paper()).unwrap();
        let machine = MachineConfig::paper();
        let crb = CrbConfig::paper();
        let m = measure(&cw, &machine, crb, EmuConfig::default()).unwrap();
        let argv = vec!["run".to_string(), "008.espresso".to_string()];
        let provenance = Provenance::new(&argv, &machine, &crb);
        let report = RunReport {
            workload: "008.espresso",
            input: "train",
            scale: 1,
            machine: &machine,
            crb: &crb,
            compile: &cw.telemetry,
            regions: &cw.regions,
            measurement: &m,
            provenance: &provenance,
        };
        let json = report.to_json();
        assert!(json.starts_with("{\"schema_version\":4,"), "{json}");
        assert!(
            json.contains(&format!("\"git_commit\":\"{}\"", provenance.git_commit)),
            "{json}"
        );
        assert!(json.contains("\"miss_cold\":"), "{json}");
        assert!(
            json.contains("\"attribution\":null"),
            "unprofiled runs carry a null attribution"
        );
        assert!(
            json.contains(&format!(
                "\"provenance\":{{\"argv\":[\"run\",\"008.espresso\"],\"config_hash\":\"{}\"",
                provenance.config_hash
            )),
            "{json}"
        );
        // The serialized counters are the exact integers the simulator
        // reported — the same digits the text tables print.
        assert!(json.contains(&format!("\"cycles\":{}", m.base.stats.cycles)));
        assert!(json.contains(&format!("\"cycles\":{}", m.ccr.stats.cycles)));
        assert!(json.contains(&format!("\"reuse_hits\":{}", m.ccr.stats.reuse_hits)));
        assert!(json.contains("\"replacement\":\"lru\""));
        assert!(json.contains("\"issue_width\":6"));
        assert!(json.contains(&format!("\"regions\":{}", cw.regions.len())));
        // Balanced braces and brackets (cheap well-formedness check:
        // no strings in the report contain structural characters).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "{json}");
        assert_eq!(json.matches('[').count(), json.matches(']').count());

        // Pin the bytes: with the host-dependent fields fixed, the
        // report is a pure function of the run, so a format drift
        // shows up as a new digest.
        let mut compile = cw.telemetry.clone();
        for pass in &mut compile.passes {
            pass.wall_us = 0;
        }
        let fixed = Provenance {
            crate_version: "0.0.0".into(),
            git_commit: "unknown".into(),
            ..provenance.clone()
        };
        let pinned = RunReport {
            compile: &compile,
            provenance: &fixed,
            ..report
        };
        assert_eq!(fnv1a_hex(pinned.to_json().as_bytes()), "7423b1ee0064ed16");
    }

    #[test]
    fn config_hash_distinguishes_configurations() {
        let machine = MachineConfig::paper();
        let a = config_hash(&machine, &CrbConfig::paper());
        let b = config_hash(&machine, &CrbConfig::paper());
        assert_eq!(a, b, "hash must be deterministic");
        assert_eq!(a.len(), 16);
        assert!(a.bytes().all(|c| c.is_ascii_hexdigit()));
        let c = config_hash(&machine, &CrbConfig::with_entries(32));
        assert_ne!(a, c, "different CRB geometry must change the hash");
        let mut wide = machine;
        wide.issue_width += 1;
        let d = config_hash(&wide, &CrbConfig::paper());
        assert_ne!(a, d, "different machine must change the hash");

        // The hashed bytes are pinned: the paper point, a FIFO buffer,
        // and a nonuniform one.
        assert_eq!(a, "97e38860bf6aaa62");
        let fifo = CrbConfig {
            replacement: ccr_sim::Replacement::Fifo,
            ..CrbConfig::paper()
        };
        assert_eq!(config_hash(&machine, &fifo), "9d5654bf10b5475d");
        let skewed = CrbConfig {
            nonuniform: Some(ccr_sim::NonuniformConfig {
                boost_every: 4,
                boosted_instances: 20,
                mem_capable_percent: 50,
            }),
            ..CrbConfig::paper()
        };
        assert_eq!(config_hash(&machine, &skewed), "590ed45bae2cea3a");
    }

    #[test]
    fn git_commit_id_is_hex_or_unknown() {
        let id = git_commit_id();
        assert!(
            id == "unknown" || (id.len() == 40 && id.bytes().all(|b| b.is_ascii_hexdigit())),
            "unexpected commit id {id:?}"
        );
        // Cached: a second call returns the same value.
        assert_eq!(git_commit_id(), id);
    }

    #[test]
    fn compile_events_mirror_the_telemetry() {
        let p = build("008.espresso", InputSet::Train, 1).unwrap();
        let cw = compile_ccr(&p, &p, &CompileConfig::paper()).unwrap();
        let mut sink = SummarySink::new();
        emit_compile_events(&cw.telemetry, &mut sink);
        assert_eq!(sink.count("pass"), cw.telemetry.passes.len() as u64);
        assert_eq!(sink.count("formation"), 1);
        assert_eq!(
            sink.sum("formation", "candidates") as u64,
            cw.telemetry.formation.candidates
        );
        assert_eq!(
            sink.sum("formation_reject", "count") as u64,
            cw.telemetry.formation.rejected_total()
        );
    }
}
