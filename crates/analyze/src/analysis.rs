//! The analyzer: turns one run's raw telemetry into the structured
//! views the paper's evaluation reasons about.
//!
//! Output is [`Analysis`], serialized as a deterministic
//! `analysis.json` (identical input artifacts ⇒ byte-identical
//! output; CI relies on this) plus a human-readable summary. The
//! per-region numbers come from the event stream; the run totals come
//! from `report.json`, which the simulator wrote from the same
//! counters — so the two always agree, and the analyzer cross-checks
//! nothing it would then have to arbitrate.

use std::collections::BTreeMap;

use ccr_telemetry::record::{Codec, Record, Strict};
use ccr_telemetry::{record, Histogram};

use crate::bench::BenchWorkload;
use crate::ingest::{AttrRec, CrbKind, PassRow, Phase, RunData};
use crate::store::{MissCauses, RunRecord};
use crate::value;
use crate::ANALYSIS_SCHEMA_VERSION;

/// The five miss-cause tags, in canonical order.
pub const MISS_CAUSES: [&str; 5] = ["cold", "mismatch", "capacity", "conflict", "invalidated"];

/// Number of equal-count windows in a region's hit-rate-over-time
/// profile (the "does it warm up / fade" view).
pub const HIT_RATE_WINDOWS: usize = 8;
/// Maximum time buckets in the CRB occupancy curve.
pub const OCCUPANCY_BUCKETS: u64 = 32;
/// IPC values are fixed-point scaled by this factor before entering
/// the log₂ histogram that provides the percentile estimates.
pub const IPC_SCALE: f64 = 1000.0;

/// Distribution statistics of one phase's interval-IPC samples.
/// Percentiles are log₂-bucket interpolations from
/// [`ccr_telemetry::Histogram`]; mean/min/max are exact.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IpcStats {
    /// Number of windows sampled.
    pub windows: u64,
    /// Exact mean IPC across windows.
    pub mean: f64,
    /// Exact minimum.
    pub min: f64,
    /// Exact maximum.
    pub max: f64,
    /// Median estimate.
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

impl IpcStats {
    /// The statistics of one phase's windows.
    fn of_phase(data: &RunData, phase: Phase) -> IpcStats {
        let mut h = Histogram::default();
        let (mut n, mut sum) = (0u64, 0.0f64);
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for ipc in data
            .ipc_windows
            .iter()
            .filter(|w| w.phase == phase)
            .map(|w| w.ipc)
        {
            h.record((ipc * IPC_SCALE).round() as u64);
            n += 1;
            sum += ipc;
            min = min.min(ipc);
            max = max.max(ipc);
        }
        if n == 0 {
            return IpcStats::default();
        }
        IpcStats {
            windows: n,
            mean: sum / n as f64,
            min,
            max,
            p50: h.p50() / IPC_SCALE,
            p90: h.p90() / IPC_SCALE,
            p99: h.p99() / IPC_SCALE,
        }
    }
}

/// One region's dynamic reuse profile (CCR phase).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegionProfile {
    /// Region id.
    pub region: u64,
    /// Reuse lookups.
    pub lookups: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Hits / lookups.
    pub hit_rate: f64,
    /// Instructions eliminated by the region's hits.
    pub skipped: u64,
    /// Pipeline cycle of the first lookup.
    pub first_cycle: u64,
    /// Pipeline cycle of the last lookup.
    pub last_cycle: u64,
    /// Hit rate over [`HIT_RATE_WINDOWS`] equal-count windows of the
    /// region's own lookups, in time order (fewer when the region has
    /// fewer lookups than windows).
    pub hit_rate_windows: Vec<f64>,
    /// Largest post-event instance occupancy observed for the
    /// region's entry (0 when the buffer logged no event for it) — a
    /// lower bound on the region's instance working-set size.
    pub peak_occupancy: u64,
    /// Capacity evictions charged to the region.
    pub evictions: u64,
    /// Direct-mapped conflicts charged to the region.
    pub conflicts: u64,
    /// Memory invalidations charged to the region.
    pub invalidations: u64,
    /// Miss cost in cycles: `misses × reuse_miss_penalty`.
    pub miss_cycles: u64,
    /// Miss-cause mix, indexed like [`MISS_CAUSES`]. All zero for
    /// unprofiled streams (misses carry no `cause` tag there).
    pub miss_causes: [u64; 5],
}

/// One bucket of the CRB occupancy curve.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OccupancyPoint {
    /// Bucket start, in buffer clock units.
    pub clock: u64,
    /// Structural events in the bucket.
    pub events: u64,
    /// Mean post-event occupancy across those events.
    pub mean_occupancy: f64,
}

/// Per-entry structural-event totals (set pressure).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EntryPressure {
    /// Direct-mapped entry index.
    pub entry: u64,
    /// Evictions at the entry.
    pub evictions: u64,
    /// Conflicts at the entry.
    pub conflicts: u64,
    /// Invalidations at the entry.
    pub invalidations: u64,
}

/// The full analysis of one run, one member per `analysis.json`
/// object.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// The analyzed run and its artifacts.
    pub source: Source,
    /// Run-wide totals.
    pub totals: Totals,
    /// Compile-time records.
    pub compile: CompileInfo,
    /// Interval-IPC statistics of the two simulations.
    pub ipc: PerPhase<IpcStats>,
    /// Per-region profiles, ascending region id.
    pub regions: Vec<RegionProfile>,
    /// CRB occupancy and set pressure.
    pub crb: CrbCurves,
    /// Cycle attribution of the two simulations (profiled v3 runs
    /// only).
    pub attribution: PerPhase<Option<AttrRec>>,
    /// Regions ranked by instructions saved, descending, top N.
    pub hottest_by_skipped: Vec<RegionSkipped>,
    /// Regions ranked by miss cycles wasted, descending, top N.
    pub hottest_by_miss_cycles: Vec<RegionMissCycles>,
}

/// The analyzed run: `analysis.json`'s `source` object.
#[derive(Clone, Debug, Default)]
pub struct Source {
    /// Workload name.
    pub workload: String,
    /// Input set.
    pub input: String,
    /// Scale factor.
    pub scale: u64,
    /// Report schema version of the source.
    pub report_schema: u64,
    /// Machine/CRB configuration hash (None for v1 sources).
    pub config_hash: Option<String>,
    /// CLI argv of the producing run (empty for v1 sources).
    pub argv: Vec<String>,
    /// Parsed event count.
    pub events: u64,
    /// Unparseable event lines skipped.
    pub skipped_lines: u64,
}

/// Run-wide totals: `analysis.json`'s `totals` object.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    /// Baseline cycles.
    pub base_cycles: u64,
    /// CCR cycles.
    pub ccr_cycles: u64,
    /// Reported speedup.
    pub speedup: f64,
    /// Fraction of baseline instructions eliminated.
    pub eliminated_fraction: f64,
    /// CRB lookups.
    pub lookups: u64,
    /// CRB hits.
    pub hits: u64,
    /// CRB misses.
    pub misses: u64,
    /// Run-wide miss-cause mix, indexed like [`MISS_CAUSES`] (from
    /// the report; all zero for pre-v3 sources).
    pub miss_causes: [u64; 5],
    /// hits / lookups.
    pub hit_rate: f64,
    /// Instructions eliminated by reuse.
    pub skipped_instrs: u64,
    /// Total capacity evictions.
    pub evictions: u64,
    /// Total direct-mapped conflicts.
    pub conflicts: u64,
    /// Total invalidations.
    pub invalidations: u64,
    /// Formed regions (from the report).
    pub regions_formed: u64,
    /// Regions that saw at least one lookup.
    pub regions_active: u64,
}

/// Compile-time records: `analysis.json`'s `compile` object.
#[derive(Clone, Debug, Default)]
pub struct CompileInfo {
    /// Total optimizer wall time (µs).
    pub wall_us: u64,
    /// Optimizer passes, in order.
    pub passes: Vec<PassRow>,
    /// Region-formation rejections per reason.
    pub formation_rejects: BTreeMap<String, u64>,
}

/// One value for each simulation of a run.
#[derive(Clone, Debug, Default)]
pub struct PerPhase<T> {
    /// The baseline simulation's.
    pub base: T,
    /// The CCR simulation's.
    pub ccr: T,
}

/// CRB occupancy and set pressure: `analysis.json`'s `crb` object.
#[derive(Clone, Debug, Default)]
pub struct CrbCurves {
    /// Occupancy curve over buffer clock.
    pub occupancy_curve: Vec<OccupancyPoint>,
    /// Per-entry pressure, descending (evictions + conflicts), top 16.
    pub entry_pressure: Vec<EntryPressure>,
}

/// A region and the instructions its hits saved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegionSkipped {
    /// Region id.
    pub region: u64,
    /// Instructions saved.
    pub skipped: u64,
}

/// A region and the cycles its misses wasted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegionMissCycles {
    /// Region id.
    pub region: u64,
    /// Miss cycles.
    pub miss_cycles: u64,
}

// `analysis.json`, one declaration per object, after the
// `analysis_schema_version` head. A file without `source` or `totals`
// is refused; any other missing or mistyped key reads as its default.
record!(Lenient Analysis {
    source: Strict, totals: Strict, compile, ipc, regions, crb, attribution,
    hottest_by_skipped, hottest_by_miss_cycles,
});
record!(Lenient Source {
    workload, input, scale, report_schema, config_hash, argv, events, skipped_lines,
});
record!(Lenient Totals {
    base_cycles, ccr_cycles, speedup, eliminated_fraction, lookups, hits, misses,
    miss_causes: MissCauses, hit_rate, skipped_instrs, evictions, conflicts, invalidations,
    regions_formed, regions_active,
});
record!(Lenient CompileInfo { wall_us, passes, formation_rejects });
record!(Lenient PerPhase<IpcStats> { base, ccr });
record!(Lenient PerPhase<Option<AttrRec>> { base, ccr });
record!(Lenient IpcStats { windows, mean, min, max, p50, p90, p99 });
record!(Lenient RegionProfile {
    region, lookups, hits, misses, hit_rate, skipped, first_cycle, last_cycle,
    hit_rate_windows, peak_occupancy, evictions, conflicts, invalidations, miss_cycles,
    miss_causes: MissCauses,
});
record!(Lenient CrbCurves { occupancy_curve, entry_pressure });
record!(Lenient OccupancyPoint { clock, events, mean_occupancy });
record!(Lenient EntryPressure { entry, evictions, conflicts, invalidations });
record!(Lenient RegionSkipped { region, skipped });
record!(Lenient RegionMissCycles { region, miss_cycles });

/// Analyzes one loaded run. `top_n` bounds the hottest-region tables.
pub fn analyze(data: &RunData, top_n: usize) -> Analysis {
    let report = &data.report;
    let crb = &report.ccr.crb;
    let mut a = Analysis {
        source: Source {
            workload: report.workload.clone(),
            input: report.input.clone(),
            scale: report.scale,
            report_schema: report.schema_version,
            config_hash: report.provenance.config_hash.clone(),
            argv: report.provenance.argv.clone(),
            events: data.events,
            skipped_lines: data.skipped_lines,
        },
        totals: Totals {
            base_cycles: report.base.cycles,
            ccr_cycles: report.ccr.cycles,
            speedup: report.speedup,
            eliminated_fraction: report.eliminated_fraction,
            lookups: crb.lookups,
            hits: crb.hits,
            misses: crb.misses,
            miss_causes: crb.miss_causes,
            hit_rate: ratio(crb.hits, crb.lookups),
            skipped_instrs: data.ccr_summary.skipped,
            invalidations: crb.invalidations,
            conflicts: crb.entry_conflicts,
            regions_formed: report.regions,
            ..Totals::default()
        },
        compile: CompileInfo {
            wall_us: data.passes.iter().map(|p| p.row.wall_us).sum(),
            passes: data.passes.iter().map(|p| p.row.clone()).collect(),
            formation_rejects: data.formation_rejects.clone(),
        },
        ipc: PerPhase {
            base: IpcStats::of_phase(data, Phase::Base),
            ccr: IpcStats::of_phase(data, Phase::Ccr),
        },
        attribution: PerPhase {
            base: report.base.attribution.clone(),
            ccr: report.ccr.attribution.clone(),
        },
        ..Analysis::default()
    };

    // Per-region profiles from the CCR-phase reuse timeline.
    let mut by_region: BTreeMap<u64, Vec<(bool, u64, u64)>> = BTreeMap::new();
    let mut causes_by_region: BTreeMap<u64, [u64; 5]> = BTreeMap::new();
    for r in data.reuse.iter().filter(|r| r.phase == Phase::Ccr) {
        by_region
            .entry(r.region)
            .or_default()
            .push((r.hit, r.skipped, r.cycle));
        if let Some(slot) = r
            .cause
            .as_deref()
            .and_then(|c| MISS_CAUSES.iter().position(|m| *m == c))
        {
            causes_by_region.entry(r.region).or_default()[slot] += 1;
        }
    }
    let mut profiles: BTreeMap<u64, RegionProfile> = BTreeMap::new();
    for (&region, lookups) in &by_region {
        let hits = lookups.iter().filter(|(h, _, _)| *h).count() as u64;
        let n = lookups.len() as u64;
        let mut p = RegionProfile {
            region,
            lookups: n,
            hits,
            misses: n - hits,
            hit_rate: ratio(hits, n),
            skipped: lookups.iter().map(|(_, s, _)| s).sum(),
            first_cycle: lookups.first().map(|(_, _, c)| *c).unwrap_or(0),
            last_cycle: lookups.last().map(|(_, _, c)| *c).unwrap_or(0),
            miss_cycles: (n - hits) * report.machine.reuse_miss_penalty,
            miss_causes: causes_by_region.get(&region).copied().unwrap_or_default(),
            ..RegionProfile::default()
        };
        // Equal-count hit-rate windows in time order.
        let chunk = lookups.len().div_ceil(HIT_RATE_WINDOWS);
        p.hit_rate_windows = lookups
            .chunks(chunk.max(1))
            .map(|c| {
                ratio(
                    c.iter().filter(|(h, _, _)| *h).count() as u64,
                    c.len() as u64,
                )
            })
            .collect();
        profiles.insert(region, p);
    }

    // CRB structural events: per-region charges, per-entry pressure,
    // and the run-wide occupancy curve.
    let mut pressure: BTreeMap<u64, EntryPressure> = BTreeMap::new();
    for ev in &data.crb_events {
        let p = profiles.entry(ev.region).or_insert_with(|| RegionProfile {
            region: ev.region,
            ..RegionProfile::default()
        });
        match ev.kind {
            CrbKind::Evict => p.evictions += 1,
            CrbKind::Conflict => p.conflicts += 1,
            CrbKind::Invalidate => p.invalidations += 1,
        }
        p.peak_occupancy = p.peak_occupancy.max(ev.occupancy);
        let e = pressure.entry(ev.entry).or_insert(EntryPressure {
            entry: ev.entry,
            ..EntryPressure::default()
        });
        match ev.kind {
            CrbKind::Evict => e.evictions += 1,
            CrbKind::Conflict => e.conflicts += 1,
            CrbKind::Invalidate => e.invalidations += 1,
        }
    }
    a.totals.evictions = data
        .crb_events
        .iter()
        .filter(|e| e.kind == CrbKind::Evict)
        .count() as u64;

    if let (Some(first), Some(last)) = (data.crb_events.first(), data.crb_events.last()) {
        let span = last.clock.saturating_sub(first.clock).max(1);
        let bucket = (span / OCCUPANCY_BUCKETS).max(1);
        let mut curve: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for ev in &data.crb_events {
            let slot = first.clock + (ev.clock - first.clock) / bucket * bucket;
            let c = curve.entry(slot).or_insert((0, 0));
            c.0 += 1;
            c.1 += ev.occupancy;
        }
        a.crb.occupancy_curve = curve
            .into_iter()
            .map(|(clock, (events, occ))| OccupancyPoint {
                clock,
                events,
                mean_occupancy: occ as f64 / events as f64,
            })
            .collect();
    }

    let mut pressure: Vec<EntryPressure> = pressure.into_values().collect();
    pressure.sort_by(|x, y| {
        (y.evictions + y.conflicts, x.entry).cmp(&(x.evictions + x.conflicts, y.entry))
    });
    pressure.truncate(16);
    a.crb.entry_pressure = pressure;

    a.totals.regions_active = by_region.len() as u64;
    a.regions = profiles.into_values().collect();

    a.hottest_by_skipped = hottest(
        &a.regions,
        top_n,
        |p| p.skipped,
        |region, skipped| RegionSkipped { region, skipped },
    );
    a.hottest_by_miss_cycles = hottest(
        &a.regions,
        top_n,
        |p| p.miss_cycles,
        |region, miss_cycles| RegionMissCycles {
            region,
            miss_cycles,
        },
    );
    a
}

/// The regions with a nonzero `count`, largest first (ties by
/// ascending id), top `n`, each as the row `row(region, count)`.
fn hottest<T>(
    regions: &[RegionProfile],
    n: usize,
    count: impl Fn(&RegionProfile) -> u64,
    row: impl Fn(u64, u64) -> T,
) -> Vec<T> {
    let mut ranked: Vec<(u64, u64)> = regions
        .iter()
        .map(|p| (p.region, count(p)))
        .filter(|&(_, c)| c > 0)
        .collect();
    ranked.sort_by(|x, y| (y.1, x.0).cmp(&(x.1, y.0)));
    ranked.into_iter().take(n).map(|(r, c)| row(r, c)).collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Analysis {
    /// Serializes the analysis as deterministic JSON (`analysis.json`).
    pub fn to_json(&self) -> String {
        let version = u64::from(ANALYSIS_SCHEMA_VERSION);
        let mut out = record::object(
            |w| Strict::put(&version, "analysis_schema_version", w),
            self,
        );
        out.push('\n');
        out
    }

    /// Reads a saved `analysis.json` back: the one reader of the file.
    ///
    /// # Errors
    ///
    /// Malformed JSON, an unknown `analysis_schema_version`, or a file
    /// without its `source` or `totals` object.
    pub fn from_json(text: &str) -> Result<Analysis, String> {
        let v = value::parse(text.trim()).map_err(|e| e.to_string())?;
        value::check_version(
            &v,
            "analysis_schema_version",
            &[u64::from(ANALYSIS_SCHEMA_VERSION)],
        )?;
        Analysis::get_fields(&v, "analysis.json")
    }

    /// The run-store record of this run: its identity and outcome,
    /// with host time `wall_ms` (0 when unmeasured) and the throughput
    /// derived from it. Callers stamp `timestamp`, `commit` and
    /// `source`.
    pub fn record(&self, wall_ms: u64) -> RunRecord {
        let (s, t) = (&self.source, &self.totals);
        RunRecord {
            config_hash: s.config_hash.clone().unwrap_or_default(),
            workload: s.workload.clone(),
            input: s.input.clone(),
            scale: s.scale,
            base_cycles: t.base_cycles,
            ccr_cycles: t.ccr_cycles,
            speedup: t.speedup,
            hit_rate: t.hit_rate,
            miss_causes: t.miss_causes,
            regions: t.regions_formed,
            wall_ms,
            sim_cycles_per_host_sec: BenchWorkload::host_throughput(
                t.base_cycles,
                t.ccr_cycles,
                wall_ms,
            ),
            ..RunRecord::default()
        }
    }

    /// Renders the human-readable run summary `ccr analyze` prints.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let (s, t) = (&self.source, &self.totals);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run        : {} ({}, scale {}) — report v{}{}",
            s.workload,
            s.input,
            s.scale,
            s.report_schema,
            s.config_hash
                .as_deref()
                .map(|h| format!(", config {h}"))
                .unwrap_or_default(),
        );
        let _ = writeln!(
            out,
            "events     : {} parsed, {} corrupt line(s) skipped",
            s.events, s.skipped_lines
        );
        let _ = writeln!(
            out,
            "cycles     : base {} → ccr {}  (speedup {:.3}x, eliminated {:.1}%)",
            t.base_cycles,
            t.ccr_cycles,
            t.speedup,
            t.eliminated_fraction * 100.0
        );
        let _ = writeln!(
            out,
            "crb        : {} lookups, {} hits ({:.1}%), {} evictions, {} conflicts, {} invalidations",
            t.lookups,
            t.hits,
            t.hit_rate * 100.0,
            t.evictions,
            t.conflicts,
            t.invalidations
        );
        if t.miss_causes.iter().any(|&c| c > 0) {
            let [cold, mismatch, capacity, conflict, invalidated] = t.miss_causes;
            let _ = writeln!(
                out,
                "misses     : {cold} cold, {mismatch} mismatch, {capacity} capacity, {conflict} conflict, {invalidated} invalidated",
            );
        }
        for (name, attr) in [
            ("attr (base)", &self.attribution.base),
            ("attr (ccr)", &self.attribution.ccr),
        ] {
            if let Some(a) = attr {
                let b = &a.total;
                let _ = writeln!(
                    out,
                    "{name:<11}: {} cycles = issue {} + fetch {} + memory {} + reuse_hit {} + drain {}",
                    b.total(),
                    b.issue,
                    b.fetch,
                    b.memory,
                    b.reuse_hit,
                    b.drain
                );
            }
        }
        for (name, s) in [("ipc (base)", &self.ipc.base), ("ipc (ccr)", &self.ipc.ccr)] {
            if s.windows > 0 {
                let _ = writeln!(
                    out,
                    "{name} : mean {:.3}  p50 {:.3}  p90 {:.3}  p99 {:.3}  ({} windows)",
                    s.mean, s.p50, s.p90, s.p99, s.windows
                );
            }
        }
        let _ = writeln!(
            out,
            "compile    : {} passes, {} µs",
            self.compile.passes.len(),
            self.compile.wall_us
        );
        let _ = writeln!(
            out,
            "regions    : {} formed, {} active",
            t.regions_formed, t.regions_active
        );
        if !self.hottest_by_skipped.is_empty() {
            let _ = writeln!(out, "hottest by instructions saved:");
            for r in &self.hottest_by_skipped {
                let p = self.regions.iter().find(|p| p.region == r.region);
                let _ = writeln!(
                    out,
                    "  region {:>4}: {:>10} skipped, hit rate {:>5.1}%",
                    r.region,
                    r.skipped,
                    p.map(|p| p.hit_rate * 100.0).unwrap_or(0.0)
                );
            }
        }
        if !self.hottest_by_miss_cycles.is_empty() {
            let _ = writeln!(out, "hottest by miss cycles wasted:");
            for r in &self.hottest_by_miss_cycles {
                let _ = writeln!(
                    out,
                    "  region {:>4}: {:>10} cycles",
                    r.region, r.miss_cycles
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{CrbCounters, IpcWindowRec, MachineInfo, PhaseInfo, ReportInfo, ReuseRec};

    fn sample_data() -> RunData {
        let mut data = RunData {
            report: ReportInfo {
                schema_version: 2,
                workload: "w".into(),
                input: "train".into(),
                scale: 1,
                provenance: crate::ingest::Provenance {
                    config_hash: Some("00ff00ff00ff00ff".into()),
                    ..Default::default()
                },
                base: PhaseInfo {
                    cycles: 1000,
                    ..PhaseInfo::default()
                },
                ccr: PhaseInfo {
                    cycles: 800,
                    crb: CrbCounters {
                        lookups: 12,
                        hits: 8,
                        misses: 4,
                        miss_causes: [1, 3, 0, 0, 0],
                        ..CrbCounters::default()
                    },
                    attribution: None,
                },
                speedup: 1.25,
                eliminated_fraction: 0.2,
                machine: MachineInfo {
                    reuse_miss_penalty: 2,
                },
                regions: 3,
                ..ReportInfo::default()
            },
            events: 20,
            ..RunData::default()
        };
        // Region 0: warms up (4 misses then 4 hits); region 1: all hits.
        for i in 0..8u64 {
            data.reuse.push(ReuseRec {
                phase: Phase::Ccr,
                region: 0,
                hit: i >= 4,
                skipped: if i >= 4 { 10 } else { 0 },
                cycle: 100 + i * 50,
                cause: (i < 4).then(|| if i == 0 { "cold" } else { "mismatch" }.to_string()),
            });
        }
        for i in 0..4u64 {
            data.reuse.push(ReuseRec {
                phase: Phase::Ccr,
                region: 1,
                hit: true,
                skipped: 5,
                cycle: 120 + i * 50,
                cause: None,
            });
        }
        // A base-phase lookup must not leak into the CCR profiles.
        data.reuse.push(ReuseRec {
            phase: Phase::Base,
            region: 0,
            hit: false,
            skipped: 0,
            cycle: 10,
            cause: None,
        });
        for i in 0..4u64 {
            data.ipc_windows.push(IpcWindowRec {
                phase: Phase::Ccr,
                index: i,
                start_cycle: i * 100,
                cycles: 100,
                instrs: 100 + i * 20,
                skipped: 0,
                ipc: 1.0 + i as f64 * 0.2,
            });
        }
        data.ccr_summary.skipped = 60;
        data
    }

    #[test]
    fn per_region_profiles_and_rankings() {
        let a = analyze(&sample_data(), 10);
        assert_eq!(a.regions.len(), 2);
        let r0 = &a.regions[0];
        assert_eq!((r0.region, r0.lookups, r0.hits, r0.misses), (0, 8, 4, 4));
        assert_eq!(r0.hit_rate, 0.5);
        assert_eq!(r0.skipped, 40);
        assert_eq!(r0.first_cycle, 100);
        assert_eq!(r0.last_cycle, 450);
        assert_eq!(r0.miss_cycles, 8);
        // 8 lookups over 8 windows: the warm-up is visible.
        assert_eq!(r0.hit_rate_windows.len(), 8);
        assert_eq!(&r0.hit_rate_windows[..4], &[0.0, 0.0, 0.0, 0.0]);
        assert_eq!(&r0.hit_rate_windows[4..], &[1.0, 1.0, 1.0, 1.0]);
        let r1 = &a.regions[1];
        assert_eq!(r1.hit_rate, 1.0);
        assert_eq!(r1.miss_cycles, 0);
        // Rankings: region 0 saved more; only region 0 wasted misses.
        let skipped = |region, skipped| RegionSkipped { region, skipped };
        assert_eq!(a.hottest_by_skipped, vec![skipped(0, 40), skipped(1, 20)]);
        assert_eq!(
            a.hottest_by_miss_cycles,
            vec![RegionMissCycles {
                region: 0,
                miss_cycles: 8
            }]
        );
        assert_eq!(a.totals.regions_active, 2);
        assert_eq!(a.totals.regions_formed, 3);
    }

    #[test]
    fn ipc_stats_use_percentiles() {
        let a = analyze(&sample_data(), 10);
        let ccr = &a.ipc.ccr;
        assert_eq!(ccr.windows, 4);
        assert!((ccr.mean - 1.3).abs() < 1e-9);
        assert_eq!(ccr.min, 1.0);
        assert_eq!(ccr.max, 1.6);
        assert!(ccr.p50 >= ccr.min && ccr.p50 <= ccr.max);
        assert!(ccr.p99 >= ccr.p50);
        assert_eq!(a.ipc.base, IpcStats::default());
    }

    #[test]
    fn json_is_deterministic_and_versioned() {
        let data = sample_data();
        let a = analyze(&data, 10);
        let j1 = analyze(&data, 10).to_json();
        let j2 = a.to_json();
        assert_eq!(j1, j2, "same input must give identical bytes");
        assert!(j1.starts_with("{\"analysis_schema_version\":2,"));
        assert!(j1.ends_with("}\n"));
        let parsed = crate::value::parse(j1.trim_end()).expect("output must be valid JSON");
        assert_eq!(parsed.get("totals").unwrap().u64_field("hits"), 8);
        assert_eq!(parsed.get("regions").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn region_miss_causes_come_from_the_event_stream() {
        let a = analyze(&sample_data(), 10);
        let r0 = &a.regions[0];
        // 4 misses: 1 cold + 3 mismatch (see sample_data), summing to
        // the region's miss count.
        assert_eq!(r0.miss_causes, [1, 3, 0, 0, 0]);
        assert_eq!(r0.miss_causes.iter().sum::<u64>(), r0.misses);
        let r1 = &a.regions[1];
        assert_eq!(r1.miss_causes, [0; 5]);
        let json = a.to_json();
        assert!(
            json.contains("\"miss_cold\":1,\"miss_mismatch\":3"),
            "{json}"
        );
    }

    #[test]
    fn attribution_section_serializes_when_present() {
        use crate::ingest::{AttrRec, BucketSet, FuncAttrRec, RegionCycles};
        let mut data = sample_data();
        let a = analyze(&data, 10);
        // Unprofiled source: explicit nulls keep the key present.
        assert!(a
            .to_json()
            .contains("\"attribution\":{\"base\":null,\"ccr\":null}"));
        data.report.ccr.attribution = Some(AttrRec {
            total: BucketSet {
                issue: 500,
                fetch: 100,
                memory: 150,
                reuse_hit: 30,
                drain: 20,
            },
            functions: vec![FuncAttrRec {
                name: "main".into(),
                cycles: 800,
                buckets: BucketSet {
                    issue: 500,
                    fetch: 100,
                    memory: 150,
                    reuse_hit: 30,
                    drain: 20,
                },
            }],
            regions: vec![RegionCycles {
                region: 0,
                cycles: 90,
            }],
        });
        let a = analyze(&data, 10);
        let json = a.to_json();
        assert!(
            json.contains("\"attribution\":{\"base\":null,\"ccr\":{\"total\":{\"issue\":500,"),
            "{json}"
        );
        assert!(json.contains("\"cycles\":800"), "{json}");
        let parsed = crate::value::parse(json.trim_end()).unwrap();
        let ccr = parsed.get("attribution").unwrap().get("ccr").unwrap();
        assert_eq!(ccr.u64_field("cycles"), 800);
        let s = a.summary();
        assert!(s.contains("attr (ccr) : 800 cycles = issue 500"), "{s}");
        assert!(s.contains("1 cold, 3 mismatch"), "{s}");
    }

    #[test]
    fn summary_mentions_the_key_numbers() {
        let a = analyze(&sample_data(), 10);
        let s = a.summary();
        assert!(s.contains("speedup 1.250x"), "{s}");
        assert!(s.contains("12 lookups"), "{s}");
        assert!(s.contains("hottest by instructions saved"), "{s}");
        assert!(s.contains("config 00ff00ff00ff00ff"), "{s}");
    }
}
