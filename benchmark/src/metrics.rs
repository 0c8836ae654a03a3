//! Every metric the benchmark prints: name, unit, direction, and the
//! regression bound. `BENCHMARK.json` at the repository root lists the
//! end-to-end and per-layer rows of this table (a unit test keeps the
//! two in step).

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Measured untraced on every workload; gated by its bound.
    EndToEnd,
    /// End-to-end, but zero by design (failures) or measured on some
    /// workloads only; printed and repeat-checked, not part of the
    /// machine-readable result.
    Extra,
    /// Per-layer, from the traced run; no bound. Those measured on some
    /// workloads only are printed, not part of the machine-readable
    /// result.
    Layer,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the median by which the metric may worsen before it
    /// counts as a regression (`Some(0.0)` for failure counts: any
    /// increase is one).
    pub bound: Option<f64>,
    /// An allowance in the metric's own unit below which the bound never
    /// falls: a shift smaller than this is no regression, however small
    /// the median. Zero for most metrics.
    pub floor: f64,
    pub kind: Kind,
    /// The workloads that measure it; empty for every workload.
    pub only: &'static [&'static str],
}

impl MetricDef {
    /// Whether `BENCHMARK.json` lists it and the machine-readable result
    /// line carries it: an end-to-end or per-layer metric that every
    /// workload measures.
    pub fn listed(&self) -> bool {
        self.kind != Kind::Extra && self.only.is_empty()
    }

    pub fn measured_on(&self, workload: &str) -> bool {
        self.only.is_empty() || self.only.contains(&workload)
    }

    /// How far the metric may move from `median` before the move counts:
    /// the bound's share of it, but never less than the floor.
    pub fn allowance(&self, median: f64) -> f64 {
        (self.bound.unwrap_or(0.0) * median.abs()).max(self.floor)
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        floor: 0.0,
        kind: Kind::EndToEnd,
        only: &[],
    }
}

const fn with_floor(def: MetricDef, floor: f64) -> MetricDef {
    MetricDef { floor, ..def }
}

const fn extra(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    only: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        floor: 0.0,
        kind: Kind::Extra,
        only,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    layer_on(name, unit, better, &[])
}

const fn layer_on(
    name: &'static str,
    unit: &'static str,
    better: Better,
    only: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        floor: 0.0,
        kind: Kind::Layer,
        only,
    }
}

use Better::{Higher, Lower};

const SWEEP: &[&str] = &["sweep"];
const DESIGN_SPACE: &[&str] = &["design-space"];
const SERVE: &[&str] = &["serve"];
/// The workloads that run an `Engine`.
const ENGINE: &[&str] = &["sweep", "serve"];

/// Timing bounds are three times the widest interquartile spread seen
/// over ten seeded runs of one commit, rounded up: up to 5.4% of the
/// median for the timings scaled to the reference speed, on a 2-vCPU
/// virtual machine shared with other tenants (README.md, "Bounds").
/// Set-up takes milliseconds on three workloads, where a share of the
/// median is below what scheduling moves it by; its bound is 25% or
/// 50 ms, whichever is larger.
pub const METRICS: &[MetricDef] = &[
    e2e("wall_s", "s", Lower, 0.2),
    with_floor(e2e("setup_s", "s", Lower, 0.25), 0.05),
    e2e("peak_rss_mb", "MB", Lower, 0.05),
    extra("ops_failed_frac", "frac", Lower, 0.0, &[]),
    extra("sim_mcycles_per_s", "Mcycles/s", Higher, 0.2, DESIGN_SPACE),
    extra("req_p50_ms", "ms", Lower, 0.2, SERVE),
    extra("req_p90_ms", "ms", Lower, 0.2, SERVE),
    extra("points_per_s", "1/s", Higher, 0.2, SERVE),
    // Compile stages, replayed through the public pieces of compile_ccr.
    layer("opt.optimize_ms", "ms", Lower),
    layer("opt.instrs_removed", "count", Higher),
    layer("profile.rps_ms", "ms", Lower),
    layer("profile.rps_ns_per_instr", "ns/instr", Lower),
    layer("compile.trial_ms", "ms", Lower),
    layer("compile.trial_demoted", "count", Lower),
    layer("regions.form_ms", "ms", Lower),
    layer("regions.candidates", "count", Lower),
    layer("regions.accepted", "count", Higher),
    layer("regions.annotate_ms", "ms", Lower),
    // Compile totals.
    layer("compile.units", "count", Lower),
    layer("compile.ms", "ms", Lower),
    layer("compile.distinct_profiles", "count", Lower),
    layer("compile.stage_coverage", "frac", Higher),
    // Emulator and pipeline.
    layer("profile.emu_ms", "ms", Lower),
    layer("profile.emu_instrs", "count", Lower),
    layer("profile.emu_ns_per_instr", "ns/instr", Lower),
    layer("sim.emu_ms", "ms", Lower),
    layer("sim.pipeline_ms", "ms", Lower),
    layer("sim.cycles", "count", Lower),
    layer("sim.pipeline_ns_per_cycle", "ns/cycle", Lower),
    // CRB.
    layer("sim.crb_ms", "ms", Lower),
    layer("sim.crb_lookups", "count", Lower),
    layer("sim.crb_hit_ratio", "frac", Higher),
    layer("sim.crb_ns_per_lookup", "ns/lookup", Lower),
    // Simulation units.
    layer("sim.base_units", "count", Lower),
    layer("sim.base_ms", "ms", Lower),
    layer("sim.base_duplicate", "count", Lower),
    layer("sim.ccr_units", "count", Lower),
    layer("sim.ccr_ms", "ms", Lower),
    layer("sim.layer_coverage", "frac", Higher),
    // Potential study, planner, renderer.
    layer_on("profile.potential_ms", "ms", Lower, SWEEP),
    layer_on("exp.plan_ms", "ms", Lower, SWEEP),
    layer_on("exp.render_ms", "ms", Lower, SWEEP),
    // Engine.
    layer_on("engine.compile_cache_hit_ratio", "frac", Higher, ENGINE),
    layer_on("engine.result_cache_hit_ratio", "frac", Higher, ENGINE),
    layer_on("engine.result_cache_evictions", "count", Lower, ENGINE),
    layer_on("engine.overhead_ms", "ms", Lower, SWEEP),
    // Service.
    layer_on("serve.exec_ms_p50", "ms", Lower, SERVE),
    layer_on("serve.queue_wait_ms_p50", "ms", Lower, SERVE),
    layer_on("serve.queue_wait_ms_p90", "ms", Lower, SERVE),
    layer_on("serve.polls", "count", Lower, SERVE),
    // Workload build and the tracer itself.
    layer("workloads.build_ms", "ms", Lower),
    layer("trace.overhead_frac", "frac", Lower),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// The metrics of `kind` that `BENCHMARK.json` lists, in its order.
pub fn listed(kind: Kind) -> impl Iterator<Item = &'static MetricDef> {
    METRICS.iter().filter(move |m| m.kind == kind && m.listed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr::telemetry::value::{self, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        value::parse(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_lists_this_table() {
        let doc = benchmark_json();
        for (key, kind) in [("end_to_end", Kind::EndToEnd), ("per_layer", Kind::Layer)] {
            let entries = doc.get(key).and_then(Value::as_arr).expect(key);
            let ours: Vec<&MetricDef> = listed(kind).collect();
            assert_eq!(entries.len(), ours.len(), "{key} count");
            for (entry, def) in entries.iter().zip(ours) {
                assert_eq!(entry.str_field("name"), def.name);
                assert_eq!(entry.str_field("unit"), def.unit, "{}", def.name);
                assert_eq!(
                    entry.str_field("better"),
                    def.better.as_str(),
                    "{}",
                    def.name
                );
                if let Some(bound) = def.bound {
                    assert_eq!(entry.f64_field("bound"), bound, "{}", def.name);
                }
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.str_field("name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn allowance_is_the_bound_share_or_the_floor() {
        let setup = find("setup_s").expect("setup_s");
        assert_eq!(setup.allowance(4.0), 1.0);
        assert_eq!(setup.allowance(0.004), 0.05);
        let wall = find("wall_s").expect("wall_s");
        assert_eq!(wall.allowance(0.5), 0.1);
        assert_eq!(
            find("ops_failed_frac").expect("failures").allowance(0.5),
            0.0
        );
    }

    #[test]
    fn setup_bound_is_the_largest_and_names_are_unique() {
        let setup = find("setup_s").and_then(|m| m.bound).expect("setup_s");
        for m in METRICS.iter().filter(|m| m.kind == Kind::EndToEnd) {
            assert!(m.listed(), "{} is measured on every workload", m.name);
            assert!(m.bound.expect("bounded") <= setup, "{}", m.name);
        }
        let mut names: Vec<&str> = METRICS.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), METRICS.len());
    }
}
