//! Per-layer metrics, computed from the traced run's spans so every
//! number can be re-derived from `trace.jsonl`.

use std::collections::HashSet;

use crate::stats::percentile;
use crate::trace::{self_times, Span};

/// Values only a workload itself can supply; zero where the workload
/// does not exercise the layer.
#[derive(Default)]
pub struct Given {
    pub distinct_profiles: u64,
    pub base_duplicate: u64,
    pub compile_cache: (u64, u64),
    pub result_cache: (u64, u64),
    pub result_cache_evictions: u64,
    pub engine_overhead_ms: f64,
    pub untraced_wall_s: f64,
    pub traced_wall_s: f64,
}

struct Sums<'a> {
    spans: &'a [Span],
}

impl Sums<'_> {
    fn named<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'s Span> + 's {
        self.spans.iter().filter(move |s| s.name == name)
    }

    fn count(&self, name: &str) -> f64 {
        self.named(name).count() as f64
    }

    fn ms(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.dur_ns() as f64).sum::<f64>() / 1e6
    }

    fn field(&self, name: &str, key: &str) -> f64 {
        self.named(name)
            .flat_map(|s| s.counts.iter().filter(|(k, _)| *k == key).map(|(_, v)| *v))
            .sum()
    }

    /// True when every replay span of `name` reproduced its real call.
    fn all_ok(&self, name: &str) -> bool {
        self.named(name)
            .all(|s| s.counts.iter().any(|&(k, v)| k == "ok" && v == 1.0))
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every per-layer metric, in `metrics::METRICS` order.
pub fn compute(spans: &[Span], given: &Given) -> Vec<(&'static str, Option<f64>)> {
    let s = Sums { spans };
    let selves = self_times(spans);
    let stage_self_ms =
        |name: &str| s.named(name).map(|sp| selves[&sp.id] as f64).sum::<f64>() / 1e6;
    let compile_ok = s.all_ok("compile.replay");
    let sim_ok = s.all_ok("sim.replay");
    let when = |ok: bool, v: f64| ok.then_some(v);

    let compile_ms = s.ms("compile");
    let emu_ms = s.ms("profile.emu");
    let emu_instrs = s.field("profile.emu", "instrs");
    let rps_ms = s.ms("profile.run") - emu_ms;
    let stages_ms: f64 = [
        "opt.optimize",
        "profile.run",
        "regions.form",
        "compile.trial",
        "regions.annotate",
    ]
    .iter()
    .map(|n| stage_self_ms(n))
    .sum();

    let base_ms = s.ms("sim.base");
    let ccr_ms = s.ms("sim.ccr");
    let crb_ns = s.field("sim.replay", "crb_ns");
    let sim_emu_ms = s.ms("sim.emu") - s.field("sim.emu", "crb_ns") / 1e6;
    let pipeline_ms = s.ms("sim.replay") - s.ms("sim.emu");
    let cycles = s.field("sim.replay", "cycles");
    let lookups = s.field("sim.replay", "lookups");

    let requests: Vec<&Span> = s.named("serve.request").collect();
    let exec_ms: Vec<f64> = requests.iter().map(|r| s_field(r, "server_ms")).collect();
    let waits: Vec<f64> = requests
        .iter()
        .map(|r| r.dur_ns() as f64 / 1e6 - s_field(r, "server_ms"))
        .collect();

    let (ch, cm) = given.compile_cache;
    let (rh, rm) = given.result_cache;
    vec![
        ("opt.optimize_ms", when(compile_ok, s.ms("opt.optimize"))),
        (
            "opt.instrs_removed",
            Some(s.field("compile", "instrs_removed")),
        ),
        ("profile.rps_ms", when(compile_ok, rps_ms)),
        (
            "profile.rps_ns_per_instr",
            when(
                compile_ok,
                ratio(rps_ms * 1e6, s.field("profile.run", "instrs")),
            ),
        ),
        ("compile.trial_ms", when(compile_ok, s.ms("compile.trial"))),
        ("compile.trial_demoted", Some(s.field("compile", "demoted"))),
        ("regions.form_ms", when(compile_ok, s.ms("regions.form"))),
        ("regions.candidates", Some(s.field("compile", "candidates"))),
        ("regions.accepted", Some(s.field("compile", "accepted"))),
        (
            "regions.annotate_ms",
            when(compile_ok, s.ms("regions.annotate")),
        ),
        ("compile.units", Some(s.count("compile"))),
        ("compile.ms", Some(compile_ms)),
        (
            "compile.distinct_profiles",
            Some(given.distinct_profiles as f64),
        ),
        (
            "compile.stage_coverage",
            when(compile_ok, ratio(stages_ms, compile_ms)),
        ),
        ("profile.emu_ms", when(compile_ok, emu_ms)),
        ("profile.emu_instrs", when(compile_ok, emu_instrs)),
        (
            "profile.emu_ns_per_instr",
            when(compile_ok, ratio(emu_ms * 1e6, emu_instrs)),
        ),
        ("sim.emu_ms", when(sim_ok, sim_emu_ms)),
        ("sim.pipeline_ms", when(sim_ok, pipeline_ms)),
        ("sim.cycles", when(sim_ok, cycles)),
        (
            "sim.pipeline_ns_per_cycle",
            when(sim_ok, ratio(pipeline_ms * 1e6, cycles)),
        ),
        ("sim.crb_ms", when(sim_ok, crb_ns / 1e6)),
        ("sim.crb_lookups", when(sim_ok, lookups)),
        (
            "sim.crb_hit_ratio",
            when(sim_ok, ratio(s.field("sim.replay", "hits"), lookups)),
        ),
        (
            "sim.crb_ns_per_lookup",
            when(sim_ok, ratio(crb_ns, lookups)),
        ),
        ("sim.base_units", Some(s.count("sim.base"))),
        ("sim.base_ms", Some(base_ms)),
        ("sim.base_duplicate", Some(given.base_duplicate as f64)),
        ("sim.ccr_units", Some(s.count("sim.ccr"))),
        ("sim.ccr_ms", Some(ccr_ms)),
        (
            "sim.layer_coverage",
            when(
                sim_ok,
                ratio(sim_emu_ms + crb_ns / 1e6 + pipeline_ms, base_ms + ccr_ms),
            ),
        ),
        ("profile.potential_ms", Some(s.ms("profile.potential"))),
        ("exp.plan_ms", Some(s.ms("exp.plan"))),
        ("exp.render_ms", Some(s.ms("exp.render"))),
        (
            "engine.compile_cache_hit_ratio",
            Some(ratio(ch as f64, (ch + cm) as f64)),
        ),
        (
            "engine.result_cache_hit_ratio",
            Some(ratio(rh as f64, (rh + rm) as f64)),
        ),
        (
            "engine.result_cache_evictions",
            Some(given.result_cache_evictions as f64),
        ),
        ("engine.overhead_ms", Some(given.engine_overhead_ms)),
        ("serve.exec_ms_p50", percentile(&exec_ms, 0.5)),
        ("serve.queue_wait_ms_p50", percentile(&waits, 0.5)),
        ("serve.queue_wait_ms_p90", percentile(&waits, 0.9)),
        ("serve.polls", Some(s.field("serve.request", "polls"))),
        ("workloads.build_ms", Some(s.ms("workloads.build"))),
        (
            "trace.overhead_frac",
            Some(given.traced_wall_s / given.untraced_wall_s - 1.0),
        ),
    ]
}

fn s_field(span: &Span, key: &str) -> f64 {
    span.counts
        .iter()
        .find(|(k, _)| *k == key)
        .map_or(0.0, |(_, v)| *v)
}

/// How many baselines produced the same statistics as another baseline
/// of the same program (a digest per `(program key, stats)` pair).
pub fn duplicates(base_digests: &[(String, String)]) -> u64 {
    let mut seen = HashSet::new();
    base_digests.iter().filter(|d| !seen.insert(*d)).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Kind, METRICS};

    #[test]
    fn layer_list_follows_the_metric_table() {
        let given = Given {
            untraced_wall_s: 1.0,
            traced_wall_s: 1.0,
            ..Given::default()
        };
        let names: Vec<&str> = compute(&[], &given).iter().map(|(n, _)| *n).collect();
        let table: Vec<&str> = METRICS
            .iter()
            .filter(|m| m.kind == Kind::Layer)
            .map(|m| m.name)
            .collect();
        assert_eq!(names, table);
    }

    #[test]
    fn duplicate_baselines_are_counted_per_program() {
        let d = |p: &str, s: &str| (p.to_string(), s.to_string());
        let digests = [
            d("a", "x"),
            d("a", "x"),
            d("a", "y"),
            d("b", "x"),
            d("a", "x"),
        ];
        assert_eq!(duplicates(&digests), 2);
    }
}
