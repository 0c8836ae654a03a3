//! Experiment-engine equivalence tests.
//!
//! Two contracts are pinned here:
//!
//! 1. **Bit-identity**: `ccr exp <name>` renders byte-for-byte what
//!    the legacy per-figure binary printed — checked against the
//!    committed `results/` tables (which are exactly that stdout).
//! 2. **Deduplication**: the planner simulates each distinct
//!    (workload, region, machine, CRB) point exactly once across
//!    specs, never re-compiles a (workload, region-config) pair, keys
//!    baselines only on the machine fields a baseline can observe, and
//!    the compile cache value-profiles each workload once for all of
//!    its region configurations — without changing any rendered
//!    number or compiled program.

use ccr::regions::RegionConfig;
use ccr::sim::{CrbConfig, MachineConfig};
use ccr::workloads::InputSet;
use ccr_bench::exp::{self, specs};
use ccr_bench::Engine;

fn render(name: &str) -> String {
    let spec = specs::find(name).expect("known spec");
    let plan = exp::plan(&[&spec]);
    let executed = Engine::new(0)
        .execute_plan(&plan, &ccr::Harness::disabled(), None, None)
        .expect("known workloads, within limits");
    executed.results(&spec).render().text
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn exp_fig4_matches_committed_table() {
    assert_eq!(
        render("fig4"),
        include_str!("../results/fig4_potential.txt"),
        "engine output for fig4 diverged from the legacy binary's table"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn exp_fig8a_matches_committed_table() {
    assert_eq!(
        render("fig8a"),
        include_str!("../results/fig8a_instances.txt"),
        "engine output for fig8a diverged from the legacy binary's table"
    );
}

#[test]
fn registry_resolves_short_and_legacy_names() {
    let registry = specs::registry();
    assert_eq!(registry.len(), 8);
    for spec in &registry {
        assert!(specs::find(spec.name).is_some(), "{} by name", spec.name);
        assert!(
            specs::find(spec.output).is_some(),
            "{} by legacy binary name",
            spec.output
        );
    }
    assert!(specs::find("no_such_experiment").is_none());
}

#[test]
fn planner_dedupes_across_the_fig8_family() {
    let a = specs::fig8a();
    let b = specs::fig8b();
    let g = specs::fig9();
    let stats = exp::plan(&[&a, &b, &g]).stats;
    // 13 workloads × (3 + 3 + 1) scenarios.
    assert_eq!(stats.requested_points, 91);
    // Compiles depend only on the region config: fig8a's instance
    // sweep varies `trial_instances` (3 distinct configs), while all
    // of fig8b's entry sweep and fig9 reuse the 8-instance config.
    assert_eq!(stats.unique_compiles, 3 * 13);
    assert_eq!(stats.deduped_compiles, 4 * 13);
    // Baselines ignore the region config entirely (one per workload);
    // CCR points: 4/8/16 CI plus 32e/64e (128e/8CI is fig8a's middle
    // column, and fig9's paper CRB is the same point again).
    assert_eq!(stats.unique_sims, 13 * (1 + 5));
    assert_eq!(stats.deduped_sims, 2 * 91 - 13 * 6);
    assert!(stats.deduped_sims > 0);
}

static TINY_WORKLOADS: [&str; 1] = ["bitcount"];

fn tiny_render(res: &exp::SpecResults<'_>) -> exp::Rendered {
    exp::Rendered {
        text: format!("{:.4}\n", res.runs(0)[0].measurement.speedup()),
        tables: Vec::new(),
    }
}

fn tiny_spec(name: &'static str) -> exp::ExperimentSpec {
    exp::ExperimentSpec {
        name,
        output: name,
        title: "planner test spec",
        workloads: &TINY_WORKLOADS,
        scenarios: vec![exp::Scenario::new(
            "paper",
            InputSet::Train,
            &RegionConfig::paper(),
            &MachineConfig::paper(),
            CrbConfig::paper(),
        )],
        potential: false,
        render: tiny_render,
    }
}

#[test]
fn shared_point_across_two_specs_runs_exactly_once() {
    let a = tiny_spec("tiny_a");
    let b = tiny_spec("tiny_b");
    let plan = exp::plan(&[&a, &b]);
    assert_eq!(plan.stats.requested_points, 2);
    assert_eq!(plan.stats.unique_compiles, 1);
    assert_eq!(plan.stats.deduped_compiles, 1);
    // One baseline + one CCR simulation serve both specs.
    assert_eq!(plan.stats.unique_sims, 2);
    assert_eq!(plan.stats.deduped_sims, 2);
    let executed = Engine::new(1)
        .execute_plan(&plan, &ccr::Harness::disabled(), None, None)
        .expect("bitcount runs within limits");
    let ra = executed.results(&a).render().text;
    let rb = executed.results(&b).render().text;
    assert_eq!(ra, rb, "both specs must see the same shared measurement");
    let speedup: f64 = ra.trim().parse().expect("rendered speedup");
    assert!(speedup > 0.5, "implausible speedup {speedup}");
}

#[test]
fn point_summaries_flatten_each_unique_ccr_point_once() {
    let a = tiny_spec("tiny_a");
    let b = tiny_spec("tiny_b");
    let plan = exp::plan(&[&a, &b]);
    let executed = Engine::new(1)
        .execute_plan(&plan, &ccr::Harness::disabled(), None, None)
        .expect("bitcount runs within limits");
    let points = executed.records();
    // The two specs share one (workload, config) point: one summary.
    assert_eq!(points.len(), 1);
    let p = &points[0];
    assert_eq!(p.workload, "bitcount");
    assert_eq!(p.input, "train");
    assert_eq!(
        p.config_hash,
        ccr::config_hash(&MachineConfig::paper(), &CrbConfig::paper()),
        "summary must carry the PR-2 config hash of its point"
    );
    assert!(p.base_cycles > 0 && p.ccr_cycles > 0);
    let expected = p.base_cycles as f64 / p.ccr_cycles as f64;
    assert!((p.speedup - expected).abs() < 1e-12);
    assert!((0.0..=1.0).contains(&p.hit_rate));
    assert!(p.regions > 0, "paper config must form regions on bitcount");
    let misses: u64 = p.miss_causes.iter().sum();
    assert!(
        p.hit_rate < 1.0 || misses == 0,
        "a perfect hit rate cannot coexist with classified misses"
    );
}

#[test]
fn full_registry_plan_pins_compile_profile_and_sim_counts() {
    let registry = specs::registry();
    let plan = exp::plan(&registry.iter().collect::<Vec<_>>());
    let stats = &plan.stats;
    assert_eq!(stats.unique_compiles, 117);
    // Every region configuration and both target inputs of a workload
    // share one value profile.
    assert_eq!(stats.value_profiles, 13);
    // Baselines: the paper machine per workload and input (13 x 2),
    // plus the three non-paper widths (13 x 3). The penalty and
    // speculative-validation machines reuse the paper baseline.
    assert_eq!(stats.base_sims, 65);
    assert_eq!(stats.unique_sims - stats.base_sims, 286);
    if cfg!(debug_assertions) {
        // Executing the registry is release-only, like the table tests.
        return;
    }
    // Executed, the 351 sims take one functional run per distinct
    // (program, emulator limits, CRB): one baseline build per workload
    // and input, whatever the machine, and 164 CCR runs, since the
    // 117 compiles yield fewer distinct annotated programs and the
    // machine-only scenarios share theirs.
    let executed = Engine::new(0)
        .execute_plan(&plan, &ccr::Harness::disabled(), None, None)
        .expect("known workloads, within limits");
    assert_eq!(executed.functional_runs(), (26, 164));
}

#[test]
fn full_registry_plan_pins_every_unit_key() {
    // Checkpoint journals are keyed by these strings: a changed key
    // silently turns every journaled unit of an earlier run into a
    // re-simulation.
    let registry = specs::registry();
    let keys = exp::plan(&registry.iter().collect::<Vec<_>>()).unit_keys();
    assert_eq!(keys.len(), 2 * 117 + 351 + 13);
    assert_eq!(
        ccr::fnv1a_hex(keys.join("\n").as_bytes()),
        "526e061765fc67b5"
    );
}

#[test]
fn ablation_penalty_and_speculation_rows_share_the_paper_baseline() {
    let ablations = specs::ablations();
    let varied: Vec<&MachineConfig> = ablations
        .scenarios
        .iter()
        .map(|sc| &sc.machine)
        .filter(|m| m.fields() != MachineConfig::paper().fields())
        .collect();
    assert!(varied.iter().any(|m| m.reuse_miss_penalty == 0));
    assert!(varied.iter().any(|m| m.speculative_validation));
    // 21 rows over five machines, one baseline per workload.
    let stats = exp::plan(&[&ablations]).stats;
    assert_eq!(stats.base_sims, ablations.workloads.len());
}

fn scenarios_over(regions: &[RegionConfig]) -> Vec<exp::Scenario> {
    regions
        .iter()
        .map(|region| {
            exp::Scenario::new(
                "region",
                InputSet::Train,
                region,
                &MachineConfig::paper(),
                CrbConfig::paper(),
            )
        })
        .collect()
}

#[test]
fn one_value_profile_serves_every_region_config_of_a_workload() {
    let spec = exp::ExperimentSpec {
        scenarios: scenarios_over(&[
            RegionConfig::paper(),
            RegionConfig::block_level(),
            RegionConfig::stateless_only(),
            RegionConfig::with_function_level(),
        ]),
        ..tiny_spec("tiny_profiles")
    };
    let plan = exp::plan(&[&spec]);
    assert_eq!(plan.stats.unique_compiles, 4);
    assert_eq!(plan.stats.value_profiles, 1);
    let executed = Engine::new(2)
        .execute_plan(&plan, &ccr::Harness::disabled(), None, None)
        .expect("bitcount runs within limits");
    assert_eq!(executed.cache_stats(), (0, 4));
    assert_eq!(executed.profile_stats(), (1, 3), "(run, reused)");
}

/// Compiles `name` through one [`ccr_bench::CompileCache`] under every
/// region configuration the registry uses, for both target inputs, and
/// checks each staged compile against a fresh `compile_ccr`.
fn assert_staged_compiles_equal_fresh_ones(name: &str) {
    let paper = RegionConfig::paper();
    let mut regions = vec![
        paper,
        RegionConfig::block_level(),
        RegionConfig::stateless_only(),
        RegionConfig::with_function_level(),
    ];
    for r in [0.50, 0.65, 0.80] {
        regions.push(RegionConfig {
            r_threshold: r,
            rm_threshold: r,
            ..paper
        });
    }
    for trial_instances in [4, 16] {
        regions.push(RegionConfig {
            trial_instances,
            ..paper
        });
    }
    let cache = ccr_bench::CompileCache::new();
    let train = ccr::workloads::build(name, InputSet::Train, 1).expect("workload");
    let mut formed = 0;
    for input in [InputSet::Train, InputSet::Ref] {
        let target = ccr::workloads::build(name, input, 1).expect("workload");
        for region in &regions {
            let config = ccr::CompileConfig {
                region: *region,
                emu: ccr_bench::emu_config(),
                ..ccr::CompileConfig::paper()
            };
            let staged = cache.get_or_compile(name, input, 1, &config).unwrap();
            let fresh = ccr::compile_ccr(&train, &target, &config).unwrap();
            let what = format!("{name} {input:?} {region:?}");
            assert!(staged.base == fresh.base, "base: {what}");
            assert!(staged.annotated == fresh.annotated, "annotated: {what}");
            assert_eq!(staged.regions, fresh.regions, "{what}");
            assert_eq!(
                staged.telemetry.formation, fresh.telemetry.formation,
                "{what}"
            );
            formed += staged.regions.len();
        }
    }
    assert!(formed > 0, "{name} forms regions");
    assert_eq!(cache.profiles_run(), 1, "{name}");
    assert_eq!(cache.profiles_reused(), cache.misses() - 1, "{name}");
}

#[test]
fn staged_compiles_equal_a_fresh_compile_ccr() {
    assert_staged_compiles_equal_fresh_ones("bitcount");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn staged_compiles_equal_a_fresh_compile_ccr_with_memory_dependent_regions() {
    assert_staged_compiles_equal_fresh_ones("124.m88ksim");
}
