//! Soundness of the baseline simulation key: a program without reuse
//! regions never reads the machine knobs that
//! `MachineConfig::baseline_fields` leaves out, so every workload's
//! optimized baseline simulates identically under any values of them.

use ccr_opt::{optimize, OptConfig};
use ccr_profile::EmuConfig;
use ccr_sim::{simulate, MachineConfig};
use ccr_workloads::{build, InputSet, NAMES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn baselines_ignore_the_reuse_only_machine_knobs() {
    let paper = MachineConfig::paper();
    let emu = EmuConfig::default();
    let mut rng = StdRng::seed_from_u64(0x0bad_5eed);
    for name in NAMES {
        let mut program = build(name, InputSet::Train, 1).expect("registered workload");
        optimize(&mut program, OptConfig::default());
        let expected = simulate(&program, &paper, None, emu).expect("within limits");
        for _ in 0..3 {
            let machine = MachineConfig {
                reuse_hit_latency: rng.random_range(0..64u64),
                reuse_miss_penalty: rng.random_range(0..64u64),
                speculative_validation: rng.random_bool(0.5),
                ..paper
            };
            assert_eq!(machine.baseline_fields(), paper.baseline_fields());
            let got = simulate(&program, &machine, None, emu).expect("within limits");
            assert_eq!(got.stats, expected.stats, "{name} under {machine:?}");
            assert_eq!(got.run.returned, expected.run.returned, "{name}");
        }
    }
}
