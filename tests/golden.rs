//! Golden-fixture test: a hand-written `.ccr` program with pinned
//! functional results. Catches any silent drift in parser, emulator
//! arithmetic, memory model, or call semantics.
//!
//! The fixture multiplies a read-only weight table against evolving
//! cell values across 50 call-bearing iterations; the huge checksum
//! value exercises wrapping multiplication. If a deliberate semantic
//! change invalidates these numbers, update them with the reasoning
//! recorded in the commit.

use ccr::profile::{EmuConfig, Emulator, NullCrb, NullSink};
use ccr::sim::{simulate, MachineConfig};

const FIXTURE: &str = include_str!("fixtures/sum_scan.ccr");

#[test]
fn fixture_parses_verifies_and_matches_pinned_results() {
    let p = ccr::ir::parse_program(FIXTURE).unwrap();
    ccr::ir::verify_program(&p).unwrap();
    let out = Emulator::new(&p).run(&mut NullCrb, &mut NullSink).unwrap();
    assert_eq!(
        out.returned
            .iter()
            .map(|v| v.as_int())
            .collect::<Vec<i64>>(),
        vec![1_072_964_355_750_749_574, 50],
        "functional semantics drifted"
    );
    assert_eq!(out.dyn_instrs, 2554, "dynamic instruction count drifted");
}

#[test]
fn fixture_timing_stays_in_band() {
    // The exact cycle count (3269 when pinned) may legitimately move
    // with deliberate timing-model changes; a band catches accidental
    // order-of-magnitude regressions without freezing the model.
    let p = ccr::ir::parse_program(FIXTURE).unwrap();
    let sim = simulate(&p, &MachineConfig::paper(), None, EmuConfig::default()).unwrap();
    assert!(
        (1500..=6000).contains(&sim.stats.cycles),
        "baseline cycles left the expected band: {}",
        sim.stats.cycles
    );
    // Structural floor: 2554 instructions on a 6-wide machine.
    assert!(sim.stats.cycles >= 2554 / 6);
}

#[test]
fn fixture_round_trips() {
    let p = ccr::ir::parse_program(FIXTURE).unwrap();
    let reprinted = p.to_string();
    let q = ccr::ir::parse_program(&reprinted).unwrap();
    assert_eq!(q.to_string(), reprinted);
}
