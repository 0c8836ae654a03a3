#![warn(missing_docs)]

//! # ccr-workloads — the benchmark suite
//!
//! The paper evaluates on SPECINT92/95, UNIX, and MediaBench programs.
//! Those binaries (and their inputs) cannot be run on our IR, so this
//! crate provides thirteen synthetic programs — one per paper
//! benchmark — each engineered to exhibit the *kind* and *amount* of
//! value locality the paper reports for its namesake:
//!
//! | name | character |
//! |---|---|
//! | `008.espresso` | bit-count macro + cube set operations over pooled words (high block-level reuse, stateless) |
//! | `072.sc` | spreadsheet formula re-evaluation over rarely-changing cells (memory-dependent) |
//! | `099.go` | board evaluation with data-dependent branching (little reuse — the paper's worst case) |
//! | `124.m88ksim` | `ckbrkpts`-style breakpoint-table scan + decode lookup (the paper's best case) |
//! | `126.gcc` | hash-and-dispatch over a token stream (many small regions) |
//! | `129.compress` | LZW-style hashing with an evolving dictionary (flat reuse distribution) |
//! | `130.li` | s-expression evaluator over repeated small forms |
//! | `132.ijpeg` | 8-point DCT over images with repeated flat rows |
//! | `147.vortex` | object-validation chains against schema tables |
//! | `lex` | character-class scanner over repetitive text |
//! | `yacc` | LR action-table walker over a small token vocabulary |
//! | `mpeg2enc` | quantization of mostly-zero coefficient blocks |
//! | `pgpencode` | modular-arithmetic stream with a wide value set (needs many computation instances) |
//!
//! Two input sets are generated per benchmark ([`InputSet::Train`] and
//! [`InputSet::Ref`]) from different seeds, preserving each program's
//! locality *character* while changing the concrete values — exactly
//! the situation Figure 11 of the paper examines.

use ccr_ir::Program;

mod bitcount;
mod compress;
mod espresso;
mod gcc;
mod go;
mod ijpeg;
mod lex;
mod li;
mod m88ksim;
mod mpeg2enc;
mod pgpencode;
mod sc;
mod util;
mod vortex;
mod yacc;

/// Which input data set to generate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum InputSet {
    /// The profiling ("training") input.
    #[default]
    Train,
    /// The evaluation ("reference") input.
    Ref,
}

impl InputSet {
    /// Seed material distinguishing the two input sets.
    pub fn seed(self) -> u64 {
        match self {
            InputSet::Train => 0x7261_696e,
            InputSet::Ref => 0x5245_4631,
        }
    }

    /// The set's name in flags, cache keys and records: `train` or
    /// `ref`.
    pub fn name(self) -> &'static str {
        match self {
            InputSet::Train => "train",
            InputSet::Ref => "ref",
        }
    }

    /// Parses an [`InputSet::name`]; `None` for any other string.
    pub fn from_name(name: &str) -> Option<InputSet> {
        [InputSet::Train, InputSet::Ref]
            .into_iter()
            .find(|i| i.name() == name)
    }
}

/// A named, ready-to-run benchmark program.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Paper benchmark name.
    pub name: &'static str,
    /// The program with its input data image installed.
    pub program: Program,
}

/// The thirteen benchmark names, in the paper's presentation order.
pub const NAMES: [&str; 13] = [
    "008.espresso",
    "072.sc",
    "099.go",
    "124.m88ksim",
    "126.gcc",
    "129.compress",
    "130.li",
    "132.ijpeg",
    "147.vortex",
    "lex",
    "yacc",
    "mpeg2enc",
    "pgpencode",
];

/// Builds one benchmark. `scale` multiplies the main driver's trip
/// count (1 ≈ a few hundred thousand dynamic instructions).
///
/// Besides the thirteen [`NAMES`], accepts `bitcount` — a tiny
/// Figure 2 smoke workload for CI and telemetry fixtures that is not
/// part of the measured suite.
///
/// Returns `None` for unknown names.
pub fn build(name: &str, input: InputSet, scale: u32) -> Option<Program> {
    let scale = scale.max(1);
    Some(match name {
        "bitcount" => bitcount::build(input, scale),
        "008.espresso" => espresso::build(input, scale),
        "072.sc" => sc::build(input, scale),
        "099.go" => go::build(input, scale),
        "124.m88ksim" => m88ksim::build(input, scale),
        "126.gcc" => gcc::build(input, scale),
        "129.compress" => compress::build(input, scale),
        "130.li" => li::build(input, scale),
        "132.ijpeg" => ijpeg::build(input, scale),
        "147.vortex" => vortex::build(input, scale),
        "lex" => lex::build(input, scale),
        "yacc" => yacc::build(input, scale),
        "mpeg2enc" => mpeg2enc::build(input, scale),
        "pgpencode" => pgpencode::build(input, scale),
        _ => return None,
    })
}

/// Builds the whole suite.
pub fn all(input: InputSet, scale: u32) -> Vec<Workload> {
    NAMES
        .iter()
        .map(|name| Workload {
            name,
            program: build(name, input, scale).expect("known name"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_profile::{EmuConfig, Emulator, NullCrb, NullSink};

    #[test]
    fn input_set_names_round_trip() {
        for input in [InputSet::Train, InputSet::Ref] {
            assert_eq!(InputSet::from_name(input.name()), Some(input));
        }
        assert_eq!(InputSet::from_name("Train"), None);
    }

    #[test]
    fn every_benchmark_builds_verifies_and_runs() {
        for name in NAMES {
            let p = build(name, InputSet::Train, 1).unwrap();
            ccr_ir::verify_program(&p).unwrap_or_else(|e| panic!("{name}: {e}"));
            let out = Emulator::with_config(
                &p,
                EmuConfig {
                    max_instrs: 20_000_000,
                    max_depth: 256,
                },
            )
            .run(&mut NullCrb, &mut NullSink)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                out.dyn_instrs > 10_000,
                "{name} too small: {} instrs",
                out.dyn_instrs
            );
            assert!(
                out.dyn_instrs < 10_000_000,
                "{name} too large at scale 1: {} instrs",
                out.dyn_instrs
            );
        }
    }

    #[test]
    fn train_and_ref_inputs_differ() {
        for name in NAMES {
            let train = build(name, InputSet::Train, 1).unwrap();
            let reference = build(name, InputSet::Ref, 1).unwrap();
            let run = |p: &Program| {
                Emulator::with_config(
                    p,
                    EmuConfig {
                        max_instrs: 20_000_000,
                        max_depth: 256,
                    },
                )
                .run(&mut NullCrb, &mut NullSink)
                .unwrap()
                .returned
            };
            assert_ne!(run(&train), run(&reference), "{name} inputs identical");
        }
    }

    #[test]
    fn scale_increases_work() {
        let small = build("008.espresso", InputSet::Train, 1).unwrap();
        let big = build("008.espresso", InputSet::Train, 3).unwrap();
        let count = |p: &Program| {
            Emulator::new(p)
                .run(&mut NullCrb, &mut NullSink)
                .unwrap()
                .dyn_instrs
        };
        assert!(count(&big) > count(&small) * 2);
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(build("999.nope", InputSet::Train, 1).is_none());
    }

    #[test]
    fn bitcount_smoke_workload_builds_but_stays_out_of_the_suite() {
        assert!(!NAMES.contains(&"bitcount"));
        let p = build("bitcount", InputSet::Train, 1).unwrap();
        ccr_ir::verify_program(&p).unwrap();
        let out = Emulator::new(&p).run(&mut NullCrb, &mut NullSink).unwrap();
        assert!(out.dyn_instrs > 1_000, "{}", out.dyn_instrs);
        assert!(out.dyn_instrs < 100_000, "{}", out.dyn_instrs);
        let reference = build("bitcount", InputSet::Ref, 1).unwrap();
        let ref_out = Emulator::new(&reference)
            .run(&mut NullCrb, &mut NullSink)
            .unwrap();
        assert_ne!(out.returned, ref_out.returned);
    }

    #[test]
    fn all_builds_thirteen() {
        let suite = all(InputSet::Train, 1);
        assert_eq!(suite.len(), 13);
        let names: Vec<&str> = suite.iter().map(|w| w.name).collect();
        assert_eq!(names, NAMES.to_vec());
    }
}
