//! Machine (processor) configuration.

use ccr_telemetry::record;

use crate::cache::CacheConfig;

/// The modeled processor, defaulting to the paper's evaluation
/// machine (Section 5.1).
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// Instructions issued per cycle.
    pub issue_width: u32,
    /// Integer ALUs (also execute multiplies/divides).
    pub int_alus: u32,
    /// Memory ports shared by loads and stores.
    pub mem_ports: u32,
    /// Floating-point ALUs.
    pub fp_alus: u32,
    /// Branch units (branches, jumps, calls, returns, reuse).
    pub branch_units: u32,
    /// Integer ALU latency (cycles).
    pub int_latency: u64,
    /// Integer multiply/divide latency (HP PA-7100 approximation; the
    /// paper only pins integer = 1 and load = 2).
    pub mul_latency: u64,
    /// Floating-point latency (PA-7100 approximation).
    pub fp_latency: u64,
    /// Load-use latency on a D-cache hit.
    pub load_latency: u64,
    /// Instruction cache.
    pub icache: CacheConfig,
    /// Data cache.
    pub dcache: CacheConfig,
    /// BTB entries (2-bit counters).
    pub btb_entries: usize,
    /// Branch misprediction penalty (cycles).
    pub mispredict_penalty: u64,
    /// Pipeline delay of a successful reuse (CRB access + state read +
    /// validation) before live-outs start committing.
    pub reuse_hit_latency: u64,
    /// Penalty of a failed reuse ("a delay similar to the branch
    /// misprediction penalty").
    pub reuse_miss_penalty: u64,
    /// Value-speculate across reuse validation (the paper's
    /// future-work item: "the use of value speculation techniques to
    /// hide the latency of validating reuse opportunities"). When set,
    /// a hit's live-outs are forwarded without waiting for the input
    /// registers to be architecturally ready; validation completes off
    /// the critical path.
    pub speculative_validation: bool,
}

// The machine as the run report and the config hash write it.
record!(Strict MachineConfig {
    issue_width, int_alus, mem_ports, fp_alus, branch_units, int_latency, mul_latency,
    fp_latency, load_latency, icache, dcache, btb_entries, mispredict_penalty,
    reuse_hit_latency, reuse_miss_penalty, speculative_validation,
});

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::paper()
    }
}

impl MachineConfig {
    /// The paper's 6-issue in-order machine.
    pub fn paper() -> MachineConfig {
        MachineConfig {
            issue_width: 6,
            int_alus: 4,
            mem_ports: 2,
            fp_alus: 2,
            branch_units: 1,
            int_latency: 1,
            mul_latency: 3,
            fp_latency: 2,
            load_latency: 2,
            icache: CacheConfig::paper(),
            dcache: CacheConfig::paper(),
            btb_entries: 4096,
            mispredict_penalty: 8,
            reuse_hit_latency: 2,
            reuse_miss_penalty: 8,
            speculative_validation: false,
        }
    }
}

impl MachineConfig {
    /// The paper machine plus speculative reuse validation.
    pub fn with_speculative_validation() -> MachineConfig {
        MachineConfig {
            speculative_validation: true,
            ..MachineConfig::paper()
        }
    }

    /// Canonical `(field, value)` enumeration of the machine model, in
    /// declaration order (caches flattened as `icache.size_bytes`
    /// etc.).
    ///
    /// The experiment planner keys simulation units by hashing these
    /// pairs and labels sweep axes by diffing them, so the list must
    /// stay exhaustive — a missing field would alias two distinct
    /// machines.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        let mut out = vec![
            ("issue_width", self.issue_width.to_string()),
            ("int_alus", self.int_alus.to_string()),
            ("mem_ports", self.mem_ports.to_string()),
            ("fp_alus", self.fp_alus.to_string()),
            ("branch_units", self.branch_units.to_string()),
            ("int_latency", self.int_latency.to_string()),
            ("mul_latency", self.mul_latency.to_string()),
            ("fp_latency", self.fp_latency.to_string()),
            ("load_latency", self.load_latency.to_string()),
        ];
        for (name, cache) in [
            (
                [
                    "icache.size_bytes",
                    "icache.line_bytes",
                    "icache.miss_penalty",
                ],
                &self.icache,
            ),
            (
                [
                    "dcache.size_bytes",
                    "dcache.line_bytes",
                    "dcache.miss_penalty",
                ],
                &self.dcache,
            ),
        ] {
            out.push((name[0], cache.size_bytes.to_string()));
            out.push((name[1], cache.line_bytes.to_string()));
            out.push((name[2], cache.miss_penalty.to_string()));
        }
        out.extend([
            ("btb_entries", self.btb_entries.to_string()),
            ("mispredict_penalty", self.mispredict_penalty.to_string()),
            ("reuse_hit_latency", self.reuse_hit_latency.to_string()),
            ("reuse_miss_penalty", self.reuse_miss_penalty.to_string()),
            (
                "speculative_validation",
                self.speculative_validation.to_string(),
            ),
        ]);
        out
    }

    /// [`MachineConfig::fields`] minus the knobs only a reuse
    /// instruction reads: the pipeline consults `reuse_hit_latency`,
    /// `reuse_miss_penalty` and `speculative_validation` only on a
    /// reuse outcome, which a program without regions never produces.
    /// Machines with equal baseline fields simulate an unannotated
    /// program identically, so baseline simulations are keyed by this
    /// list; a field added to `fields` joins it by default.
    pub fn baseline_fields(&self) -> Vec<(&'static str, String)> {
        const REUSE_ONLY: [&str; 3] = [
            "reuse_hit_latency",
            "reuse_miss_penalty",
            "speculative_validation",
        ];
        let mut out = self.fields();
        out.retain(|(name, _)| !REUSE_ONLY.contains(name));
        out
    }
}

/// A record's JSON leaves as `(dotted.key, value)` pairs in wire
/// order, string values unquoted: the shape the `fields` lists of the
/// configuration records enumerate.
#[cfg(test)]
pub(crate) fn record_leaves(r: &impl record::Record) -> Vec<(String, String)> {
    let json = record::object(|_| {}, r);
    let (mut out, mut path, mut key) = (Vec::new(), Vec::new(), None);
    let mut rest = json.as_str();
    // The configuration records hold objects and scalars only: no
    // array, and no quote or comma inside a value.
    while let Some(c) = rest.chars().next() {
        match c {
            '{' => {
                path.extend(key.take());
                rest = &rest[1..];
            }
            '}' => {
                path.pop();
                rest = &rest[1..];
            }
            ',' => rest = &rest[1..],
            '"' if key.is_none() => {
                let end = 1 + rest[1..].find('"').expect("closed key");
                key = Some(rest[1..end].to_string());
                rest = &rest[end + 2..];
            }
            _ => {
                let end = rest.find([',', '}']).expect("closed value");
                let mut name = path.join(".");
                if !name.is_empty() {
                    name.push('.');
                }
                name.push_str(&key.take().expect("a keyed value"));
                out.push((name, rest[..end].trim_matches('"').to_string()));
                rest = &rest[end..];
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_list_every_declared_leaf_in_wire_order() {
        // A field added to the struct and its declaration but not to
        // `fields` would alias two machines under one unit key.
        let machine = MachineConfig::paper();
        let owned = |fields: Vec<(&str, String)>| -> Vec<(String, String)> {
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect()
        };
        let fields = owned(machine.fields());
        assert_eq!(record_leaves(&machine), fields);
        let reuse_only = [
            "reuse_hit_latency",
            "reuse_miss_penalty",
            "speculative_validation",
        ];
        let mut baseline = fields.clone();
        baseline.retain(|(k, _)| !reuse_only.contains(&k.as_str()));
        assert_eq!(baseline.len(), fields.len() - 3);
        assert_eq!(owned(machine.baseline_fields()), baseline);
    }

    #[test]
    fn paper_machine_matches_section_5_1() {
        let m = MachineConfig::paper();
        assert_eq!(m.issue_width, 6);
        assert_eq!(m.int_alus, 4);
        assert_eq!(m.mem_ports, 2);
        assert_eq!(m.fp_alus, 2);
        assert_eq!(m.branch_units, 1);
        assert_eq!(m.int_latency, 1);
        assert_eq!(m.load_latency, 2);
        assert_eq!(m.icache.size_bytes, 32 * 1024);
        assert_eq!(m.icache.line_bytes, 32);
        assert_eq!(m.icache.miss_penalty, 12);
        assert_eq!(m.btb_entries, 4096);
        assert_eq!(m.mispredict_penalty, 8);
        assert_eq!(m.reuse_miss_penalty, 8);
    }

    #[test]
    fn machine_fields_enumeration_is_exhaustive() {
        let fields = MachineConfig::paper().fields();
        // 9 scalar units/latencies + 2×3 cache fields + 5 trailing
        // knobs. Update together with the struct.
        assert_eq!(fields.len(), 20);
        let mut names: Vec<&str> = fields.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20, "field names must be unique");
        let wide = MachineConfig {
            issue_width: 8,
            ..MachineConfig::paper()
        };
        assert_ne!(fields, wide.fields());
    }

    #[test]
    fn baseline_fields_drop_exactly_the_reuse_only_knobs() {
        let machine = MachineConfig::paper();
        let all: Vec<&str> = machine.fields().iter().map(|(n, _)| *n).collect();
        let base: Vec<&str> = machine.baseline_fields().iter().map(|(n, _)| *n).collect();
        let dropped: Vec<&str> = all.iter().copied().filter(|n| !base.contains(n)).collect();
        assert_eq!(
            dropped,
            [
                "reuse_hit_latency",
                "reuse_miss_penalty",
                "speculative_validation"
            ]
        );
        assert!(base.iter().all(|n| all.contains(n)));
        assert_eq!(base.len(), all.len() - 3);
    }

    #[test]
    fn crb_fields_enumeration_flattens_nonuniform() {
        use crate::{CrbConfig, NonuniformConfig};
        let uniform = CrbConfig::paper().fields();
        assert_eq!(uniform.len(), 8);
        assert!(uniform.contains(&("nonuniform.boost_every", "-".to_string())));
        let skewed = CrbConfig {
            nonuniform: Some(NonuniformConfig {
                boost_every: 4,
                boosted_instances: 20,
                mem_capable_percent: 100,
            }),
            ..CrbConfig::paper()
        };
        let fields = skewed.fields();
        assert!(fields.contains(&("nonuniform.boosted_instances", "20".to_string())));
        assert_ne!(uniform, fields);
        assert_ne!(uniform, CrbConfig::with_entries(32).fields());
    }
}
