//! Output digests and the golden files under `benchmark/golden/`.
//!
//! A golden file maps an output's key (a simulation point, a compile
//! unit, a served point) to the digest of that output for the default
//! seed. Any run checks the keys it shares with the file, so other
//! seeds are checked wherever their draws overlap the default one.
//! `CCR_UPDATE_GOLDEN=1` with the default seed rewrites the file.

use std::collections::BTreeMap;
use std::path::PathBuf;

use ccr::fnv1a_hex;
use ccr::ir::Program;
use ccr::sim::snapshot::write_sim_stats;
use ccr::sim::SimOutcome;
use ccr::telemetry::JsonWriter;
use ccr::workloads::InputSet;

pub const DEFAULT_SEED: u64 = 1;

/// Digest of a simulation's functional result and every statistic.
pub fn sim_digest(o: &SimOutcome) -> String {
    let mut w = JsonWriter::new();
    write_sim_stats(&mut w, &o.stats);
    let returned: Vec<i64> = o.run.returned.iter().map(|v| v.0).collect();
    fnv1a_hex(format!("{returned:?}|{}", w.finish()).as_bytes())
}

/// Digest of a program's full textual IR (annotations included).
pub fn program_digest(p: &Program) -> String {
    fnv1a_hex(p.to_string().as_bytes())
}

pub fn text_digest(text: &str) -> String {
    fnv1a_hex(text.as_bytes())
}

/// Short hash of a config's `fields()` enumeration, for output keys.
pub fn fields_hash(fields: &[(&'static str, String)]) -> String {
    let text: String = fields.iter().map(|(n, v)| format!("{n}={v};")).collect();
    fnv1a_hex(text.as_bytes())[..8].to_string()
}

pub fn input_tag(input: InputSet) -> &'static str {
    match input {
        InputSet::Train => "train",
        InputSet::Ref => "ref",
    }
}

fn path(workload: &str) -> PathBuf {
    PathBuf::from(format!("benchmark/golden/{workload}.txt"))
}

/// Checks `computed` (key → digest) against the workload's golden
/// file and returns the keys whose digest differs. With
/// `CCR_UPDATE_GOLDEN=1` and the default seed, rewrites the file from
/// `computed` instead.
pub fn check(
    workload: &str,
    seed: u64,
    computed: &BTreeMap<String, String>,
) -> Result<Vec<String>, String> {
    let path = path(workload);
    if std::env::var("CCR_UPDATE_GOLDEN").as_deref() == Ok("1") {
        if seed != DEFAULT_SEED {
            return Err(format!(
                "goldens are recorded for seed {DEFAULT_SEED}, not {seed}"
            ));
        }
        let mut text = format!("# {workload}: <output key> <digest>, seed {seed}\n");
        for (k, v) in computed {
            text.push_str(&format!("{k} {v}\n"));
        }
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "golden: wrote {} entries to {}",
            computed.len(),
            path.display()
        );
        return Ok(Vec::new());
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut golden = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let (k, v) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("{}: malformed line `{line}`", path.display()))?;
        golden.insert(k, v);
    }
    let mut checked = 0;
    let mut mismatched = Vec::new();
    for (k, v) in computed {
        if let Some(g) = golden.get(k.as_str()) {
            checked += 1;
            if g != v {
                mismatched.push(k.clone());
            }
        }
    }
    if seed == DEFAULT_SEED && checked < computed.len() {
        return Err(format!(
            "{}: {} of {} outputs have no golden entry (refresh with CCR_UPDATE_GOLDEN=1)",
            path.display(),
            computed.len() - checked,
            computed.len()
        ));
    }
    eprintln!(
        "golden: {checked} of {} outputs checked, {} mismatched",
        computed.len(),
        mismatched.len()
    );
    Ok(mismatched)
}
