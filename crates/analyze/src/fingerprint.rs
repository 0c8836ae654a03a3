//! Determinism-fingerprint digest files and divergence bisection.
//!
//! `ccr fingerprint` runs a workload under the simulator's streaming
//! state fingerprint and writes one **digest file** per run: the
//! per-window chain values plus the final chain hash, as versioned
//! line-tolerant JSONL (the run-store conventions). This module is the
//! consumer side — parse, serialize, and compare digest files — and,
//! like the rest of `ccr-analyze`, operates on plain data with no
//! simulator dependency.
//!
//! Because the underlying hash *chains* (window `i` folds on top of
//! every window before it), two digests agree on a window only if they
//! agreed on the whole prefix; [`compare_digests`] therefore bisects a
//! divergence to the exact first bad window in one linear scan.
//!
//! # File format
//!
//! ```text
//! {"fp_v":1,"kind":"meta","workload":"lex","config_hash":"…","window":65536}
//! {"kind":"window","index":0,"cycle":65536,"hash":"9c3dd8b929e12a05"}
//! …
//! {"kind":"final","cycles":180034,"windows":2,"hash":"1af0c582b7d9e644"}
//! ```
//!
//! The `final` record doubles as the end trailer: a digest without one
//! is truncated. Hashes are zero-padded 16-digit lowercase hex
//! ([`format_hash`]); unknown `kind` lines are skipped (additive
//! extensions), an unknown `fp_v` is a hard one-line error. Each
//! line's fields are one strict `record!` declaration
//! (`ccr_telemetry::record`) that derives both the writer and the
//! reader; the `meta` line's `workload` and `config_hash` read as `""`
//! when absent.

use ccr_telemetry::record::{kind_line, Codec, Lenient, Record, Strict};
use ccr_telemetry::value::{self, Value};
use ccr_telemetry::{record, JsonWriter};

/// Digest file format version.
pub const FP_VERSION: u64 = 1;

/// One sealed fingerprint window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DigestWindow {
    /// Zero-based window index.
    pub index: u64,
    /// Cycle boundary the window was sealed at.
    pub cycle: u64,
    /// Chain hash after folding the state at this boundary.
    pub hash: u64,
}

/// A parsed fingerprint digest file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DigestFile {
    /// Workload the digest was taken from.
    pub workload: String,
    /// Config hash of the producing run (`""` = unknown).
    pub config_hash: String,
    /// Window size in cycles.
    pub window: u64,
    /// Sealed windows, index order.
    pub windows: Vec<DigestWindow>,
    /// Total simulated cycles of the run.
    pub cycles: u64,
    /// Final chain hash (the run's trajectory fingerprint).
    pub final_hash: u64,
}

/// How two digests relate, from [`compare_digests`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FingerprintDiff {
    /// Same chain, same final hash: the trajectories are identical.
    Identical,
    /// The chains diverge; this is the **first** divergent window.
    Window {
        /// Index of the first divergent window.
        index: u64,
        /// Cycle boundary of that window.
        cycle: u64,
        /// Chain hash in the first digest.
        a_hash: u64,
        /// Chain hash in the second digest.
        b_hash: u64,
    },
    /// One chain is a strict prefix of the other (the runs took
    /// different cycle counts without a window-level divergence —
    /// e.g. different workload scales).
    LengthMismatch {
        /// Window count of the first digest.
        a_windows: u64,
        /// Window count of the second digest.
        b_windows: u64,
    },
    /// Every window matches but the final fold differs: the divergence
    /// happened after the last sealed boundary.
    FinalOnly {
        /// Final hash of the first digest.
        a_hash: u64,
        /// Final hash of the second digest.
        b_hash: u64,
    },
}

/// Formats a chain hash the way digest files and the run store carry
/// it: zero-padded 16-digit lowercase hex.
pub fn format_hash(h: u64) -> String {
    format!("{h:016x}")
}

/// A chain hash as [`format_hash`] writes it.
struct Hex;

impl Codec<u64> for Hex {
    fn put(h: &u64, key: &str, w: &mut JsonWriter) {
        Strict::put(&format_hash(*h), key, w);
    }
    fn get(v: &Value, key: &str, ctx: &str) -> Result<u64, String> {
        let s = v
            .get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{ctx}: missing `{key}`"))?;
        u64::from_str_radix(s, 16).map_err(|_| format!("{ctx}: `{key}` is not a hex hash: `{s}`"))
    }
}

/// The `meta` line's fields, after its `fp_v` and `kind` tags.
struct Meta {
    workload: String,
    config_hash: String,
    window: u64,
}

/// The `final` line's fields: the run's cycles, its window count, and
/// the final chain hash.
struct Final {
    cycles: u64,
    windows: u64,
    hash: u64,
}

record!(Strict Meta { workload: Lenient, config_hash: Lenient, window });
record!(Strict DigestWindow { index, cycle, hash: Hex });
record!(Strict Final { cycles, windows, hash: Hex });

/// Serializes a digest file (inverse of [`parse_digest_file`]).
pub fn write_digest_file(d: &DigestFile) -> String {
    let meta = Meta {
        workload: d.workload.clone(),
        config_hash: d.config_hash.clone(),
        window: d.window,
    };
    let mut lines = vec![record::object(
        |w| {
            w.key("fp_v").u64_val(FP_VERSION);
            w.key("kind").str_val("meta");
        },
        &meta,
    )];
    lines.extend(d.windows.iter().map(|win| kind_line("window", win)));
    let fin = Final {
        cycles: d.cycles,
        windows: d.windows.len() as u64,
        hash: d.final_hash,
    };
    lines.push(kind_line("final", &fin));
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// Parses a digest file. `path` labels error messages only.
///
/// # Errors
///
/// Returns a one-line `{path}[:{line}]: ...` description for an
/// unknown `fp_v`, a malformed line, an out-of-order window, a window
/// count that disagrees with the `final` record, or a truncated file
/// (no `final` record).
pub fn parse_digest_file(path: &str, text: &str) -> Result<DigestFile, String> {
    let mut meta: Option<Meta> = None;
    let mut windows: Vec<DigestWindow> = Vec::new();
    let mut fin: Option<Final> = None;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let ctx = format!("{path}:{lineno}");
        if fin.is_some() {
            return Err(format!("{ctx}: data after the final record"));
        }
        let v = value::parse(line).map_err(|e| format!("{ctx}: {}", e.message))?;
        if meta.is_none() {
            if v.get("fp_v").and_then(Value::as_u64).is_none() {
                return Err(format!("{ctx}: missing fp_v header"));
            }
            value::check_version(&v, "fp_v", &[FP_VERSION]).map_err(|e| format!("{ctx}: {e}"))?;
            let m = Meta::get_fields(&v, &ctx)?;
            if m.window == 0 {
                return Err(format!("{ctx}: window must be nonzero"));
            }
            meta = Some(m);
            continue;
        }
        // The order and count checks come before the rest of the line.
        match v.str_field("kind") {
            "window" => {
                let index: u64 = Strict::get(&v, "index", &ctx)?;
                if index != windows.len() as u64 {
                    return Err(format!(
                        "{ctx}: window index {index} out of order (expected {})",
                        windows.len()
                    ));
                }
                windows.push(DigestWindow::get_fields(&v, &ctx)?);
            }
            "final" => {
                let count: u64 = Strict::get(&v, "windows", &ctx)?;
                if count != windows.len() as u64 {
                    return Err(format!(
                        "{ctx}: final record says {count} windows, found {}",
                        windows.len()
                    ));
                }
                fin = Some(Final::get_fields(&v, &ctx)?);
            }
            // Unknown kinds are additive extensions: skip.
            _ => {}
        }
    }
    let Meta {
        workload,
        config_hash,
        window,
    } = meta.ok_or_else(|| format!("{path}: empty digest file"))?;
    let fin = fin.ok_or_else(|| format!("{path}: truncated digest (missing final record)"))?;
    Ok(DigestFile {
        workload,
        config_hash,
        window,
        windows,
        cycles: fin.cycles,
        final_hash: fin.hash,
    })
}

/// Compares two digests, bisecting any divergence to the first bad
/// window (chained hashes make the first mismatch the exact first
/// divergent window).
///
/// # Errors
///
/// Returns a one-line description when the digests were taken with
/// different window sizes — their boundaries don't line up, so no
/// window-level comparison is meaningful.
pub fn compare_digests(a: &DigestFile, b: &DigestFile) -> Result<FingerprintDiff, String> {
    if a.window != b.window {
        return Err(format!(
            "fingerprint window mismatch: {} vs {} cycles — regenerate with a common --window",
            a.window, b.window
        ));
    }
    for (wa, wb) in a.windows.iter().zip(&b.windows) {
        if wa.hash != wb.hash {
            return Ok(FingerprintDiff::Window {
                index: wa.index,
                cycle: wa.cycle,
                a_hash: wa.hash,
                b_hash: wb.hash,
            });
        }
    }
    if a.windows.len() != b.windows.len() {
        return Ok(FingerprintDiff::LengthMismatch {
            a_windows: a.windows.len() as u64,
            b_windows: b.windows.len() as u64,
        });
    }
    if a.final_hash != b.final_hash {
        return Ok(FingerprintDiff::FinalOnly {
            a_hash: a.final_hash,
            b_hash: b.final_hash,
        });
    }
    Ok(FingerprintDiff::Identical)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DigestFile {
        DigestFile {
            workload: "lex".to_string(),
            config_hash: "abc".to_string(),
            window: 65536,
            windows: vec![
                DigestWindow {
                    index: 0,
                    cycle: 65536,
                    hash: 0x9c3d_d8b9_29e1_2a05,
                },
                DigestWindow {
                    index: 1,
                    cycle: 131072,
                    hash: 0x0000_0000_0000_002a,
                },
            ],
            cycles: 180034,
            final_hash: 0x1af0_c582_b7d9_e644,
        }
    }

    #[test]
    fn digest_round_trips() {
        let d = sample();
        let text = write_digest_file(&d);
        assert!(text.starts_with(r#"{"fp_v":1,"kind":"meta""#));
        assert!(text.contains(r#""hash":"000000000000002a""#), "{text}");
        assert_eq!(parse_digest_file("mem", &text).unwrap(), d);
    }

    #[test]
    fn truncated_digest_is_an_error() {
        let text = write_digest_file(&sample());
        let cut: String = text.lines().take(2).collect::<Vec<_>>().join("\n");
        let err = parse_digest_file("d.jsonl", &cut).unwrap_err();
        assert_eq!(err, "d.jsonl: truncated digest (missing final record)");
    }

    #[test]
    fn unknown_version_is_an_error() {
        let err =
            parse_digest_file("d", "{\"fp_v\":7,\"kind\":\"meta\",\"window\":1}\n").unwrap_err();
        assert_eq!(err, "d:1: unknown fp_v 7 (known: [1])");
    }

    #[test]
    fn window_count_mismatch_is_an_error() {
        let text = write_digest_file(&sample()).replace("\"windows\":2", "\"windows\":3");
        let err = parse_digest_file("d", &text).unwrap_err();
        assert!(
            err.contains("final record says 3 windows, found 2"),
            "{err}"
        );
    }

    #[test]
    fn out_of_order_window_is_an_error() {
        let text = write_digest_file(&sample()).replacen("\"index\":1", "\"index\":5", 1);
        let err = parse_digest_file("d", &text).unwrap_err();
        assert!(err.contains("window index 5 out of order"), "{err}");
    }

    #[test]
    fn malformed_fields_keep_their_wording() {
        let text = write_digest_file(&sample());
        let err =
            |from: &str, to: &str| parse_digest_file("d", &text.replacen(from, to, 1)).unwrap_err();
        assert_eq!(err(r#","window":65536"#, ""), "d:1: missing `window`");
        assert_eq!(
            err(r#""cycle":65536"#, r#""cycle":-1"#),
            "d:2: `cycle` is not an unsigned integer"
        );
        assert_eq!(
            err(r#""hash":"000000000000002a""#, r#""hash":"xyz""#),
            "d:3: `hash` is not a hex hash: `xyz`"
        );
        assert_eq!(
            err(r#","hash":"1af0"#, r#","hash_":"1af0"#),
            "d:4: missing `hash`"
        );
        // The meta line's labels are optional.
        let bare = text.replacen(r#""workload":"lex","config_hash":"abc","#, "", 1);
        let d = parse_digest_file("d", &bare).unwrap();
        assert_eq!((d.workload.as_str(), d.config_hash.as_str()), ("", ""));
    }

    #[test]
    fn unknown_kind_lines_are_skipped() {
        let text = write_digest_file(&sample());
        let mut lines: Vec<&str> = text.lines().collect();
        lines.insert(1, r#"{"kind":"note","text":"future"}"#);
        assert_eq!(
            parse_digest_file("mem", &lines.join("\n")).unwrap(),
            sample()
        );
    }

    #[test]
    fn identical_digests_compare_identical() {
        assert_eq!(
            compare_digests(&sample(), &sample()).unwrap(),
            FingerprintDiff::Identical
        );
    }

    #[test]
    fn first_divergent_window_is_bisected() {
        let a = sample();
        let mut b = sample();
        b.windows[1].hash = 0xdead;
        b.final_hash = 0xbeef;
        assert_eq!(
            compare_digests(&a, &b).unwrap(),
            FingerprintDiff::Window {
                index: 1,
                cycle: 131072,
                a_hash: a.windows[1].hash,
                b_hash: 0xdead,
            }
        );
    }

    #[test]
    fn prefix_chains_report_length_mismatch() {
        let a = sample();
        let mut b = sample();
        b.windows.pop();
        assert_eq!(
            compare_digests(&a, &b).unwrap(),
            FingerprintDiff::LengthMismatch {
                a_windows: 2,
                b_windows: 1,
            }
        );
    }

    #[test]
    fn tail_divergence_reports_final_only() {
        let a = sample();
        let mut b = sample();
        b.final_hash = 0x1;
        assert_eq!(
            compare_digests(&a, &b).unwrap(),
            FingerprintDiff::FinalOnly {
                a_hash: a.final_hash,
                b_hash: 0x1,
            }
        );
    }

    #[test]
    fn window_size_mismatch_is_an_error() {
        let a = sample();
        let mut b = sample();
        b.window = 1024;
        let err = compare_digests(&a, &b).unwrap_err();
        assert!(err.contains("window mismatch: 65536 vs 1024"), "{err}");
    }

    #[test]
    fn hash_formatting_is_fixed_width() {
        assert_eq!(format_hash(0x2a), "000000000000002a");
        assert_eq!(format_hash(u64::MAX), "ffffffffffffffff");
    }
}
