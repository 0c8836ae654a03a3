//! Chrome Trace Event Format export (`trace.json`).
//!
//! The output loads in `chrome://tracing` and Perfetto: a JSON object
//! with a `traceEvents` array of metadata (`"M"`), duration (`"X"`),
//! instant (`"i"`) and counter (`"C"`) events. Tracks:
//!
//! * **pid 1 — compile**: one duration event per optimizer pass, laid
//!   end to end from the recorded wall times (µs, the format's native
//!   unit).
//! * **pid 2 / pid 3 — base / ccr simulation**: the reuse timeline as
//!   instant events (one per lookup; hits and misses are separate
//!   names so the viewer colors them apart) plus an `ipc` counter
//!   track from the interval-IPC windows. Timestamps are *pipeline
//!   cycles* interpreted as µs — relative spacing is what matters.
//! * **pid 4 — crb**: buffer structural events (evict / conflict /
//!   invalidate) and an `occupancy` counter, on the *buffer clock*
//!   timebase.
//!
//! Instant events are capped at [`MAX_INSTANT_EVENTS`] per
//! simulation phase (deterministically: the first N in stream order);
//! a `truncated` counter in the trailing metadata records how many
//! were dropped, so a capped trace never silently reads as complete.

use ccr_telemetry::JsonWriter;

use crate::ingest::{CrbKind, Phase, RunData};

/// Cap on reuse instant events per simulation phase.
pub const MAX_INSTANT_EVENTS: usize = 20_000;

fn meta_process(w: &mut JsonWriter, pid: u64, name: &str) {
    w.obj_begin();
    w.key("name").str_val("process_name");
    w.key("ph").str_val("M");
    w.key("pid").u64_val(pid);
    w.key("tid").u64_val(0);
    w.key("args").obj_begin();
    w.key("name").str_val(name);
    w.obj_end();
    w.obj_end();
}

/// Renders one run as a Chrome-trace JSON document.
pub fn chrome_trace(data: &RunData) -> String {
    let mut w = JsonWriter::new();
    w.obj_begin();
    w.key("displayTimeUnit").str_val("ms");
    w.key("traceEvents").arr_begin();

    meta_process(&mut w, 1, "compile");
    meta_process(&mut w, 2, "sim: base (cycles)");
    meta_process(&mut w, 3, "sim: ccr (cycles)");
    meta_process(&mut w, 4, "crb (buffer clock)");

    // Compile passes, end to end on the wall-time axis.
    let mut ts = 0u64;
    for pass in &data.passes {
        w.obj_begin();
        w.key("name").str_val(&pass.row.pass);
        w.key("cat").str_val("compile");
        w.key("ph").str_val("X");
        w.key("ts").u64_val(ts);
        w.key("dur").u64_val(pass.row.wall_us.max(1));
        w.key("pid").u64_val(1);
        w.key("tid").u64_val(1);
        w.key("args").obj_begin();
        w.key("changes").u64_val(pass.row.changes);
        w.key("instrs_before").u64_val(pass.instrs_before);
        w.key("instrs_after").u64_val(pass.instrs_after);
        w.obj_end();
        w.obj_end();
        ts += pass.row.wall_us.max(1);
    }

    // Reuse timeline per phase, capped deterministically.
    let mut emitted = [0usize; 2];
    let mut dropped = [0u64; 2];
    for r in &data.reuse {
        let (slot, pid) = match r.phase {
            Phase::Base => (0, 2),
            Phase::Ccr => (1, 3),
            Phase::Compile => continue,
        };
        if emitted[slot] >= MAX_INSTANT_EVENTS {
            dropped[slot] += 1;
            continue;
        }
        emitted[slot] += 1;
        w.obj_begin();
        w.key("name").str_val(if r.hit { "hit" } else { "miss" });
        w.key("cat").str_val("reuse");
        w.key("ph").str_val("i");
        w.key("s").str_val("t");
        w.key("ts").u64_val(r.cycle);
        w.key("pid").u64_val(pid);
        w.key("tid").u64_val(1);
        w.key("args").obj_begin();
        w.key("region").u64_val(r.region);
        w.key("skipped").u64_val(r.skipped);
        w.obj_end();
        w.obj_end();
    }

    // Interval-IPC counter tracks.
    for win in &data.ipc_windows {
        let pid = match win.phase {
            Phase::Base => 2,
            Phase::Ccr => 3,
            Phase::Compile => continue,
        };
        w.obj_begin();
        w.key("name").str_val("ipc");
        w.key("ph").str_val("C");
        w.key("ts").u64_val(win.start_cycle);
        w.key("pid").u64_val(pid);
        w.key("args").obj_begin();
        w.key("ipc").f64_val(win.ipc);
        w.obj_end();
        w.obj_end();
    }

    // CRB structural events + occupancy counter (buffer clock axis).
    for ev in &data.crb_events {
        w.obj_begin();
        w.key("name").str_val(match ev.kind {
            CrbKind::Evict => "evict",
            CrbKind::Conflict => "conflict",
            CrbKind::Invalidate => "invalidate",
        });
        w.key("cat").str_val("crb");
        w.key("ph").str_val("i");
        w.key("s").str_val("t");
        w.key("ts").u64_val(ev.clock);
        w.key("pid").u64_val(4);
        w.key("tid").u64_val(1);
        w.key("args").obj_begin();
        w.key("region").u64_val(ev.region);
        w.key("entry").u64_val(ev.entry);
        w.key("lost").u64_val(ev.lost);
        w.obj_end();
        w.obj_end();
        w.obj_begin();
        w.key("name").str_val("occupancy");
        w.key("ph").str_val("C");
        w.key("ts").u64_val(ev.clock);
        w.key("pid").u64_val(4);
        w.key("args").obj_begin();
        w.key("occupancy").u64_val(ev.occupancy);
        w.obj_end();
        w.obj_end();
    }

    w.arr_end();
    w.key("otherData").obj_begin();
    w.key("workload").str_val(&data.report.workload);
    w.key("truncated_base").u64_val(dropped[0]);
    w.key("truncated_ccr").u64_val(dropped[1]);
    w.obj_end();
    w.obj_end();
    let mut out = w.finish();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{CrbRec, IpcWindowRec, PassRec, PassRow, ReuseRec};
    use crate::value::{parse, Value};

    fn sample() -> RunData {
        let mut data = RunData::default();
        data.report.workload = "w".into();
        data.passes.push(PassRec {
            row: PassRow {
                pass: "dce".into(),
                wall_us: 12,
                changes: 3,
            },
            instrs_before: 10,
            instrs_after: 7,
        });
        data.passes.push(PassRec {
            row: PassRow {
                pass: "cse".into(),
                wall_us: 0, // zero-length spans still render
                changes: 0,
            },
            instrs_before: 7,
            instrs_after: 7,
        });
        data.reuse.push(ReuseRec {
            phase: Phase::Base,
            region: 0,
            hit: false,
            skipped: 0,
            cycle: 40,
            cause: None,
        });
        data.reuse.push(ReuseRec {
            phase: Phase::Ccr,
            region: 0,
            hit: true,
            skipped: 13,
            cycle: 55,
            cause: None,
        });
        data.ipc_windows.push(IpcWindowRec {
            phase: Phase::Ccr,
            index: 0,
            start_cycle: 0,
            cycles: 100,
            instrs: 250,
            skipped: 13,
            ipc: 2.63,
        });
        data.crb_events.push(CrbRec {
            kind: CrbKind::Evict,
            clock: 9,
            region: 0,
            entry: 0,
            occupancy: 8,
            lost: 1,
        });
        data
    }

    #[test]
    fn trace_is_valid_trace_event_format() {
        let trace = chrome_trace(&sample());
        let v = parse(trace.trim_end()).expect("trace.json must be valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        // 4 process metadata + 2 passes + 2 reuse + 1 ipc + 1 crb + 1 occupancy.
        assert_eq!(events.len(), 11);
        for ev in events {
            let ph = ev.str_field("ph");
            assert!(
                matches!(ph, "M" | "X" | "i" | "C"),
                "unexpected phase {ph:?}"
            );
            assert!(ev.get("name").is_some());
            assert!(ev.get("pid").is_some());
            if ph == "X" {
                assert!(ev.u64_field("dur") >= 1);
            }
            if ph == "i" {
                assert_eq!(ev.str_field("s"), "t", "instant events need a scope");
            }
        }
        // Passes are laid end to end.
        let xs: Vec<&Value> = events.iter().filter(|e| e.str_field("ph") == "X").collect();
        assert_eq!(
            xs[0].u64_field("ts") + xs[0].u64_field("dur"),
            xs[1].u64_field("ts")
        );
        // Hit and miss are distinct names on distinct sim pids.
        let names: Vec<(&str, u64)> = events
            .iter()
            .filter(|e| e.str_field("cat") == "reuse")
            .map(|e| (e.str_field("name"), e.u64_field("pid")))
            .collect();
        assert_eq!(names, vec![("miss", 2), ("hit", 3)]);
        assert_eq!(v.get("otherData").unwrap().u64_field("truncated_ccr"), 0);
    }

    #[test]
    fn trace_caps_instant_events_and_reports_truncation() {
        let mut data = sample();
        data.reuse.clear();
        for i in 0..(MAX_INSTANT_EVENTS as u64 + 10) {
            data.reuse.push(ReuseRec {
                phase: Phase::Ccr,
                region: 0,
                hit: true,
                skipped: 1,
                cycle: i,
                cause: None,
            });
        }
        let trace = chrome_trace(&data);
        let v = parse(trace.trim_end()).unwrap();
        let reuse_events = v
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.str_field("cat") == "reuse")
            .count();
        assert_eq!(reuse_events, MAX_INSTANT_EVENTS);
        assert_eq!(v.get("otherData").unwrap().u64_field("truncated_ccr"), 10);
    }

    #[test]
    fn trace_is_deterministic() {
        let data = sample();
        assert_eq!(chrome_trace(&data), chrome_trace(&data));
    }
}
