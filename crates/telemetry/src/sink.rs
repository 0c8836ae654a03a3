//! Telemetry sinks: where events go.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::event::{Event, FieldValue};
use crate::json;
use crate::SCHEMA_VERSION;

/// Consumes [`Event`]s. Instrumented code is written against this
/// trait so the disabled path ([`NullSink`]) costs one boolean check.
pub trait TelemetrySink {
    /// Whether events should be built and emitted at all. Emit sites
    /// (and the [`crate::emit!`] macro) check this before assembling
    /// an event's field slice.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event.
    fn emit(&mut self, event: &Event);

    /// Flushes any buffered output.
    fn flush(&mut self) {}
}

impl<S: TelemetrySink + ?Sized> TelemetrySink for &mut S {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
    fn emit(&mut self, event: &Event) {
        (**self).emit(event)
    }
    fn flush(&mut self) {
        (**self).flush()
    }
}

impl<S: TelemetrySink + ?Sized> TelemetrySink for Box<S> {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
    fn emit(&mut self, event: &Event) {
        (**self).emit(event)
    }
    fn flush(&mut self) {
        (**self).flush()
    }
}

/// The zero-overhead default: reports `enabled() == false` and drops
/// anything emitted anyway.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn enabled(&self) -> bool {
        false
    }
    fn emit(&mut self, _event: &Event) {}
}

/// Serializes each event as one JSON object per line:
/// `{"v":1,"ev":"<kind>",...fields}`.
///
/// Write errors never abort the run being observed (emitting stays
/// infallible), but the first one is remembered; call
/// [`JsonlSink::finish`] when the stream is complete to learn whether
/// every line actually reached the writer.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    line: String,
    /// First write/flush error, kept so `finish()` can report that a
    /// seemingly complete stream is in fact truncated.
    error: Option<io::Error>,
}

impl JsonlSink<BufWriter<File>> {
    /// Opens (truncating) `path` for JSONL output.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            line: String::with_capacity(256),
            error: None,
        }
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.writer.flush();
        self.writer
    }

    /// Flushes and reports the first write error that occurred over
    /// the sink's whole lifetime. `Ok(())` means every emitted event
    /// reached the underlying writer; an error means the stream is
    /// truncated or corrupt and should not be fed to the analyzer.
    pub fn finish(&mut self) -> io::Result<()> {
        let flushed = self.writer.flush();
        match self.error.take() {
            Some(e) => Err(e),
            None => flushed,
        }
    }

    /// Serializes one event into `out` (without trailing newline).
    /// Exposed so tests can pin the exact line format.
    pub fn serialize(event: &Event, out: &mut String) {
        use std::fmt::Write as _;
        out.push_str("{\"v\":");
        let _ = write!(out, "{SCHEMA_VERSION}");
        out.push_str(",\"ev\":\"");
        json::escape_into(event.kind, out);
        out.push('"');
        for (name, value) in event.fields {
            out.push_str(",\"");
            json::escape_into(name, out);
            out.push_str("\":");
            match value {
                FieldValue::U64(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::I64(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::F64(v) => json::number(*v, out),
                FieldValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
                FieldValue::Str(v) => {
                    out.push('"');
                    json::escape_into(v, out);
                    out.push('"');
                }
            }
        }
        out.push('}');
    }
}

impl<W: Write> TelemetrySink for JsonlSink<W> {
    fn emit(&mut self, event: &Event) {
        self.line.clear();
        Self::serialize(event, &mut self.line);
        self.line.push('\n');
        // Telemetry is best-effort: an I/O error must not abort the
        // run it is observing. The first failure is remembered for
        // `finish()` so truncation is detectable afterwards.
        if let Err(e) = self.writer.write_all(self.line.as_bytes()) {
            self.error.get_or_insert(e);
        }
    }

    fn flush(&mut self) {
        if let Err(e) = self.writer.flush() {
            self.error.get_or_insert(e);
        }
    }
}

/// Aggregates events in memory: a per-kind count plus sums of every
/// numeric field, for quick end-of-run summaries and tests.
#[derive(Clone, Debug, Default)]
pub struct SummarySink {
    counts: BTreeMap<String, u64>,
    sums: BTreeMap<(String, String), f64>,
}

impl SummarySink {
    /// Creates an empty summary.
    pub fn new() -> SummarySink {
        SummarySink::default()
    }

    /// Number of events of `kind` seen.
    pub fn count(&self, kind: &str) -> u64 {
        self.counts.get(kind).copied().unwrap_or(0)
    }

    /// All per-kind counts, sorted by kind.
    pub fn counts(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Sum of numeric field `field` over all events of `kind`.
    pub fn sum(&self, kind: &str, field: &str) -> f64 {
        self.sums
            .get(&(kind.to_string(), field.to_string()))
            .copied()
            .unwrap_or(0.0)
    }
}

impl TelemetrySink for SummarySink {
    fn emit(&mut self, event: &Event) {
        *self.counts.entry(event.kind.to_string()).or_insert(0) += 1;
        for (name, value) in event.fields {
            let num = match value {
                FieldValue::U64(v) => *v as f64,
                FieldValue::I64(v) => *v as f64,
                FieldValue::F64(v) => *v,
                FieldValue::Bool(_) | FieldValue::Str(_) => continue,
            };
            *self
                .sums
                .entry((event.kind.to_string(), name.to_string()))
                .or_insert(0.0) += num;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample<'a>() -> Event<'a> {
        Event {
            kind: "pass",
            fields: &[
                ("name", FieldValue::Str("dce")),
                ("wall_us", FieldValue::U64(12)),
                ("delta", FieldValue::I64(-4)),
                ("ipc", FieldValue::F64(1.5)),
                ("changed", FieldValue::Bool(true)),
            ],
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        let sink = NullSink;
        assert!(!sink.enabled());
    }

    #[test]
    fn jsonl_line_format() {
        let mut out = String::new();
        JsonlSink::<Vec<u8>>::serialize(&sample(), &mut out);
        assert_eq!(
            out,
            r#"{"v":1,"ev":"pass","name":"dce","wall_us":12,"delta":-4,"ipc":1.5,"changed":true}"#
        );
    }

    #[test]
    fn jsonl_escapes_strings() {
        let ev = Event {
            kind: "note",
            fields: &[("msg", FieldValue::Str("a\"b\\c\nd"))],
        };
        let mut out = String::new();
        JsonlSink::<Vec<u8>>::serialize(&ev, &mut out);
        assert_eq!(out, r#"{"v":1,"ev":"note","msg":"a\"b\\c\nd"}"#);
    }

    #[test]
    fn jsonl_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(&sample());
        sink.emit(&sample());
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn finish_reports_clean_streams_and_short_writes() {
        // Healthy writer: finish is Ok and is idempotent.
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(&sample());
        assert!(sink.finish().is_ok());
        assert!(sink.finish().is_ok());

        // A writer that fails mid-stream: the event loss must surface
        // at finish() even though emit() stayed silent.
        struct Failing {
            budget: usize,
        }
        impl Write for Failing {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.budget == 0 {
                    return Err(io::Error::new(io::ErrorKind::WriteZero, "disk full"));
                }
                self.budget -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Failing { budget: 1 });
        sink.emit(&sample());
        sink.emit(&sample()); // silently lost …
        let err = sink.finish().expect_err("short write must surface");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        // … and the error is consumed: a second finish is clean.
        assert!(sink.finish().is_ok());
    }

    #[test]
    fn summary_counts_and_sums() {
        let mut sink = SummarySink::new();
        sink.emit(&sample());
        sink.emit(&sample());
        assert_eq!(sink.count("pass"), 2);
        assert_eq!(sink.count("other"), 0);
        assert_eq!(sink.sum("pass", "wall_us"), 24.0);
        assert_eq!(sink.sum("pass", "delta"), -8.0);
        assert_eq!(sink.sum("pass", "ipc"), 3.0);
        let kinds: Vec<_> = sink.counts().collect();
        assert_eq!(kinds, vec![("pass", 2)]);
    }

    #[test]
    fn emit_macro_builds_and_gates() {
        let mut sink = SummarySink::new();
        crate::emit!(sink, "x", a: 1u64, b: "s", c: 0.5f64);
        assert_eq!(sink.count("x"), 1);
        assert_eq!(sink.sum("x", "a"), 1.0);
        // Through a &mut reference, as instrumented code holds sinks.
        let r = &mut sink;
        crate::emit!(r, "x", a: 2u64);
        assert_eq!(sink.count("x"), 2);
        // NullSink: gated out entirely.
        let mut null = NullSink;
        crate::emit!(null, "x", a: 1u64);
    }
}
