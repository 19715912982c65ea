//! The thread-safe [`Collector`] and the sinks that feed it.
//!
//! A collector stores two sections:
//!
//! * the **deterministic section** — sequence-numbered [`Event`]s with
//!   no wall-clock, PID, or thread-identity fields. Two runs of the same
//!   workload export byte-identical deterministic sections regardless of
//!   the machine or the worker-pool size; CI diffs them directly.
//! * the **profile section** — monotonic timings and other
//!   run-environment measurements, appended after the deterministic
//!   lines and tagged `"section":"profile"` so tooling (and the
//!   determinism regression) can strip them with a line filter.

use crate::event::{Event, Level};
use crate::value::{write_json_string, Value};
use std::sync::Mutex;

/// Where instrumented code sends structured events.
///
/// The auction mechanisms accept `&dyn Sink` (wrapped in a
/// [`Trace`](crate::Trace)) rather than a concrete collector, so tests
/// and tools can interpose — e.g. [`Scoped`] stamps a constant field
/// (such as the round index) onto every event passing through.
pub trait Sink: Sync {
    /// Records one event.
    fn emit(&self, level: Level, name: &'static str, fields: Vec<(&'static str, Value)>);

    /// Records a profile-section entry (timings, engine diagnostics) —
    /// data excluded from the determinism contract. Default: dropped,
    /// for sinks without a profile section.
    fn emit_profile(&self, name: &'static str, fields: Vec<(&'static str, Value)>) {
        let _ = (name, fields);
    }
}

#[derive(Debug, Default)]
struct Inner {
    events: Vec<Event>,
    profile: Vec<ProfileEntry>,
}

/// One profile-section record (explicitly non-deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileEntry {
    /// Record name (e.g. `sweep.profile`).
    pub name: &'static str,
    /// Key–value payload.
    pub fields: Vec<(&'static str, Value)>,
}

/// A thread-safe in-memory event store with JSONL export.
#[derive(Debug, Default)]
pub struct Collector {
    inner: Mutex<Inner>,
}

impl Collector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// Records a profile-section entry (timings, environment). Excluded
    /// from the deterministic export.
    pub fn record_profile(&self, name: &'static str, fields: Vec<(&'static str, Value)>) {
        self.inner
            .lock()
            .expect("collector lock")
            .profile
            .push(ProfileEntry { name, fields });
    }

    /// Number of deterministic events recorded.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("collector lock").events.len()
    }

    /// `true` when no deterministic event was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the deterministic events.
    pub fn events(&self) -> Vec<Event> {
        self.inner.lock().expect("collector lock").events.clone()
    }

    /// A copy of the profile-section entries.
    pub fn profile_entries(&self) -> Vec<ProfileEntry> {
        self.inner.lock().expect("collector lock").profile.clone()
    }

    /// The deterministic section as JSONL (one event per line).
    pub fn deterministic_jsonl(&self) -> String {
        let inner = self.inner.lock().expect("collector lock");
        let mut out = String::new();
        for e in &inner.events {
            e.write_jsonl(&mut out);
            out.push('\n');
        }
        out
    }

    /// The full export: deterministic lines, then profile lines tagged
    /// `"section":"profile"`.
    pub fn to_jsonl(&self) -> String {
        let mut out = self.deterministic_jsonl();
        let inner = self.inner.lock().expect("collector lock");
        for p in &inner.profile {
            out.push_str("{\"section\":\"profile\",\"name\":");
            write_json_string(p.name, &mut out);
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in p.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(k, &mut out);
                out.push(':');
                v.write_json(&mut out);
            }
            out.push_str("}}\n");
        }
        out
    }
}

impl Sink for Collector {
    fn emit(&self, level: Level, name: &'static str, fields: Vec<(&'static str, Value)>) {
        let mut inner = self.inner.lock().expect("collector lock");
        let seq = inner.events.len() as u64;
        inner.events.push(Event {
            seq,
            level,
            name,
            fields,
        });
    }

    fn emit_profile(&self, name: &'static str, fields: Vec<(&'static str, Value)>) {
        self.record_profile(name, fields);
    }
}

/// A sink adapter that stamps constant fields onto every event — e.g.
/// the enclosing MSOA round index onto the nested single-stage auction's
/// events.
pub struct Scoped<'a> {
    inner: &'a dyn Sink,
    extra: Vec<(&'static str, Value)>,
}

impl std::fmt::Debug for Scoped<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scoped")
            .field("extra", &self.extra)
            .finish()
    }
}

impl<'a> Scoped<'a> {
    /// Wraps `inner`, prepending `extra` to every emitted event.
    pub fn new(inner: &'a dyn Sink, extra: Vec<(&'static str, Value)>) -> Self {
        Scoped { inner, extra }
    }
}

impl Sink for Scoped<'_> {
    fn emit(&self, level: Level, name: &'static str, fields: Vec<(&'static str, Value)>) {
        let mut all = self.extra.clone();
        all.extend(fields);
        self.inner.emit(level, name, all);
    }

    fn emit_profile(&self, name: &'static str, fields: Vec<(&'static str, Value)>) {
        let mut all = self.extra.clone();
        all.extend(fields);
        self.inner.emit_profile(name, all);
    }
}

/// A zero-cost optional trace handle.
///
/// Instrumented code takes a `&Trace` and calls [`Trace::emit_with`];
/// when the trace is off the field-building closure is never run, so an
/// untraced hot path pays one branch per potential event and allocates
/// nothing.
#[derive(Clone, Copy)]
pub struct Trace<'a> {
    sink: Option<&'a dyn Sink>,
}

impl std::fmt::Debug for Trace<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("on", &self.sink.is_some())
            .finish()
    }
}

impl<'a> Trace<'a> {
    /// A disabled trace (the default for untraced entry points).
    pub fn off() -> Self {
        Trace { sink: None }
    }

    /// A trace feeding `sink`.
    pub fn new(sink: &'a dyn Sink) -> Self {
        Trace { sink: Some(sink) }
    }

    /// `true` when events will be recorded.
    pub fn is_on(&self) -> bool {
        self.sink.is_some()
    }

    /// The underlying sink, if on.
    pub fn sink(&self) -> Option<&'a dyn Sink> {
        self.sink
    }

    /// Emits an event, building the fields only when the trace is on.
    pub fn emit_with(
        &self,
        level: Level,
        name: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, Value)>,
    ) {
        if let Some(sink) = self.sink {
            sink.emit(level, name, fields());
        }
    }

    /// Records a profile-section entry, building the fields only when
    /// the trace is on. The entry carries any [`Scoped`] stamp (e.g.
    /// the round index) but never enters the deterministic section.
    pub fn profile_with(
        &self,
        name: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, Value)>,
    ) {
        if let Some(sink) = self.sink {
            sink.emit_profile(name, fields());
        }
    }
}

impl Default for Trace<'_> {
    fn default() -> Self {
        Trace::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_in_sequence_order() {
        let c = Collector::new();
        c.emit(Level::Info, "a", vec![]);
        c.emit(Level::Info, "b", vec![("k", Value::from(1u64))]);
        let events = c.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[1].name, "b");
    }

    #[test]
    fn profile_section_is_separate_and_tagged() {
        let c = Collector::new();
        c.emit(Level::Info, "det", vec![]);
        c.record_profile("timing", vec![("nanos", Value::from(123u64))]);
        let det = c.deterministic_jsonl();
        assert!(!det.contains("profile"), "{det}");
        let full = c.to_jsonl();
        let profile_lines: Vec<&str> = full
            .lines()
            .filter(|l| l.starts_with("{\"section\":\"profile\""))
            .collect();
        assert_eq!(profile_lines.len(), 1);
        assert!(full.starts_with(&det), "deterministic lines come first");
    }

    #[test]
    fn scoped_sink_stamps_fields() {
        let c = Collector::new();
        let scoped = Scoped::new(&c, vec![("round", Value::from(7u64))]);
        scoped.emit(Level::Debug, "x", vec![("k", Value::from(1u64))]);
        let e = &c.events()[0];
        assert_eq!(e.field("round").and_then(Value::as_f64), Some(7.0));
        assert_eq!(e.field("k").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn off_trace_never_builds_fields() {
        let trace = Trace::off();
        let mut built = false;
        trace.emit_with(Level::Info, "x", || {
            built = true;
            vec![]
        });
        assert!(!built);
        assert!(!trace.is_on());
    }

    #[test]
    fn on_trace_records() {
        let c = Collector::new();
        let trace = Trace::new(&c);
        trace.emit_with(Level::Info, "x", || vec![("k", Value::from(2u64))]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn collector_is_shareable_across_threads() {
        let c = std::sync::Arc::new(Collector::new());
        let a = c.clone();
        let t = std::thread::spawn(move || {
            a.emit(Level::Info, "from-thread", vec![]);
        });
        c.emit(Level::Info, "from-main", vec![]);
        t.join().unwrap();
        assert_eq!(c.len(), 2);
    }
}
