//! Events — the unit of structured telemetry.

use crate::value::{write_json_string, Value};

/// Severity of an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Fine-grained instrumentation (audit-trail detail).
    Debug,
    /// Notable milestones (round boundaries, outcomes).
    Info,
    /// Something a human should see.
    Warn,
}

impl Level {
    /// Lower-case name used in exported traces.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
        }
    }
}

/// One recorded event: a name and key–value fields.
///
/// Events carry **no wall-clock time and no process identity** — a trace
/// of the same run is byte-identical across machines, reruns, and thread
/// counts. Monotonic timings belong in a collector's *profile* section
/// ([`crate::Collector::record_profile`]), which is explicitly excluded
/// from the determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Position in the collector's deterministic order.
    pub seq: u64,
    /// Severity.
    pub level: Level,
    /// Event name (dotted, e.g. `ssam.payment`).
    pub name: &'static str,
    /// Key–value payload in emission order.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Renders the event as one JSONL line (no trailing newline).
    pub fn write_jsonl(&self, out: &mut String) {
        out.push_str("{\"seq\":");
        let _ = std::fmt::Write::write_fmt(out, format_args!("{}", self.seq));
        out.push_str(",\"level\":\"");
        out.push_str(self.level.as_str());
        out.push_str("\",\"event\":");
        write_json_string(self.name, out);
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(k, out);
            out.push(':');
            v.write_json(out);
        }
        out.push_str("}}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_stable_jsonl() {
        let e = Event {
            seq: 3,
            level: Level::Info,
            name: "round.start",
            fields: vec![("round", Value::from(2u64)), ("demand", Value::from(7u64))],
        };
        let mut s = String::new();
        e.write_jsonl(&mut s);
        assert_eq!(
            s,
            "{\"seq\":3,\"level\":\"info\",\"event\":\"round.start\",\
             \"fields\":{\"round\":2,\"demand\":7}}"
        );
    }

    #[test]
    fn field_lookup() {
        let e = Event {
            seq: 0,
            level: Level::Debug,
            name: "x",
            fields: vec![("k", Value::from(1u64))],
        };
        assert_eq!(e.field("k").and_then(Value::as_f64), Some(1.0));
        assert!(e.field("missing").is_none());
    }

    #[test]
    fn levels_are_ordered() {
        assert!(Level::Debug < Level::Info && Level::Info < Level::Warn);
    }
}
