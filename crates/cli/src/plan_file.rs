//! Plan files: one line-numbered reader for the TOML subset that
//! `--faults` and `--net-faults` plans are written in.
//!
//! The workspace carries no TOML dependency, so this reads exactly what
//! a plan needs: `#` comments (a `#` inside a double-quoted string is
//! text), blank lines, and `key = value` pairs at the top level, under a
//! `[table]` or under an `[[array]]` entry. Values are unsigned
//! integers, finite floats or double-quoted strings without escapes.
//!
//! A plan format is a list of [`Table`]s: which headers exist, which keys
//! each takes, and how the values land in the plan. An unknown header or
//! key, a key set twice, a missing required key or a mistyped value is an
//! error naming its 1-based line: a plan that silently dropped half its
//! faults would invalidate every experiment run on it.

use std::fmt;

/// A plan file failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// The 1-based line at fault.
    pub line: usize,
    /// What is wrong there.
    pub message: String,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PlanError {}

fn error(line: usize, message: String) -> PlanError {
    PlanError { line, message }
}

/// How a table's values land in the plan `P`.
#[derive(Debug, Clone, Copy)]
pub enum Load<P> {
    /// Each value loads as it is read, so a bad value is reported before
    /// anything on a later line.
    Each(fn(&mut P, &Value<'_>) -> Result<(), PlanError>),
    /// Each table or entry is built, in file order, once the whole file
    /// is read, so it can require keys.
    Entry(fn(&mut P, &Entry<'_>) -> Result<(), PlanError>),
}

/// One table of a plan format.
#[derive(Debug, Clone, Copy)]
pub struct Table<P> {
    /// `""` for the top level, `"[name]"` for a table (a repeated header
    /// continues it), `"[[name]]"` for an array (each header opens a new
    /// entry).
    pub header: &'static str,
    /// The keys it accepts.
    pub keys: &'static [&'static str],
    /// How its values land in the plan.
    pub load: Load<P>,
}

/// One `key = value` as written.
#[derive(Debug, Clone, Copy)]
pub struct Value<'a> {
    /// The key.
    pub key: &'a str,
    /// The value text, trimmed.
    pub raw: &'a str,
    /// 1-based line of the assignment.
    pub line: usize,
    /// 1-based line of the enclosing header (0 at the top level).
    pub header_line: usize,
}

impl Value<'_> {
    /// The error for a value that does not parse as its key's type.
    pub fn invalid(&self) -> PlanError {
        let (raw, key) = (self.raw, self.key);
        error(self.line, format!("cannot parse '{raw}' for key '{key}'"))
    }

    /// The value as an unsigned integer.
    pub fn u64(&self) -> Result<u64, PlanError> {
        self.raw.parse().map_err(|_| self.invalid())
    }

    /// The value as a finite float (`inf` and `nan` are rejected).
    pub fn f64(&self) -> Result<f64, PlanError> {
        match self.raw.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(self.invalid()),
        }
    }

    /// The text inside a double-quoted string.
    pub fn string(&self) -> Result<&str, PlanError> {
        self.raw
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .filter(|s| !s.contains('"'))
            .ok_or_else(|| self.invalid())
    }
}

/// One table or `[[array]]` entry, read whole.
#[derive(Debug, Clone)]
pub struct Entry<'a> {
    table: &'static str,
    /// 1-based line of the header (0 at the top level).
    pub line: usize,
    values: Vec<Value<'a>>,
}

impl<'a> Entry<'a> {
    fn new(table: &'static str, line: usize) -> Self {
        Entry {
            table,
            line,
            values: Vec::new(),
        }
    }

    /// The value of `key`, if set.
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        self.values.iter().find(|v| v.key == key)
    }

    /// The value of a required `key`; missing, the error names the
    /// entry's header line.
    pub fn require(&self, key: &str) -> Result<&Value<'a>, PlanError> {
        self.get(key).ok_or_else(|| {
            let table = self.table;
            error(self.line, format!("{table} entry is missing key '{key}'"))
        })
    }
}

/// `"the top level"` or the header as declared.
fn describe(header: &str) -> &str {
    if header.is_empty() {
        "the top level"
    } else {
        header
    }
}

/// Strips a trailing `#` comment, honouring double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// The `(is_array, name)` a `[[name]]` or `[name]` line opens.
fn parse_header(line: &str) -> Option<(bool, &str)> {
    if let Some(name) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
        return Some((true, name.trim()));
    }
    Some((false, line.strip_prefix('[')?.strip_suffix(']')?.trim()))
}

/// Reads `text` into `plan` under the format `tables`.
///
/// # Errors
///
/// The first [`PlanError`] in file order, except that [`Load::Entry`]
/// tables report theirs after the whole file is read.
pub fn read<P>(text: &str, mut plan: P, tables: &[Table<P>]) -> Result<P, PlanError> {
    // (index into `tables`, entry); `current` indexes this list.
    let mut entries: Vec<(usize, Entry<'_>)> = Vec::new();
    let mut current = None;
    for (line, raw_line) in (1..).zip(text.lines()) {
        let content = strip_comment(raw_line).trim();
        if content.is_empty() {
            continue;
        }
        if let Some(header) = parse_header(content) {
            let Some(t) = tables
                .iter()
                .position(|t| parse_header(t.header) == Some(header))
            else {
                let known: Vec<&str> = tables
                    .iter()
                    .map(|t| t.header)
                    .filter(|h| !h.is_empty())
                    .collect();
                let message = format!("unknown table {content} (expected {})", known.join(", "));
                return Err(error(line, message));
            };
            let reopened = (!header.0)
                .then(|| entries.iter().position(|(table, _)| *table == t))
                .flatten();
            current = Some(reopened.unwrap_or_else(|| {
                entries.push((t, Entry::new(tables[t].header, line)));
                entries.len() - 1
            }));
            continue;
        }
        let Some((key, raw)) = content.split_once('=') else {
            let message = format!("expected a header or key = value, got '{content}'");
            return Err(error(line, message));
        };
        let (key, raw) = (key.trim(), raw.trim());
        let slot = match current {
            Some(slot) => slot,
            None => {
                let top = tables.iter().position(|t| t.header.is_empty());
                let Some(top) = top else {
                    return Err(error(line, format!("the top level has no key '{key}'")));
                };
                entries.push((top, Entry::new("", 0)));
                *current.insert(entries.len() - 1)
            }
        };
        let (t, entry) = &mut entries[slot];
        let table = &tables[*t];
        let name = describe(table.header);
        if !table.keys.contains(&key) {
            return Err(error(line, format!("{name} has no key '{key}'")));
        }
        if entry.get(key).is_some() {
            return Err(error(line, format!("{name} sets key '{key}' twice")));
        }
        if raw.is_empty() {
            return Err(error(line, format!("key '{key}' has no value")));
        }
        let header_line = entry.line;
        let value = Value {
            key,
            raw,
            line,
            header_line,
        };
        if let Load::Each(load) = table.load {
            load(&mut plan, &value)?;
        }
        entry.values.push(value);
    }
    for (t, entry) in &entries {
        if let Load::Entry(build) = tables[*t].load {
            build(&mut plan, entry)?;
        }
    }
    Ok(plan)
}
