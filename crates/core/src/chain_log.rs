//! The digest-chained JSONL log: one codec for the service event log
//! and the federation log.
//!
//! Line 1 is `{"v":V,"seq":0,"digest":"<16 hex>","<key>":<header>}`,
//! every later line `{"v":V,"seq":n,"digest":"<16 hex>","event":<event>}`.
//! The header digest is [`chain_genesis`] over the format's tag, `V` and
//! the header's canonical JSON; record `n`'s digest is [`chain_step`]
//! over record `n − 1`'s digest, `n` and the event's canonical JSON. A
//! [`Format`] names the types, the tag, `V` and the header key:
//! [`crate::service::EventLog`] and [`crate::federation::FedChain`].
//!
//! [`parse`] checks the version on every line, contiguous sequence
//! numbers and the whole chain, so a truncation or a tampered byte is
//! reported at the exact record; in lenient-tail mode a malformed last
//! line — a writer killed mid-line — is dropped instead.

use crate::service::ServiceError;
use edge_common::rng::{chain_genesis, chain_step};
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::io::Write;
use std::marker::PhantomData;

/// One chained-JSONL log format.
pub trait Format {
    /// Domain separator hashed into the genesis digest.
    const TAG: &'static str;
    /// The schema version written on, and required of, every line.
    const VERSION: u32;
    /// The envelope key that carries the header on line 1.
    const HEADER_KEY: &'static str;
    /// What line 1 carries.
    type Header: Serialize + Deserialize + Clone + fmt::Debug + PartialEq;
    /// What every later line carries.
    type Event: Serialize + Deserialize + Clone + fmt::Debug + PartialEq;
}

/// One chain-verified record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record<E> {
    /// Sequence number (1-based; 0 is the header).
    pub seq: u64,
    /// The chain digest after folding this record.
    pub digest: u64,
    /// The event.
    pub event: E,
}

/// A parsed, chain-verified log.
#[derive(Debug, Clone, PartialEq)]
pub struct Log<F: Format> {
    /// Line 1's header.
    pub header: F::Header,
    /// Every record, in sequence order.
    pub records: Vec<Record<F::Event>>,
    /// `true` when lenient parsing dropped a malformed last line.
    pub truncated_tail: bool,
}

/// Reading, verifying, or replaying a log failed.
#[derive(Debug)]
pub enum LogError {
    /// I/O while reading or appending.
    Io(std::io::Error),
    /// The first line is not a well-formed header of the format.
    MissingHeader,
    /// A line's version is not the format's.
    UnknownVersion {
        /// The version found.
        version: u64,
        /// The version this build reads.
        expected: u32,
    },
    /// A line failed to parse as a log record.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        detail: String,
    },
    /// A record's digest does not extend the chain.
    DigestMismatch {
        /// The record's sequence number.
        seq: u64,
        /// The digest the chain requires.
        expected: u64,
        /// The digest on the record.
        found: String,
    },
    /// Sequence numbers are not contiguous.
    SeqGap {
        /// The sequence number the chain requires.
        expected: u64,
        /// The sequence number found.
        found: u64,
    },
    /// A replayed event was rejected: the log does not belong to its
    /// header's configuration (or was tampered with).
    RejectedEvent {
        /// The record's sequence number.
        seq: u64,
        /// The admission error.
        source: ServiceError,
    },
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "log io error: {e}"),
            LogError::MissingHeader => write!(f, "the first record is not a well-formed header"),
            LogError::UnknownVersion { version, expected } => {
                write!(
                    f,
                    "unknown log version {version} (this build reads v{expected})"
                )
            }
            LogError::Malformed { line, detail } => {
                write!(f, "malformed log record at line {line}: {detail}")
            }
            LogError::DigestMismatch {
                seq,
                expected,
                found,
            } => write!(
                f,
                "digest chain broken at seq {seq}: expected {expected:016x}, found {found}"
            ),
            LogError::SeqGap { expected, found } => {
                write!(f, "sequence gap: expected seq {expected}, found {found}")
            }
            LogError::RejectedEvent { seq, source } => {
                write!(f, "replayed event at seq {seq} was rejected: {source}")
            }
        }
    }
}

impl std::error::Error for LogError {}

impl From<std::io::Error> for LogError {
    fn from(e: std::io::Error) -> Self {
        LogError::Io(e)
    }
}

/// The head of a digest chain: the last sequence number and digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Chain {
    seq: u64,
    digest: u64,
}

impl Chain {
    /// The chain seeded from `header` (sequence number 0).
    pub(crate) fn start<F: Format>(header: &F::Header) -> Self {
        Self::from_json::<F>(&to_json(header))
    }

    fn from_json<F: Format>(header_json: &str) -> Self {
        let digest = chain_genesis(F::TAG, u64::from(F::VERSION), header_json.as_bytes());
        Chain { seq: 0, digest }
    }

    /// Folds the next record's event JSON; returns its seq and digest.
    pub(crate) fn push(&mut self, event_json: &str) -> (u64, u64) {
        self.seq += 1;
        self.digest = chain_step(self.digest, self.seq, event_json.as_bytes());
        (self.seq, self.digest)
    }

    /// The current head digest.
    pub(crate) fn digest(&self) -> u64 {
        self.digest
    }
}

/// Canonical JSON; the shim's serializer cannot fail.
fn to_json<T: Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("serialization is infallible")
}

/// Writes a log: the header on construction, then one flushed line per
/// record, so a crash loses at most the line being written.
#[derive(Debug)]
pub struct Writer<F, W: Write> {
    out: W,
    chain: Chain,
    format: PhantomData<F>,
}

impl<F: Format, W: Write> Writer<F, W> {
    /// Writes the header line for `header` and returns the writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn new(mut out: W, header: &F::Header) -> Result<Self, LogError> {
        let header = to_json(header);
        let chain = Chain::from_json::<F>(&header);
        let (v, digest, key) = (F::VERSION, chain.digest, F::HEADER_KEY);
        writeln!(
            out,
            "{{\"v\":{v},\"seq\":0,\"digest\":\"{digest:016x}\",\"{key}\":{header}}}"
        )?;
        out.flush()?;
        let format = PhantomData;
        Ok(Writer { out, chain, format })
    }

    /// Appends one event, returning its sequence number and digest.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn append(&mut self, event: &F::Event) -> Result<(u64, u64), LogError> {
        let event = to_json(event);
        let (seq, digest) = self.chain.push(&event);
        let v = F::VERSION;
        writeln!(
            self.out,
            "{{\"v\":{v},\"seq\":{seq},\"digest\":\"{digest:016x}\",\"event\":{event}}}"
        )?;
        self.out.flush()?;
        Ok((seq, digest))
    }

    /// Records appended so far (excluding the header).
    pub fn len(&self) -> u64 {
        self.chain.seq
    }

    /// `true` while only the header has been written.
    pub fn is_empty(&self) -> bool {
        self.chain.seq == 0
    }
}

/// Renders a whole log — `header`, then `events` in order — as text.
pub(crate) fn render<'a, F: Format>(
    header: &F::Header,
    events: impl IntoIterator<Item = &'a F::Event>,
) -> String
where
    F::Event: 'a,
{
    let mut out = Vec::new();
    let mut writer = Writer::<F, _>::new(&mut out, header).expect("writing to memory");
    for event in events {
        writer.append(event).expect("writing to memory");
    }
    String::from_utf8(out).expect("JSON is UTF-8")
}

/// True when the first non-blank line of `text` is JSON carrying the
/// format's header key: how `replay` and `explain` tell a federation
/// log from an event log or a trace.
pub fn has_header<F: Format>(text: &str) -> bool {
    let first = text.lines().find(|l| !l.trim().is_empty());
    let envelope = first.and_then(|line| serde_json::from_str::<Value>(line).ok());
    envelope.is_some_and(|v| v.get(F::HEADER_KEY).is_some())
}

/// Parses a log, verifying the version on every line, the sequence
/// numbering, and the full digest chain. With `lenient_tail`, a
/// malformed *last* record line is dropped as a mid-write crash
/// ([`Log::truncated_tail`]); corruption anywhere else is an error.
///
/// # Errors
///
/// Any [`LogError`] variant except `Io` and `RejectedEvent`.
pub fn parse<F: Format>(text: &str, lenient_tail: bool) -> Result<Log<F>, LogError> {
    // Every non-blank line with its 1-based line number in `text`.
    let lines: Vec<(usize, &str)> = (1..)
        .zip(text.lines())
        .filter(|(_, l)| !l.trim().is_empty())
        .collect();
    let &(header_no, first) = lines.first().ok_or(LogError::MissingHeader)?;
    let envelope = parse_line(first, header_no)?;
    check_version::<F>(envelope_u64(&envelope, "v").ok_or(LogError::MissingHeader)?)?;
    let header = envelope
        .get(F::HEADER_KEY)
        .and_then(|h| F::Header::deserialize(h).ok())
        .ok_or(LogError::MissingHeader)?;
    let mut chain = Chain::start::<F>(&header);
    let found = envelope_digest(&envelope).ok_or(LogError::MissingHeader)?;
    check_digest(0, chain.digest, found)?;

    let mut records = Vec::with_capacity(lines.len().saturating_sub(1));
    let mut truncated_tail = false;
    for (i, &(line_no, line)) in lines.iter().enumerate().skip(1) {
        match parse_record::<F>(line, line_no, &mut chain) {
            Ok(record) => records.push(record),
            Err(LogError::Malformed { .. }) if lenient_tail && i + 1 == lines.len() => {
                truncated_tail = true;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Log {
        header,
        records,
        truncated_tail,
    })
}

/// Parses one record line and extends `chain` with it.
fn parse_record<F: Format>(
    line: &str,
    line_no: usize,
    chain: &mut Chain,
) -> Result<Record<F::Event>, LogError> {
    let malformed = |detail: String| LogError::Malformed {
        line: line_no,
        detail,
    };
    let missing = |field: &str| malformed(format!("missing `{field}`"));
    let envelope = parse_line(line, line_no)?;
    check_version::<F>(envelope_u64(&envelope, "v").ok_or_else(|| missing("v"))?)?;
    let seq = envelope_u64(&envelope, "seq").ok_or_else(|| missing("seq"))?;
    let found = envelope_digest(&envelope).ok_or_else(|| missing("digest"))?;
    let event = envelope.get("event").ok_or_else(|| missing("event"))?;
    let event = F::Event::deserialize(event).map_err(|e| malformed(e.to_string()))?;
    if seq != chain.seq + 1 {
        let expected = chain.seq + 1;
        return Err(LogError::SeqGap {
            expected,
            found: seq,
        });
    }
    // Writers emit canonical JSON, so re-serializing reproduces the
    // exact digested bytes.
    let (seq, digest) = chain.push(&to_json(&event));
    check_digest(seq, digest, found)?;
    Ok(Record { seq, digest, event })
}

fn parse_line(line: &str, line_no: usize) -> Result<Value, LogError> {
    serde_json::from_str(line).map_err(|e| LogError::Malformed {
        line: line_no,
        detail: e.to_string(),
    })
}

fn check_version<F: Format>(version: u64) -> Result<(), LogError> {
    if version == u64::from(F::VERSION) {
        return Ok(());
    }
    let expected = F::VERSION;
    Err(LogError::UnknownVersion { version, expected })
}

/// Only the exact spelling the writer emits matches.
fn check_digest(seq: u64, expected: u64, found: &str) -> Result<(), LogError> {
    if found == format!("{expected:016x}") {
        return Ok(());
    }
    let found = found.to_owned();
    Err(LogError::DigestMismatch {
        seq,
        expected,
        found,
    })
}

fn envelope_u64(envelope: &Value, key: &str) -> Option<u64> {
    match envelope.get(key) {
        Some(Value::U64(u)) => Some(*u),
        _ => None,
    }
}

/// The envelope's digest field: a 16-character string.
fn envelope_digest(envelope: &Value) -> Option<&str> {
    match envelope.get("digest") {
        Some(Value::Str(s)) if s.len() == 16 => Some(s),
        _ => None,
    }
}
