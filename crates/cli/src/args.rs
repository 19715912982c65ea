//! Minimal, dependency-free argument parsing.
//!
//! The CLI speaks `edge-market <command> [--flag value]...`. Flags are
//! order-insensitive, every flag takes exactly one value, and unknown
//! flags are errors (catching typos beats silently ignoring them).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Commands that take one positional argument right after their name
/// (`edge-market bench diff ...`, `edge-market replay log.jsonl`).
/// Every other command still rejects positionals outright.
const COMMANDS_WITH_SUBCOMMAND: &[&str] = &["bench", "replay"];

/// Flags that are boolean switches: they take no value and parse as
/// `"true"` (`edge-market explain --summary --trace t.jsonl`).
const BOOLEAN_SWITCHES: &[&str] = &["summary", "deals", "profile"];

/// A parsed command line: the subcommand plus its flag map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedArgs {
    /// The subcommand name.
    pub command: String,
    /// The positional sub-subcommand, for the commands that take one
    /// (see [`COMMANDS_WITH_SUBCOMMAND`]).
    pub subcommand: Option<String>,
    flags: BTreeMap<String, String>,
}

/// Errors from argument parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// No subcommand given.
    MissingCommand,
    /// A flag was given without a value.
    MissingValue(String),
    /// A positional argument appeared where a flag was expected.
    UnexpectedPositional(String),
    /// A flag appeared twice.
    DuplicateFlag(String),
    /// A required flag is absent.
    MissingFlag(&'static str),
    /// A flag value failed to parse.
    InvalidValue {
        /// Which flag.
        flag: String,
        /// The raw value.
        value: String,
    },
    /// A flag value parsed but lies outside what the command accepts.
    OutOfRange {
        /// Which flag.
        flag: &'static str,
        /// The raw value.
        value: String,
        /// What the command accepts, and why.
        expected: &'static str,
    },
    /// A flag is not recognized by the command.
    UnknownFlag(String),
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::MissingCommand => write!(f, "no command given; try `edge-market help`"),
            ArgsError::MissingValue(flag) => write!(f, "flag --{flag} needs a value"),
            ArgsError::UnexpectedPositional(arg) => {
                write!(
                    f,
                    "unexpected argument '{arg}' (flags look like --name value)"
                )
            }
            ArgsError::DuplicateFlag(flag) => write!(f, "flag --{flag} given twice"),
            ArgsError::MissingFlag(flag) => write!(f, "required flag --{flag} is missing"),
            ArgsError::InvalidValue { flag, value } => {
                write!(f, "cannot parse '{value}' for flag --{flag}")
            }
            ArgsError::OutOfRange {
                flag,
                value,
                expected,
            } => write!(f, "flag --{flag} {value} is out of range: {expected}"),
            ArgsError::UnknownFlag(flag) => write!(f, "unknown flag --{flag}"),
        }
    }
}

impl Error for ArgsError {}

impl ParsedArgs {
    /// Parses `args` (excluding the program name).
    ///
    /// # Errors
    ///
    /// See [`ArgsError`].
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgsError> {
        let mut it = args.into_iter();
        let command = it.next().ok_or(ArgsError::MissingCommand)?;
        let mut subcommand = None;
        let mut flags = BTreeMap::new();
        let mut first = true;
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                if first && COMMANDS_WITH_SUBCOMMAND.contains(&command.as_str()) {
                    subcommand = Some(arg);
                    first = false;
                    continue;
                }
                return Err(ArgsError::UnexpectedPositional(arg));
            };
            first = false;
            let value = if BOOLEAN_SWITCHES.contains(&name) {
                "true".to_owned()
            } else {
                it.next()
                    .ok_or_else(|| ArgsError::MissingValue(name.to_owned()))?
            };
            if flags.insert(name.to_owned(), value).is_some() {
                return Err(ArgsError::DuplicateFlag(name.to_owned()));
            }
        }
        Ok(ParsedArgs {
            command,
            subcommand,
            flags,
        })
    }

    /// Returns a flag's raw value.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// Returns a required flag or an error naming it.
    ///
    /// # Errors
    ///
    /// [`ArgsError::MissingFlag`] when absent.
    pub fn require(&self, flag: &'static str) -> Result<&str, ArgsError> {
        self.get(flag).ok_or(ArgsError::MissingFlag(flag))
    }

    /// Parses a flag into any `FromStr` type, with a default when
    /// absent.
    ///
    /// # Errors
    ///
    /// [`ArgsError::InvalidValue`] when present but unparseable.
    pub fn get_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, ArgsError> {
        match self.get(flag) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgsError::InvalidValue {
                flag: flag.to_owned(),
                value: raw.to_owned(),
            }),
        }
    }

    /// Rejects any flag not in the allow list.
    ///
    /// # Errors
    ///
    /// [`ArgsError::UnknownFlag`] naming the first unknown flag.
    pub fn allow_only(&self, allowed: &[&str]) -> Result<(), ArgsError> {
        for flag in self.flags.keys() {
            if !allowed.contains(&flag.as_str()) {
                return Err(ArgsError::UnknownFlag(flag.clone()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ParsedArgs, ArgsError> {
        ParsedArgs::parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_command_and_flags() {
        let p = parse(&["msoa", "--input", "x.json", "--variant", "da"]).unwrap();
        assert_eq!(p.command, "msoa");
        assert_eq!(p.subcommand, None);
        assert_eq!(p.get("input"), Some("x.json"));
        assert_eq!(p.get("variant"), Some("da"));
        assert_eq!(p.get("missing"), None);
    }

    #[test]
    fn bench_takes_a_subcommand_and_switches_take_no_value() {
        let p = parse(&["bench", "diff", "--tolerance", "0.5"]).unwrap();
        assert_eq!(p.command, "bench");
        assert_eq!(p.subcommand.as_deref(), Some("diff"));
        assert_eq!(p.get("tolerance"), Some("0.5"));
        // `replay` takes its log path positionally.
        let p = parse(&["replay", "run.jsonl", "--trace", "t.jsonl"]).unwrap();
        assert_eq!(p.subcommand.as_deref(), Some("run.jsonl"));
        // Only the first position is a subcommand slot.
        assert_eq!(
            parse(&["bench", "diff", "extra"]),
            Err(ArgsError::UnexpectedPositional("extra".into()))
        );
        // `--summary` is a boolean switch: it consumes no value.
        let p = parse(&["explain", "--summary", "--trace", "t.jsonl"]).unwrap();
        assert_eq!(p.get("summary"), Some("true"));
        assert_eq!(p.get("trace"), Some("t.jsonl"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert_eq!(parse(&[]), Err(ArgsError::MissingCommand));
        assert_eq!(
            parse(&["ssam", "--input"]),
            Err(ArgsError::MissingValue("input".into()))
        );
        assert_eq!(
            parse(&["ssam", "positional"]),
            Err(ArgsError::UnexpectedPositional("positional".into()))
        );
        assert_eq!(
            parse(&["ssam", "--a", "1", "--a", "2"]),
            Err(ArgsError::DuplicateFlag("a".into()))
        );
    }

    #[test]
    fn typed_accessors() {
        let p = parse(&["generate", "--seed", "7"]).unwrap();
        assert_eq!(p.get_or("seed", 0u64).unwrap(), 7);
        assert_eq!(p.get_or("rounds", 10u64).unwrap(), 10);
        // Repeated typed access must keep succeeding (no consumption).
        assert!(p.get_or::<u64>("seed", 0).is_ok());
        assert!(p.get_or::<u64>("seed", 0).is_ok());
        let bad = parse(&["generate", "--seed", "seven"]).unwrap();
        assert!(matches!(
            bad.get_or::<u64>("seed", 0),
            Err(ArgsError::InvalidValue { .. })
        ));
    }

    #[test]
    fn require_and_allowlist() {
        let p = parse(&["ssam", "--input", "x.json", "--oops", "1"]).unwrap();
        assert_eq!(p.require("input").unwrap(), "x.json");
        assert_eq!(p.require("output"), Err(ArgsError::MissingFlag("output")));
        assert_eq!(
            p.allow_only(&["input"]),
            Err(ArgsError::UnknownFlag("oops".into()))
        );
        assert!(p.allow_only(&["input", "oops"]).is_ok());
    }

    #[test]
    fn error_messages_are_actionable() {
        assert!(ArgsError::MissingFlag("input")
            .to_string()
            .contains("--input"));
        assert!(ArgsError::UnknownFlag("xyz".into())
            .to_string()
            .contains("--xyz"));
    }
}
