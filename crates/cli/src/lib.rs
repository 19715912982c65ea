//! Command-line front end for the `edge-market` workspace.
//!
//! The binary is a thin wrapper over [`commands::run`], so everything —
//! argument parsing, command dispatch, rendering — is testable as a
//! library:
//!
//! ```
//! use edge_market_cli::args::ParsedArgs;
//! use edge_market_cli::commands::run;
//!
//! let parsed = ParsedArgs::parse(["help".to_owned()]).unwrap();
//! let output = run(parsed).unwrap();
//! assert!(output.contains("edge-market"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod args;
pub mod bench_diff;
pub mod commands;
pub mod explain;
pub mod faults;
pub mod fed_explain;
pub mod federate;
pub mod netfaults;
pub mod plan_file;
pub mod profile;
pub mod replay;
pub mod serve;
