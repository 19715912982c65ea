//! Fault-plan files: the schema of `--faults`, read by
//! [`crate::plan_file`].
//!
//! ```toml
//! # seller 2 delivers only 40% of its commitment in round 3
//! [[defaults]]
//! round = 3
//! seller = 2
//! delivered_fraction = 0.4
//!
//! [[crashes]]
//! seller = 1
//! from = 2      # inclusive
//! until = 5     # exclusive
//!
//! [[dropouts]]
//! indicator = "rate"   # waiting | processing | rate
//! from = 0
//! until = 4
//! ```
//!
//! Three arrays of tables; each entry is built once the whole file is
//! read, and every key of an entry is required.

use crate::plan_file::{read, Entry, Load, PlanError, Table};
use edge_auction::recovery::{CrashWindow, DefaultEvent, DropoutWindow, FaultPlan};
use edge_common::id::MicroserviceId;
use edge_common::indicator::Indicator;

/// The `--faults` format.
const TABLES: &[Table<FaultPlan>] = &[
    Table {
        header: "[[defaults]]",
        keys: &["round", "seller", "delivered_fraction"],
        load: Load::Entry(|plan, entry| {
            plan.defaults.push(DefaultEvent {
                round: entry.require("round")?.u64()?,
                seller: seller(entry)?,
                delivered_fraction: entry.require("delivered_fraction")?.f64()?,
            });
            Ok(())
        }),
    },
    Table {
        header: "[[crashes]]",
        keys: &["seller", "from", "until"],
        load: Load::Entry(|plan, entry| {
            plan.crashes.push(CrashWindow {
                seller: seller(entry)?,
                from: entry.require("from")?.u64()?,
                until: entry.require("until")?.u64()?,
            });
            Ok(())
        }),
    },
    Table {
        header: "[[dropouts]]",
        keys: &["indicator", "from", "until"],
        load: Load::Entry(|plan, entry| {
            let value = entry.require("indicator")?;
            let name = value.string()?;
            plan.dropouts.push(DropoutWindow {
                indicator: name.parse::<Indicator>().map_err(|_| PlanError {
                    line: value.line,
                    message: format!("cannot parse '{name}' for key 'indicator'"),
                })?,
                from: entry.require("from")?.u64()?,
                until: entry.require("until")?.u64()?,
            });
            Ok(())
        }),
    },
];

/// An entry's `seller` index.
fn seller(entry: &Entry<'_>) -> Result<MicroserviceId, PlanError> {
    let value = entry.require("seller")?;
    let index = usize::try_from(value.u64()?).map_err(|_| value.invalid())?;
    Ok(MicroserviceId::new(index))
}

/// Parses a fault-plan file into the core [`FaultPlan`].
///
/// # Errors
///
/// A [`PlanError`] naming the offending line.
pub fn parse_fault_plan(text: &str) -> Result<FaultPlan, PlanError> {
    read(text, FaultPlan::empty(), TABLES)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
# a three-event plan
[[defaults]]
round = 3
seller = 2
delivered_fraction = 0.4   # partial delivery

[[crashes]]
seller = 1
from = 2
until = 5

[[dropouts]]
indicator = "rate"
from = 0
until = 4
"#;

    /// The error `text` fails with, as `(line, message)`.
    fn err(text: &str) -> (usize, String) {
        let e = parse_fault_plan(text).unwrap_err();
        (e.line, e.message)
    }

    #[test]
    fn parses_a_full_plan() {
        let plan = parse_fault_plan(GOOD).unwrap();
        assert_eq!(plan.defaults.len(), 1);
        assert_eq!(plan.crashes.len(), 1);
        assert_eq!(plan.dropouts.len(), 1);
        let d = &plan.defaults[0];
        assert_eq!((d.round, d.seller), (3, MicroserviceId::new(2)));
        assert!((d.delivered_fraction - 0.4).abs() < 1e-12);
        let c = &plan.crashes[0];
        assert_eq!((c.seller, c.from, c.until), (MicroserviceId::new(1), 2, 5));
        let o = &plan.dropouts[0];
        assert_eq!((o.indicator, o.from, o.until), (Indicator::Rate, 0, 4));
        // And the plan answers queries the way the file reads.
        assert_eq!(
            plan.delivered_fraction(3, MicroserviceId::new(2)),
            Some(0.4)
        );
        assert!(plan.crashed(4, MicroserviceId::new(1)));
        assert!(!plan.observed(2).contains(Indicator::Rate));
    }

    #[test]
    fn empty_and_comment_only_files_are_empty_plans() {
        assert!(parse_fault_plan("").unwrap().is_empty());
        assert!(parse_fault_plan("# nothing\n\n  # more nothing\n")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn multiple_entries_per_table_accumulate() {
        let text = "[[defaults]]\nround = 0\nseller = 0\ndelivered_fraction = 0\n\
                    [[defaults]]\nround = 1\nseller = 1\ndelivered_fraction = 1";
        let plan = parse_fault_plan(text).unwrap();
        assert_eq!(plan.defaults.len(), 2);
    }

    #[test]
    fn errors_name_the_offending_line() {
        let e = parse_fault_plan("[[defaults]]\nround = 3\nbogus = 1").unwrap_err();
        assert_eq!(e.to_string(), "line 3: [[defaults]] has no key 'bogus'");
        assert_eq!(
            err("[[oops]]"),
            (
                1,
                "unknown table [[oops]] (expected [[defaults]], [[crashes]], [[dropouts]])".into()
            )
        );
        // A single-bracket header is a table this format does not have.
        let (line, message) = err("\n[defaults]");
        assert_eq!(line, 2);
        assert!(message.starts_with("unknown table [defaults]"), "{message}");
        assert_eq!(
            err("round = 3"),
            (1, "the top level has no key 'round'".into())
        );
        let (line, message) = err("[[crashes]]\nnot a pair");
        assert_eq!(line, 2);
        assert!(message.starts_with("expected a header or key = value"));
    }

    #[test]
    fn missing_required_key_names_the_entry_header() {
        assert_eq!(
            err("\n[[crashes]]\nseller = 1\nfrom = 2"),
            (2, "[[crashes]] entry is missing key 'until'".into())
        );
    }

    #[test]
    fn bad_values_are_rejected() {
        let bad_int = "[[crashes]]\nseller = -1\nfrom = 0\nuntil = 1";
        assert_eq!(
            err(bad_int),
            (2, "cannot parse '-1' for key 'seller'".into())
        );
        let bad_frac = "[[defaults]]\nround = 0\nseller = 0\ndelivered_fraction = inf";
        assert_eq!(
            err(bad_frac),
            (4, "cannot parse 'inf' for key 'delivered_fraction'".into())
        );
        let bad_ind = "[[dropouts]]\nindicator = \"latency\"\nfrom = 0\nuntil = 1";
        assert_eq!(
            err(bad_ind),
            (2, "cannot parse 'latency' for key 'indicator'".into())
        );
        let unquoted = "[[dropouts]]\nindicator = rate\nfrom = 0\nuntil = 1";
        assert_eq!(
            err(unquoted),
            (2, "cannot parse 'rate' for key 'indicator'".into())
        );
    }

    #[test]
    fn duplicate_key_within_an_entry_is_rejected() {
        assert_eq!(
            err("[[crashes]]\nseller = 1\nseller = 2"),
            (3, "[[crashes]] sets key 'seller' twice".into())
        );
        // A new entry of the same table may set it again.
        let text = "[[crashes]]\nseller = 1\nfrom = 0\nuntil = 1\n\
                    [[crashes]]\nseller = 2\nfrom = 0\nuntil = 1";
        assert_eq!(parse_fault_plan(text).unwrap().crashes.len(), 2);
    }

    #[test]
    fn hash_inside_quoted_string_is_not_a_comment() {
        let text = "[[dropouts]]\nindicator = \"ra#te\"\nfrom = 0\nuntil = 1";
        // The '#' survives comment stripping and then fails indicator
        // parsing — proving it was not treated as a comment start.
        assert_eq!(
            err(text),
            (2, "cannot parse 'ra#te' for key 'indicator'".into())
        );
    }
}
