//! Net-fault-plan files: the schema of `--net-faults`, read by
//! [`crate::plan_file`].
//!
//! ```toml
//! seed = 7                     # optional; defaults to --seed
//!
//! [link]                       # optional; defaults to the ideal link
//! latency_min = 1
//! latency_max = 3
//! drop_probability = 0.3
//! duplicate_probability = 0.05
//! reorder_probability = 0.1
//! reorder_max_extra = 2
//!
//! [[partitions]]
//! from = 4        # inclusive
//! until = 20      # exclusive (the heal tick); omit for "never heals"
//! isolated = 2    # the platform cut off from everyone
//! ```
//!
//! The top-level `seed` and the `[link]` keys load as they are read;
//! `[[partitions]]` entries are built once the whole file is read. The
//! assembled plan then runs [`NetFaultPlan::validate`], whose rejection
//! names the `[link]` or `[[partitions]]` header it concerns.

use crate::plan_file::{read, Load, PlanError, Table};
use edge_net::{NetConfigError, NetFaultPlan, PartitionWindow};

/// A plan mid-read, with the header lines validation errors name.
#[derive(Debug)]
struct Draft {
    plan: NetFaultPlan,
    link_line: usize,
    partition_lines: Vec<usize>,
}

/// The `--net-faults` format.
const TABLES: &[Table<Draft>] = &[
    Table {
        header: "",
        keys: &["seed"],
        load: Load::Each(|draft, value| {
            draft.plan.seed = value.u64()?;
            Ok(())
        }),
    },
    Table {
        header: "[link]",
        keys: &[
            "latency_min",
            "latency_max",
            "drop_probability",
            "duplicate_probability",
            "reorder_probability",
            "reorder_max_extra",
        ],
        load: Load::Each(|draft, value| {
            let link = &mut draft.plan.link;
            match value.key {
                "latency_min" => link.latency_min = value.u64()?,
                "latency_max" => link.latency_max = value.u64()?,
                "drop_probability" => link.drop_probability = value.f64()?,
                "duplicate_probability" => link.duplicate_probability = value.f64()?,
                "reorder_probability" => link.reorder_probability = value.f64()?,
                "reorder_max_extra" => link.reorder_max_extra = value.u64()?,
                key => unreachable!("the reader admits only the keys above, not '{key}'"),
            }
            draft.link_line = value.header_line;
            Ok(())
        }),
    },
    Table {
        header: "[[partitions]]",
        keys: &["from", "until", "isolated"],
        load: Load::Entry(|draft, entry| {
            let from = entry.require("from")?;
            let isolated = entry.require("isolated")?;
            // An absent heal tick means "never heals".
            let until = match entry.get("until") {
                Some(value) => value.u64()?,
                None => u64::MAX,
            };
            draft.plan.partitions.push(PartitionWindow {
                from: from.u64()?,
                until,
                isolated: usize::try_from(isolated.u64()?).map_err(|_| isolated.invalid())?,
            });
            draft.partition_lines.push(entry.line);
            Ok(())
        }),
    },
];

/// Parses a net-fault-plan file into a [`NetFaultPlan`].
///
/// `default_seed` is used when the file has no top-level `seed`;
/// `platforms` bounds partition `isolated` indices during validation.
///
/// # Errors
///
/// A [`PlanError`] naming the offending line.
pub fn parse_net_fault_plan(
    text: &str,
    default_seed: u64,
    platforms: usize,
) -> Result<NetFaultPlan, PlanError> {
    let draft = Draft {
        plan: NetFaultPlan::ideal(default_seed),
        link_line: 0,
        partition_lines: Vec::new(),
    };
    let draft = read(text, draft, TABLES)?;
    let invalid = |e: NetConfigError| PlanError {
        line: match e {
            NetConfigError::Partition { index, .. } => draft.partition_lines[index],
            _ => draft.link_line,
        },
        message: format!("invalid plan: {e}"),
    };
    draft.plan.validate(platforms).map_err(invalid)?;
    Ok(draft.plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r"
seed = 7

[link]               # a moderately hostile link
latency_min = 1
latency_max = 3
drop_probability = 0.3
duplicate_probability = 0.05
reorder_probability = 0.1
reorder_max_extra = 2

[[partitions]]
from = 4
until = 20
isolated = 2

[[partitions]]       # never heals
from = 30
isolated = 0
";

    /// The error `text` fails with, as `(line, message)`.
    fn err(text: &str) -> (usize, String) {
        let e = parse_net_fault_plan(text, 0, 3).unwrap_err();
        (e.line, e.message)
    }

    #[test]
    fn parses_a_full_plan() {
        let plan = parse_net_fault_plan(GOOD, 99, 3).unwrap();
        assert_eq!(plan.seed, 7, "file seed wins over the default");
        assert_eq!((plan.link.latency_min, plan.link.latency_max), (1, 3));
        assert!((plan.link.drop_probability - 0.3).abs() < 1e-12);
        assert_eq!(plan.link.reorder_max_extra, 2);
        assert_eq!(plan.partitions.len(), 2);
        assert_eq!(plan.partitions[0].until, 20);
        assert_eq!(plan.partitions[1].until, u64::MAX, "no heal tick");
        assert!(plan.is_partitioned(2, 0, 10));
        assert!(!plan.is_partitioned(2, 0, 25));
    }

    #[test]
    fn empty_file_is_the_ideal_plan_with_the_default_seed() {
        let plan = parse_net_fault_plan("# nothing\n", 42, 3).unwrap();
        assert_eq!(plan.seed, 42);
        assert!(plan.is_ideal());
    }

    #[test]
    fn errors_name_the_offending_line() {
        let e = parse_net_fault_plan("[link]\nbogus = 1", 0, 3).unwrap_err();
        assert_eq!(e.to_string(), "line 2: [link] has no key 'bogus'");
        let expected = "(expected [link], [[partitions]])";
        assert_eq!(
            err("[oops]"),
            (1, format!("unknown table [oops] {expected}"))
        );
        assert_eq!(
            err("[[oops]]"),
            (1, format!("unknown table [[oops]] {expected}"))
        );
        // `[ [partitions] ]` is a table named "[partitions]", not the array.
        assert_eq!(
            err("[ [partitions] ]"),
            (1, format!("unknown table [ [partitions] ] {expected}"))
        );
        assert_eq!(
            err("latency_min = 2"),
            (1, "the top level has no key 'latency_min'".into())
        );
        assert_eq!(
            err("[link]\nnot a pair"),
            (
                2,
                "expected a header or key = value, got 'not a pair'".into()
            )
        );
        assert_eq!(
            err("[link]\ndrop_probability = lots"),
            (2, "cannot parse 'lots' for key 'drop_probability'".into())
        );
    }

    #[test]
    fn missing_partition_key_names_the_entry_header() {
        assert_eq!(
            err("\n[[partitions]]\nfrom = 1"),
            (2, "[[partitions]] entry is missing key 'isolated'".into())
        );
    }

    #[test]
    fn semantic_validation_still_runs() {
        // isolated = 9 is out of range for a 3-platform federation; the
        // error names that entry's header.
        let text = "[[partitions]]\nfrom = 0\nisolated = 0\n[[partitions]]\nfrom = 0\nisolated = 9";
        let (line, message) = err(text);
        assert_eq!(line, 4);
        assert!(message.starts_with("invalid plan: invalid partition window #1"));
        // drop probability over 1 fails link validation at [link].
        let (line, message) = err("seed = 1\n[link]\ndrop_probability = 1.5");
        assert_eq!(line, 2);
        assert!(message.starts_with("invalid plan: invalid link model"));
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        assert_eq!(
            err("seed = 1\nseed = 2"),
            (2, "the top level sets key 'seed' twice".into())
        );
        let twice = "[link] sets key 'latency_min' twice";
        assert_eq!(
            err("[link]\nlatency_min = 1\nlatency_min = 2"),
            (3, twice.into())
        );
        // A repeated [link] header continues the same table.
        assert_eq!(
            err("[link]\nlatency_min = 1\n[link]\nlatency_min = 2"),
            (4, twice.into())
        );
    }
}
