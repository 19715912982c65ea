//! Scenario-file hardening: `ssam`, `audit` and `msoa --input` rebuild
//! every file through the instance constructors, so a malformed file
//! exits 1 with the constructor's error instead of panicking (exit 101)
//! or running on values the constructors would refuse.

use std::process::Command;

/// Runs the binary on `contents` and asserts a clean exit-1 rejection
/// whose message contains `error`.
fn rejects(args: &[&str], name: &str, contents: &str, error: &str) {
    let path = std::env::temp_dir().join(format!("edge-market-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write scenario");
    let out = Command::new(env!("CARGO_BIN_EXE_edge-market"))
        .args(args)
        .arg("--input")
        .arg(&path)
        .output()
        .expect("binary runs");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?} {name}: {stderr}");
    assert!(stderr.contains(error), "{args:?} {name}: {stderr}");
}

fn bid(seller: u64, id: u64, amount: u64, price: f64) -> String {
    format!(r#"{{"seller":{seller},"id":{id},"amount":{amount},"price":{price:?}}}"#)
}

#[test]
fn malformed_multi_round_files_exit_1_with_the_constructor_error() {
    let file = |window: &str, rounds: &str| {
        format!(r#"{{"sellers":[{{"id":0,"capacity":10,"window":{window}}}],"rounds":[{rounds}]}}"#)
    };
    let round = |bid: String| {
        file(
            "[0,1]",
            &format!(r#"{{"estimated_demand":2,"true_demand":2,"bids":[{bid}]}}"#),
        )
    };
    let twice = r#"{"sellers":[{"id":0,"capacity":10,"window":[0,1]},{"id":0,"capacity":1,"window":[0,1]}],"rounds":[{"estimated_demand":2,"true_demand":2,"bids":[]}]}"#;
    let cases = [
        (round(bid(5, 0, 2, 1.0)), "undeclared seller 5"),
        (twice.to_owned(), "seller table lists seller 0 twice"),
        (file("[0,1]", ""), "instance has no rounds"),
        (round(bid(0, 0, 0, 1.0)), "zero resource units"),
        (round(bid(0, 0, 2, -1.0)), "not a valid price"),
        (file("[3,1]", ""), "window [3, 1] is inverted"),
    ];
    for (i, (contents, error)) in cases.iter().enumerate() {
        for args in [
            &["msoa"][..],
            &["msoa", "--variant", "da"],
            &["msoa", "--recovery", "on"],
            &["msoa", "--recovery", "off"],
        ] {
            rejects(args, &format!("rounds-{i}.json"), contents, error);
        }
    }
}

#[test]
fn malformed_single_round_files_exit_1_with_the_constructor_error() {
    let file = |groups: &str| format!(r#"{{"demand":2,"groups":[{groups}]}}"#);
    let grouping = "one non-empty group per seller";
    let (a, b, c) = (bid(0, 0, 2, 5.0), bid(1, 0, 2, 6.0), bid(0, 1, 3, 7.0));
    let (negative, zero, again) = (bid(0, 0, 2, -5.0), bid(0, 0, 0, 5.0), bid(0, 0, 3, 6.0));
    let cases = [
        (file(&format!("[{negative}]")), "price -5 is not a valid"),
        (file(&format!("[{zero}]")), "zero resource units"),
        (file(&format!("[{a},{again}]")), "submitted bid id 0 twice"),
        (file(&format!("[{a}],[]")), grouping),
        (file(&format!("[{a}],[{b}],[{c}]")), grouping),
    ];
    for (i, (contents, error)) in cases.iter().enumerate() {
        rejects(&["ssam"], &format!("round-{i}.json"), contents, error);
        rejects(&["audit"], &format!("round-{i}.json"), contents, error);
    }
}

#[test]
fn deeply_nested_files_exit_1_with_the_parser_error() {
    // 200,000 levels would overflow any thread's stack; the JSON reader
    // stops at 128.
    let deep = "[".repeat(200_000);
    let path = std::env::temp_dir().join(format!("edge-market-{}-deep.json", std::process::id()));
    std::fs::write(&path, &deep).expect("write file");
    for args in [&["replay"][..], &["msoa", "--input"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_edge-market"))
            .args(args)
            .arg(&path)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("nesting deeper than 128 levels"),
            "{args:?}: {stderr}"
        );
    }
    std::fs::remove_file(&path).ok();
}
