//! Byte-identity gates for the `lr` output: `lr generate` for every
//! family must reproduce `testdata/golden/generate.txt`, and `lr run` /
//! `lr trace` for every algorithm × policy on three small instances
//! must reproduce `testdata/golden/run_trace.txt`, exactly. The fixtures
//! were recorded from the `lr` binary; each section is headed
//! `=== <command line> ===` (`< <instance>` names the generated
//! instance piped to stdin).

use link_reversal::cli::run_cli;

const GENERATE: [&str; 8] = [
    "chain-away 5",
    "chain-toward 5",
    "alternating 6",
    "star 5",
    "grid 3",
    "complete 4",
    "random 8 3",
    "random 12 0",
];
const INSTANCES: [&str; 3] = ["chain-away 6", "alternating 7", "random 8 3"];
const ALGORITHMS: [&str; 5] = ["FR", "PR", "NewPR", "GB-pair", "GB-triple"];
const POLICIES: [&str; 4] = ["greedy", "random:7", "first", "last"];

fn cli(args: &str, stdin: &str) -> String {
    let args: Vec<&str> = args.split_whitespace().collect();
    run_cli(&args, stdin).unwrap_or_else(|e| panic!("lr {args:?} failed: {e}"))
}

/// Renders `(header, output)` sections and compares them to `golden`
/// one section at a time, so a mismatch names the command that drifted.
fn assert_matches(golden: &str, sections: impl IntoIterator<Item = (String, String)>) {
    let mut rendered = String::new();
    for (header, output) in sections {
        let section = format!("=== {header} ===\n{output}");
        let expected = &golden[rendered.len()..];
        assert!(
            expected.starts_with(&section),
            "`lr {header}` differs from the golden fixture; expected:\n{}\ngot:\n{section}",
            expected
                .lines()
                .take(section.lines().count())
                .collect::<Vec<_>>()
                .join("\n"),
        );
        rendered.push_str(&section);
    }
    assert_eq!(rendered.len(), golden.len(), "fixture has extra sections");
}

#[test]
fn generate_output_is_byte_identical_to_the_golden_fixture() {
    assert_matches(
        include_str!("../testdata/golden/generate.txt"),
        GENERATE.map(|family| {
            let cmd = format!("generate {family}");
            let out = cli(&cmd, "");
            (cmd, out)
        }),
    );
}

#[test]
fn run_and_trace_output_is_byte_identical_to_the_golden_fixture() {
    let mut sections = Vec::new();
    for inst in INSTANCES {
        let text = cli(&format!("generate {inst}"), "");
        for cmd in ["run", "trace"] {
            for alg in ALGORITHMS {
                for policy in POLICIES {
                    let args = format!("{cmd} {alg} {policy}");
                    let out = cli(&args, &text);
                    sections.push((format!("{args} < {inst}"), out));
                }
            }
        }
    }
    assert_matches(include_str!("../testdata/golden/run_trace.txt"), sections);
}
