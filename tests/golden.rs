//! Byte-identity gates for the `lr` output: `lr generate` for every
//! family must reproduce `testdata/golden/generate.txt`, `lr run` /
//! `lr trace` for every algorithm × policy on three small instances
//! must reproduce `testdata/golden/run_trace.txt`, and `lr run` /
//! `lr trace` on hand-written instance texts at the input boundary —
//! unusual but valid texts, and one text per rejected-input error —
//! must reproduce `testdata/golden/input_boundary.txt`, exactly. The
//! fixtures were recorded from the `lr` binary; each section is headed
//! `=== <command line> ===` (`< <instance>` names the instance piped to
//! stdin), and a failing command's section holds its `error: ...` line.

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

/// Valid instance texts the generators never emit: ids that are not
/// `0..n`, comments and blank lines, a `dest` line after the edges (and
/// a second one overriding the first), no `dest` line (destination
/// defaults to node 0), and the largest `u32` id.
const BOUNDARY_INSTANCES: [(&str, &str); 5] = [
    (
        "non-contiguous ids",
        "dest 200\n5 > 9\n9 > 200\n200 > 77\n5 > 77\n",
    ),
    (
        "comments and blanks",
        "# an away chain\n\n  # indented comment\ndest 0\n\n0 > 1\n   1 > 2   \n# between\n2 > 3\n\n",
    ),
    (
        "dest after edges",
        "dest 3\n0 > 1\n1 > 2\n0 > 2\n2 > 3\ndest 0\n",
    ),
    ("no dest", "2 > 1\n1 > 0\n3 > 0\n0 > 4\n"),
    (
        "max u32 id",
        "dest 0\n0 > 4294967295\n4294967295 > 7\n0 > 7\n",
    ),
];
const BOUNDARY_COMMANDS: [&str; 7] = [
    "run FR greedy",
    "run PR greedy",
    "run NewPR greedy",
    "run GB-pair greedy",
    "run GB-triple greedy",
    "run PR greedy --threads 2",
    "trace PR greedy",
];
/// One instance text per rejected-input error. A duplicate edge is
/// reported only when it comes before the first malformed line, so each
/// duplicate shape appears on both sides of one.
const REJECTED_INSTANCES: [(&str, &str); 14] = [
    ("malformed line", "0 > 1\n1 - 2\n"),
    ("bad node id", "0 > 1\n1 > x\n"),
    ("bad dest", "dest banana\n0 > 1\n"),
    ("self-loop", "0 > 1\n1 > 1\n"),
    ("duplicate before malformed", "0 > 1\n1 > 2\n0 > 1\nbad\n"),
    ("duplicate after malformed", "0 > 1\n1 > 2\nbad\n0 > 1\n"),
    (
        "reversed duplicate before malformed",
        "0 > 1\n1 > 2\n2 > 1\n3 > 4 > 5\n",
    ),
    (
        "reversed duplicate after malformed",
        "0 > 1\n1 > 2\n3 > 4 > 5\n2 > 1\n",
    ),
    ("unknown dest", "dest 9\n0 > 1\n1 > 2\n"),
    ("empty input", ""),
    ("only comments", "# nothing here\n\n"),
    ("disconnected", "0 > 1\n2 > 3\n"),
    ("cyclic", "dest 3\n0 > 1\n1 > 2\n2 > 0\n2 > 3\n"),
    ("id out of range", "0 > 4294967296\n"),
];

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

#[test]
fn input_boundary_output_is_byte_identical_to_the_golden_fixture() {
    let mut sections = Vec::new();
    for (name, text) in BOUNDARY_INSTANCES {
        for cmd in BOUNDARY_COMMANDS {
            sections.push((format!("{cmd} < {name}"), cli(cmd, text)));
        }
    }
    for (name, text) in REJECTED_INSTANCES {
        let out = match run_cli(&["run", "PR"], text) {
            Ok(out) => panic!("`lr run PR < {name}` must fail, got:\n{out}"),
            Err(e) => format!("error: {e}\n"),
        };
        sections.push((format!("run PR < {name}"), out));
    }
    assert_matches(
        include_str!("../testdata/golden/input_boundary.txt"),
        sections,
    );
}
