//! Differential test of the flat instance-text parser.
//!
//! `reference_parse` below is the map-building parser that
//! `parse::parse_instance` used before instance text was parsed straight
//! into CSR: it feeds every line into an `UndirectedGraph` and an
//! `Orientation` and validates the result with `ReversalInstance::new`,
//! so its first error is, by construction, the first error by line. On
//! random instance texts — generator output with relabelled ids,
//! shuffled lines, comments and spacing, plus mutations that inject
//! every error the format has — the flat parser must return either the
//! reference instance (in flat form) or the identical `GraphError`, line
//! number included, and must never panic.

use lr_graph::parse::{parse_csr_instance, parse_instance};
use lr_graph::{
    generate, CsrInstance, GraphError, NodeId, Orientation, ReversalInstance, UndirectedGraph,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

/// The map-building parser the flat one replaced, kept verbatim as the
/// oracle.
fn reference_parse(text: &str) -> Result<ReversalInstance, GraphError> {
    let mut g = UndirectedGraph::new();
    let mut o = Orientation::new();
    let mut dest = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let lineno = idx + 1;
        if let Some(rest) = line.strip_prefix("dest") {
            let id: u32 = rest.trim().parse().map_err(|_| GraphError::Parse {
                line: lineno,
                message: format!("invalid destination id {rest:?}"),
            })?;
            dest = Some(NodeId::new(id));
            continue;
        }
        let mut parts = line.split('>');
        let (a, b) = match (parts.next(), parts.next(), parts.next()) {
            (Some(a), Some(b), None) => (a.trim(), b.trim()),
            _ => {
                return Err(GraphError::Parse {
                    line: lineno,
                    message: format!("expected `u > v`, got {line:?}"),
                })
            }
        };
        let parse_id = |s: &str| -> Result<NodeId, GraphError> {
            s.parse::<u32>()
                .map(NodeId::new)
                .map_err(|_| GraphError::Parse {
                    line: lineno,
                    message: format!("invalid node id {s:?}"),
                })
        };
        let (u, v) = (parse_id(a)?, parse_id(b)?);
        g.ensure_node(u);
        g.ensure_node(v);
        g.add_edge(u, v)?;
        o.set_from_to(u, v);
    }
    let dest = dest.unwrap_or(NodeId::new(0));
    ReversalInstance::new(g, o, dest)
}

/// A small generated instance of a random family.
fn base_instance(rng: &mut SmallRng) -> ReversalInstance {
    let seed = rng.next_u64();
    match rng.gen_range(0..6usize) {
        0 => generate::chain_away(rng.gen_range(2..10)),
        1 => generate::alternating_chain(rng.gen_range(2..10)),
        2 => generate::grid_away(rng.gen_range(1..4), rng.gen_range(2..4)),
        3 => generate::star_away(rng.gen_range(1..6)),
        4 => generate::layered(rng.gen_range(1..4), rng.gen_range(1..4), 0.5, seed),
        _ => generate::random_connected(rng.gen_range(2..12), rng.gen_range(0..12), seed),
    }
}

/// An injective relabelling of `0..n`: the identity (ids are their own
/// dense index), a shifted or holey dense range, or sparse ids up to
/// `u32::MAX`.
fn relabelling(rng: &mut SmallRng, n: usize) -> Vec<u32> {
    let mut ids: Vec<u32> = match rng.gen_range(0..4usize) {
        0 => return (0..n as u32).collect(),
        1 => {
            let shift = rng.gen_range(1..4);
            (shift..shift + n as u32).collect()
        }
        2 => (0..2 * n as u32 + 2).collect(),
        _ => {
            let mut ids = vec![u32::MAX, 0];
            while ids.len() < n + 2 {
                ids.push(rng.next_u32());
            }
            ids.sort_unstable();
            ids.dedup();
            ids
        }
    };
    ids.shuffle(rng);
    ids.truncate(n);
    ids
}

/// One edge line in a random but valid spelling.
fn edge_line(rng: &mut SmallRng, u: u32, v: u32) -> String {
    match rng.gen_range(0..6usize) {
        0 => format!("{u}>{v}"),
        1 => format!("  {u}  >\t{v}  "),
        2 => format!("+{u} > {v}"),
        _ => format!("{u} > {v}"),
    }
}

/// Lines that are each one kind of input error.
fn error_line(rng: &mut SmallRng, ids: &[u32], edges: &[(u32, u32)]) -> String {
    let id = |rng: &mut SmallRng| *ids.choose(rng).expect("instances have nodes");
    let fresh = |rng: &mut SmallRng| loop {
        let x = rng.next_u32();
        if !ids.contains(&x) {
            return x;
        }
    };
    match rng.gen_range(0..12usize) {
        // Malformed lines.
        0 => ["1 - 2", "3 > 4 > 5", "x", ">", "7 >", "destination 3"]
            .choose(rng)
            .unwrap()
            .to_string(),
        // Bad node and destination ids.
        1 => ["3 > x", "4294967296 > 1", "-1 > 2", "1.5 > 2", "0x1 > 2"]
            .choose(rng)
            .unwrap()
            .to_string(),
        2 => [
            "dest",
            "dest banana",
            "dest -1",
            "dest 4294967296",
            "dest 1 > 2",
        ]
        .choose(rng)
        .unwrap()
        .to_string(),
        // A self-loop on a known or a fresh id.
        3 => {
            let u = if rng.gen_bool(0.5) {
                id(rng)
            } else {
                fresh(rng)
            };
            format!("{u} > {u}")
        }
        // A duplicate, either way round.
        4 | 5 => match edges.choose(rng) {
            Some(&(u, v)) if rng.gen_bool(0.5) => edge_line(rng, u, v),
            Some(&(u, v)) => edge_line(rng, v, u),
            None => "0 > 0".into(),
        },
        // An unknown destination.
        6 => format!("dest {}", fresh(rng)),
        // A component of its own: disconnected, and with three lines a
        // cycle too.
        7 => {
            let (a, b, c) = (fresh(rng), fresh(rng), fresh(rng));
            if rng.gen_bool(0.5) {
                edge_line(rng, a, b)
            } else {
                format!("{a} > {b}\n{b} > {c}\n{c} > {a}")
            }
        }
        // A new edge between known nodes: often a cycle, sometimes a
        // duplicate, sometimes harmless.
        8 => {
            let (a, b) = (id(rng), id(rng));
            edge_line(rng, a, b)
        }
        // Comments and blank lines are not errors; mixing them into the
        // mutations keeps line numbers moving.
        9 => "# not an edge: 1 > 2".into(),
        10 => "   ".into(),
        _ => format!("dest {}", id(rng)),
    }
}

/// A random instance text: generator output, relabelled and reordered,
/// with comments, odd spacing and `mutations` injected error lines.
fn instance_text(seed: u64, mutations: usize) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    let inst = base_instance(&mut rng);
    let label = relabelling(&mut rng, inst.node_count());
    let relabel = |u: NodeId| label[u.index()];
    let mut edges: Vec<(u32, u32)> = inst
        .init
        .directed_edges()
        .map(|(u, v)| (relabel(u), relabel(v)))
        .collect();
    // Flipping one edge may close a cycle.
    if rng.gen_bool(0.1) {
        let (u, v) = edges[0];
        edges[0] = (v, u);
    }
    let mut lines: Vec<String> = edges
        .iter()
        .map(|&(u, v)| edge_line(&mut rng, u, v))
        .collect();
    lines.shuffle(&mut rng);
    let dest = relabel(inst.dest);
    if dest != 0 || rng.gen_bool(0.5) {
        let at = rng.gen_range(0..=lines.len());
        lines.insert(at, format!("dest {dest}"));
    }
    for _ in 0..rng.gen_range(0..3usize) {
        let at = rng.gen_range(0..=lines.len());
        lines.insert(
            at,
            ["# comment", "", "\t", "#1 > 2"][rng.gen_range(0..4usize)].to_string(),
        );
    }
    for _ in 0..mutations {
        let line = error_line(&mut rng, &label, &edges);
        let at = rng.gen_range(0..=lines.len());
        lines.insert(at, line);
    }
    if rng.gen_bool(0.02) {
        lines.clear();
    }
    let newline = if rng.gen_bool(0.2) { "\r\n" } else { "\n" };
    lines.join(newline)
}

/// Random text over the format's own alphabet, for inputs no mutation
/// of a valid instance reaches.
fn garbage_text(seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    const ALPHABET: &[u8] = b"0123 >>>\n\n#dest\t-+x";
    (0..rng.gen_range(0..60usize))
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
        .collect()
}

/// The flat parser agrees with the reference on `text`, and
/// `parse_instance` is the reference exactly.
fn agrees(text: &str) -> Result<(), TestCaseError> {
    let reference = reference_parse(text);
    match (parse_csr_instance(text), &reference) {
        (Ok(flat), Ok(map)) => prop_assert_eq!(flat, CsrInstance::from_instance(map)),
        (Err(flat), Err(map)) => prop_assert_eq!(&flat, map),
        (flat, map) => prop_assert!(false, "flat {flat:?} vs reference {map:?} on {text:?}"),
    }
    prop_assert_eq!(parse_instance(text), reference);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Valid texts: same instance, whatever the ids, order and spacing.
    #[test]
    fn valid_texts_parse_to_the_reference_instance(seed in any::<u64>()) {
        let text = instance_text(seed, 0);
        agrees(&text)?;
    }

    /// Texts with injected errors: same first error, line included.
    #[test]
    fn mutated_texts_fail_like_the_reference(seed in any::<u64>(), mutations in 1usize..4) {
        agrees(&instance_text(seed, mutations))?;
    }

    /// Arbitrary short texts never panic and agree with the reference.
    #[test]
    fn garbage_texts_fail_like_the_reference(seed in any::<u64>()) {
        agrees(&garbage_text(seed))?;
    }
}

/// The error kind a text exercises, for the coverage check.
fn kind(e: &GraphError) -> &'static str {
    match e {
        GraphError::Parse { message, .. } if message.starts_with("expected") => "malformed line",
        GraphError::Parse { message, .. } if message.starts_with("invalid node") => "bad node id",
        GraphError::Parse { .. } => "bad dest id",
        GraphError::SelfLoop(_) => "self-loop",
        GraphError::DuplicateEdge(..) => "duplicate edge",
        GraphError::UnknownNode(_) => "unknown dest",
        GraphError::Disconnected => "disconnected",
        GraphError::ContainsCycle => "cycle",
        _ => "other",
    }
}

/// The mutated texts reach every error the format has, so the
/// differential above compares each of them.
#[test]
fn mutations_reach_every_error_kind() {
    let seen: std::collections::BTreeSet<&str> = (0..2000)
        .filter_map(|seed| reference_parse(&instance_text(seed, 1 + seed as usize % 3)).err())
        .map(|e| kind(&e))
        .collect();
    let all = [
        "bad dest id",
        "bad node id",
        "cycle",
        "disconnected",
        "duplicate edge",
        "malformed line",
        "self-loop",
        "unknown dest",
    ];
    assert_eq!(seen.into_iter().collect::<Vec<_>>(), all);
}
