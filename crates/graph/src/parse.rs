//! A small textual format for oriented graphs: what `lr generate` prints
//! and `lr run` reads.
//!
//! Each non-empty, non-comment line describes one directed edge
//! `u > v` (edge `{u, v}` directed from `u` to `v`), where `u` and `v` are
//! `u32` ids, not necessarily contiguous. Lines starting with `#` are
//! comments. A line `dest N` names the destination node.
//!
//! There is one parser, [`parse_csr_instance`], which reads the text
//! straight into the flat [`CsrInstance`] the engines run on;
//! [`parse_instance`] is it followed by the map adapter
//! [`CsrInstance::to_instance`], for the paper's automata and the other
//! map-based tools.
//!
//! ```
//! use lr_graph::parse::parse_instance;
//! let inst = parse_instance("
//!     ## a 3-chain pointing away from the destination
//!     dest 0
//!     0 > 1
//!     1 > 2
//! ").unwrap();
//! assert_eq!(inst.node_count(), 3);
//! ```

use std::collections::HashSet;
use std::sync::Arc;

use crate::csr::check_slot_capacity;
use crate::stream::{bit_get, bit_set};
use crate::{CsrGraph, CsrInstance, GraphError, NodeId, ReversalInstance};

/// Parses the textual instance format described at module level into the
/// map-backed [`ReversalInstance`]: [`parse_csr_instance`] followed by
/// [`CsrInstance::to_instance`].
///
/// # Errors
///
/// Exactly those of [`parse_csr_instance`].
pub fn parse_instance(text: &str) -> Result<ReversalInstance, GraphError> {
    parse_csr_instance(text)?.to_instance()
}

/// One meaningful line of instance text.
enum Line {
    /// `dest N`.
    Dest(u32),
    /// `u > v`.
    Edge(u32, u32),
}

/// Parses line `lineno`; `None` for blank and comment lines.
fn parse_line(raw: &str, lineno: usize) -> Result<Option<Line>, GraphError> {
    let line = raw.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    if let Some(rest) = line.strip_prefix("dest") {
        let id: u32 = rest.trim().parse().map_err(|_| GraphError::Parse {
            line: lineno,
            message: format!("invalid destination id {rest:?}"),
        })?;
        return Ok(Some(Line::Dest(id)));
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
    let parse_id = |s: &str| -> Result<u32, GraphError> {
        s.parse::<u32>().map_err(|_| GraphError::Parse {
            line: lineno,
            message: format!("invalid node id {s:?}"),
        })
    };
    Ok(Some(Line::Edge(parse_id(a)?, parse_id(b)?)))
}

/// Parses the textual instance format described at module level straight
/// into a flat [`CsrInstance`], with no map type on the way.
///
/// # Errors
///
/// The first error by input line, as a map-building parser would meet
/// them line by line: [`GraphError::Parse`] for a malformed line or a bad
/// node or destination id, [`GraphError::SelfLoop`], and
/// [`GraphError::DuplicateEdge`] for an edge (in either direction) that
/// an earlier line already gave. Then, for the whole instance, the
/// [`CsrInstance::validate`] errors: an unknown destination, a
/// disconnected graph, a cyclic orientation. A missing `dest` line
/// defaults the destination to node 0.
pub fn parse_csr_instance(text: &str) -> Result<CsrInstance, GraphError> {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut dest = 0u32;
    // The first malformed line or self-loop ends the scan; the edges
    // before it still decide whether a duplicate came first.
    let mut line_error = None;
    for (idx, raw) in text.lines().enumerate() {
        match parse_line(raw, idx + 1) {
            Ok(None) => {}
            Ok(Some(Line::Dest(id))) => dest = id,
            Ok(Some(Line::Edge(u, v))) if u == v => {
                line_error = Some(GraphError::SelfLoop(NodeId::new(u)));
                break;
            }
            Ok(Some(Line::Edge(u, v))) => edges.push((u, v)),
            Err(e) => {
                line_error = Some(e);
                break;
            }
        }
    }
    let built = from_edges(edges, NodeId::new(dest));
    match (built, line_error) {
        (Err(dup @ GraphError::DuplicateEdge(..)), _) => Err(dup),
        (_, Some(e)) => Err(e),
        (built, None) => {
            let inst = built?;
            inst.validate()?;
            Ok(inst)
        }
    }
}

/// Builds the flat instance of a self-loop-free edge list (`(u, v)`
/// directs edge `{u, v}` from `u` to `v`) without validating it.
///
/// The node table is the sorted, deduplicated endpoint ids; when they
/// are exactly `0..n` an id is its own dense index, otherwise it is
/// found by binary search. The half-edges are then counting-sorted
/// twice — bucketed by target, then appended to their source's run in
/// ascending target order — so every run comes out sorted with no
/// comparison sort, carrying its direction bit along.
///
/// # Errors
///
/// [`GraphError::DuplicateEdge`] for the first edge, in list order, whose
/// endpoints an earlier edge already joined; [`GraphError::SlotCapacity`]
/// if the edges overflow the `u32` slot space.
fn from_edges(mut edges: Vec<(u32, u32)>, dest: NodeId) -> Result<CsrInstance, GraphError> {
    let half_edges = 2 * edges.len();
    check_slot_capacity(half_edges)?;
    let ids = node_table(&edges);
    let n = ids.len();
    if ids.last().is_some_and(|&max| max as usize + 1 != n) {
        for e in &mut edges {
            let index = |u: u32| ids.binary_search(&u).expect("endpoint is in the table") as u32;
            *e = (index(e.0), index(e.1));
        }
    }
    let mut offsets = vec![0u32; n + 1];
    for &(a, b) in &edges {
        offsets[a as usize + 1] += 1;
        offsets[b as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    // Pass 1: bucket each half-edge by its target, keeping its source and
    // whether it points out of that source.
    let mut cursor: Vec<u32> = offsets[..n].to_vec();
    let mut source = vec![0u32; half_edges];
    let mut source_out = vec![0u64; half_edges.div_ceil(64)];
    for &(a, b) in &edges {
        let k = cursor[b as usize] as usize;
        cursor[b as usize] += 1;
        source[k] = a;
        bit_set(&mut source_out, k);
        let k = cursor[a as usize] as usize;
        cursor[a as usize] += 1;
        source[k] = b;
    }
    // Pass 2: visit the targets ascending and append each half-edge to
    // its source's run. A run that meets the same target twice holds a
    // duplicate edge.
    cursor.copy_from_slice(&offsets[..n]);
    let mut targets = vec![0u32; half_edges];
    let mut init_out = vec![0u64; half_edges.div_ceil(64)];
    let mut duplicate = false;
    for t in 0..n {
        let bucket = offsets[t] as usize..offsets[t + 1] as usize;
        for (k, &s) in bucket.clone().zip(&source[bucket]) {
            let s = s as usize;
            let slot = cursor[s] as usize;
            cursor[s] += 1;
            duplicate |= slot > offsets[s] as usize && targets[slot - 1] == t as u32;
            targets[slot] = t as u32;
            if bit_get(&source_out, k) {
                bit_set(&mut init_out, slot);
            }
        }
    }
    if duplicate {
        return Err(first_duplicate(&edges, &ids));
    }
    let nodes = ids.into_iter().map(NodeId::new).collect();
    let csr = CsrGraph::from_sorted_adjacency(nodes, offsets, targets)?;
    Ok(CsrInstance::from_parts(Arc::new(csr), init_out, dest))
}

/// The ascending, distinct endpoint ids of `edges`.
fn node_table(edges: &[(u32, u32)]) -> Vec<u32> {
    let mut ids: Vec<u32> = edges.iter().flat_map(|&(u, v)| [u, v]).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// The [`GraphError::DuplicateEdge`] of the first edge in `edges` (dense
/// index pairs over the node table `ids`) that repeats an earlier one in
/// either direction, named as that edge gives its endpoints.
fn first_duplicate(edges: &[(u32, u32)], ids: &[u32]) -> GraphError {
    let mut seen = HashSet::with_capacity(edges.len());
    let &(a, b) = edges
        .iter()
        .find(|&&(a, b)| !seen.insert((a.min(b), a.max(b))))
        .expect("a duplicate edge was detected");
    let node = |i: u32| NodeId::new(ids[i as usize]);
    GraphError::DuplicateEdge(node(a), node(b))
}

/// Serializes an instance back to the textual format (inverse of
/// [`parse_instance`] up to comments and whitespace).
pub fn to_text(inst: &ReversalInstance) -> String {
    let mut out = format!("dest {}\n", inst.dest.raw());
    for (t, h) in inst.init.directed_edges() {
        out.push_str(&format!("{} > {}\n", t.raw(), h.raw()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_chain_with_comments_and_blanks() {
        let inst = parse_instance("# comment\n\ndest 2\n0 > 1\n1 > 2\n").unwrap();
        assert_eq!(inst.dest, NodeId::new(2));
        assert_eq!(inst.graph.edge_count(), 2);
        assert!(inst.init.points_from_to(NodeId::new(0), NodeId::new(1)));
    }

    #[test]
    fn missing_dest_defaults_to_zero() {
        let inst = parse_instance("0 > 1").unwrap();
        assert_eq!(inst.dest, NodeId::new(0));
    }

    #[test]
    fn malformed_edge_reports_line() {
        let err = parse_instance("0 > 1\nnot an edge\n").unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn bad_node_id_reports_line() {
        let err = parse_instance("0 > x").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn bad_dest_reports_line() {
        let err = parse_instance("dest banana\n0 > 1").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn structural_validation_still_applies() {
        // A directed cycle parses but fails validation.
        let err = parse_instance("0 > 1\n1 > 2\n2 > 0").unwrap_err();
        assert_eq!(err, GraphError::ContainsCycle);
    }

    #[test]
    fn non_contiguous_ids_keep_their_order() {
        let flat = parse_csr_instance("dest 200\n9 > 200\n5 > 9\n").unwrap();
        let ids: Vec<u32> = flat.csr().nodes().map(NodeId::raw).collect();
        assert_eq!(ids, [5, 9, 200]);
        assert_eq!(flat.dest_index(), 2);
        assert_eq!(
            flat,
            CsrInstance::from_instance(&flat.to_instance().unwrap())
        );
    }

    #[test]
    fn the_first_error_by_line_wins() {
        let dup = GraphError::DuplicateEdge(NodeId::new(1), NodeId::new(0));
        assert_eq!(parse_csr_instance("0 > 1\n1 > 0\nbad\n"), Err(dup));
        let err = parse_csr_instance("0 > 1\nbad\n1 > 0\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
        let self_loop = GraphError::SelfLoop(NodeId::new(2));
        assert_eq!(parse_csr_instance("0 > 1\n2 > 2\n0 > 1\n"), Err(self_loop));
        // Whole-instance checks come after every line parsed.
        assert_eq!(
            parse_csr_instance("dest 7\n0 > 1\n2 > 3\n"),
            Err(GraphError::UnknownNode(NodeId::new(7)))
        );
        assert_eq!(
            parse_csr_instance("0 > 1\n2 > 3\n"),
            Err(GraphError::Disconnected)
        );
    }

    #[test]
    fn round_trips_through_text() {
        let inst = parse_instance("dest 1\n0 > 1\n2 > 1\n0 > 2").unwrap();
        let text = to_text(&inst);
        let back = parse_instance(&text).unwrap();
        assert_eq!(back, inst);
    }
}
