//! Independent references for the differential suites: one map-backed
//! model per engine configuration that shares no step code with the
//! flat engines.
//!
//! * FR, PR and NewPR are the paper's own I/O automata, driven through
//!   [`Automaton::apply`]; a step's reversal set is read off as the
//!   incident edges whose direction changed.
//! * GB-pair, GB-triple and both BLL labelings are written out here from
//!   their textbook rules over `BTreeMap` state and a map [`Orientation`].
//!
//! [`run`] is a reference scheduler with the run loop's documented
//! semantics, so whole-run [`RunStats`] can be compared too.

#![allow(dead_code)]

use std::collections::BTreeMap;

use lr_core::alg::{
    BllLabeling, FrontierFamily, FullReversalAutomaton, FullReversalState, NewPrAutomaton,
    NewPrState, OneStepPrAutomaton, PrState,
};
use lr_core::engine::{RunStats, SchedulePolicy};
use lr_core::{MirroredDirs, ReversalStep};
use lr_graph::{EdgeDir, NodeId, Orientation, PlaneEmbedding, ReversalInstance};
use lr_ioa::Automaton;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A reference model of one algorithm on one instance.
pub trait Model {
    /// The non-destination sinks, ascending, by a full scan.
    fn enabled(&self) -> Vec<NodeId>;
    /// Node `u`'s step: the neighbors whose edge it reversed, ascending.
    fn step(&mut self, u: NodeId) -> ReversalStep;
    /// The current orientation.
    fn orientation(&self) -> Orientation;
}

/// Every engine configuration under test: the six canonical families
/// plus the FR-labeled BLL variant.
pub const FAMILIES: [FrontierFamily; 7] = [
    FrontierFamily::FullReversal,
    FrontierFamily::PartialReversal,
    FrontierFamily::NewPr,
    FrontierFamily::PairHeights,
    FrontierFamily::TripleHeights,
    FrontierFamily::Bll(BllLabeling::PartialReversal),
    FrontierFamily::Bll(BllLabeling::FullReversal),
];

/// The reference model of `family` in the initial state of `inst`.
pub fn model(family: FrontierFamily, inst: &ReversalInstance) -> Box<dyn Model + '_> {
    match family {
        FrontierFamily::FullReversal => {
            Box::new(AutomatonModel::new(FullReversalAutomaton { inst }))
        }
        FrontierFamily::PartialReversal => {
            Box::new(AutomatonModel::new(OneStepPrAutomaton { inst }))
        }
        FrontierFamily::NewPr => Box::new(AutomatonModel::new(NewPrAutomaton { inst })),
        FrontierFamily::PairHeights => Box::new(Heights::new(inst, HeightRule::Pair)),
        FrontierFamily::TripleHeights => Box::new(Heights::new(inst, HeightRule::Triple)),
        FrontierFamily::Bll(labeling) => Box::new(Bll::new(inst, labeling)),
        _ => unreachable!("no reference for {family:?}"),
    }
}

/// The automaton states the reference reads directions from.
pub trait HasDirs {
    /// The state's `dir[u, v]` variables.
    fn dirs(&self) -> &MirroredDirs;
}

impl HasDirs for FullReversalState {
    fn dirs(&self) -> &MirroredDirs {
        &self.dirs
    }
}

impl HasDirs for PrState {
    fn dirs(&self) -> &MirroredDirs {
        &self.dirs
    }
}

impl HasDirs for NewPrState {
    fn dirs(&self) -> &MirroredDirs {
        &self.dirs
    }
}

/// One of the paper's single-node automata, stepped through its own
/// transition relation.
pub struct AutomatonModel<A: Automaton> {
    aut: A,
    state: A::State,
}

impl<A: Automaton> AutomatonModel<A> {
    fn new(aut: A) -> Self {
        let state = aut.initial_state();
        AutomatonModel { aut, state }
    }
}

impl<A> Model for AutomatonModel<A>
where
    A: Automaton<Action = NodeId>,
    A::State: HasDirs,
{
    fn enabled(&self) -> Vec<NodeId> {
        self.aut.enabled_actions(&self.state)
    }

    fn step(&mut self, u: NodeId) -> ReversalStep {
        assert!(self.aut.is_enabled(&self.state, &u), "{u} is not enabled");
        let before = self.state.dirs().orientation();
        self.state = self.aut.apply(&self.state, &u);
        let after = self.state.dirs().orientation();
        // Canonical edge order lists u's in-edges by ascending tail.
        let reversed: Vec<NodeId> = before
            .directed_edges()
            .filter(|&(tail, head)| head == u && after.points_from_to(u, tail))
            .map(|(tail, _)| tail)
            .collect();
        let dummy = reversed.is_empty();
        ReversalStep {
            node: u,
            reversed,
            dummy,
        }
    }

    fn orientation(&self) -> Orientation {
        self.state.dirs().orientation()
    }
}

/// The two Gafni–Bertsekas label schemes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum HeightRule {
    /// `(α, id)`: a sink rises to `1 + max α` over its neighbors.
    Pair,
    /// `(α, β, id)`: a sink rises to `α = 1 + min α`, and below the
    /// `β` of any neighbor already at that `α`.
    Triple,
}

/// Heights as `(α, β, id)` triples (`β` stays 0 under the pair rule);
/// every edge points from the higher endpoint to the lower.
pub struct Heights<'a> {
    inst: &'a ReversalInstance,
    rule: HeightRule,
    heights: BTreeMap<NodeId, (i64, i64, NodeId)>,
}

impl<'a> Heights<'a> {
    /// Heights consistent with the initial orientation, from the
    /// plane-embedding coordinate `x(u)`: pair `α_u = n − 1 − x(u)`,
    /// triple `α = 0`, `β_u = −x(u)`.
    pub fn new(inst: &'a ReversalInstance, rule: HeightRule) -> Self {
        let emb = PlaneEmbedding::of_initial(&inst.graph, &inst.init).unwrap();
        let n = inst.node_count() as i64;
        let heights = inst
            .graph
            .nodes()
            .map(|u| {
                let x = emb.x(u).unwrap() as i64;
                let h = match rule {
                    HeightRule::Pair => (n - 1 - x, 0, u),
                    HeightRule::Triple => (0, -x, u),
                };
                (u, h)
            })
            .collect();
        Heights {
            inst,
            rule,
            heights,
        }
    }

    fn is_sink(&self, u: NodeId) -> bool {
        let h = self.heights[&u];
        self.inst.graph.degree(u) > 0 && self.inst.graph.neighbors(u).all(|v| self.heights[&v] > h)
    }
}

impl Model for Heights<'_> {
    fn enabled(&self) -> Vec<NodeId> {
        self.inst
            .graph
            .nodes()
            .filter(|&u| u != self.inst.dest && self.is_sink(u))
            .collect()
    }

    fn step(&mut self, u: NodeId) -> ReversalStep {
        assert!(u != self.inst.dest && self.is_sink(u), "{u} is not enabled");
        let nbrs: Vec<(i64, i64, NodeId)> = self
            .inst
            .graph
            .neighbors(u)
            .map(|v| self.heights[&v])
            .collect();
        let (_, beta, id) = self.heights[&u];
        let new = match self.rule {
            HeightRule::Pair => (nbrs.iter().map(|h| h.0).max().unwrap() + 1, beta, id),
            HeightRule::Triple => {
                let alpha = nbrs.iter().map(|h| h.0).min().unwrap() + 1;
                let beta = nbrs
                    .iter()
                    .filter(|h| h.0 == alpha)
                    .map(|h| h.1 - 1)
                    .min()
                    .unwrap_or(beta);
                (alpha, beta, id)
            }
        };
        self.heights.insert(u, new);
        // The edges that flipped: neighbors now below u.
        let reversed = self
            .inst
            .graph
            .neighbors(u)
            .filter(|v| self.heights[v] < new)
            .collect();
        ReversalStep {
            node: u,
            reversed,
            dummy: false,
        }
    }

    fn orientation(&self) -> Orientation {
        let mut o = Orientation::new();
        for (u, v) in self.inst.graph.edges() {
            if self.heights[&u] > self.heights[&v] {
                o.set_from_to(u, v);
            } else {
                o.set_from_to(v, u);
            }
        }
        o
    }
}

/// Binary link labels: a sink reverses its 1-labeled links (all links
/// if none is 1-labeled). Under the PR labeling a neighbor's label for
/// `u` drops to 0 when `u` reverses toward it, and `u`'s own labels
/// reset to 1 when it steps; under the FR labeling labels stay 1.
pub struct Bll<'a> {
    inst: &'a ReversalInstance,
    labeling: BllLabeling,
    orientation: Orientation,
    labels: BTreeMap<(NodeId, NodeId), bool>,
}

impl<'a> Bll<'a> {
    /// All labels 1, directions from the initial orientation.
    pub fn new(inst: &'a ReversalInstance, labeling: BllLabeling) -> Self {
        let labels = inst
            .graph
            .edges()
            .flat_map(|(u, v)| [((u, v), true), ((v, u), true)])
            .collect();
        Bll {
            inst,
            labeling,
            orientation: inst.init.clone(),
            labels,
        }
    }

    fn is_sink(&self, u: NodeId) -> bool {
        self.inst.graph.degree(u) > 0
            && self
                .inst
                .graph
                .neighbors(u)
                .all(|v| self.orientation.dir(u, v) == Some(EdgeDir::In))
    }
}

impl Model for Bll<'_> {
    fn enabled(&self) -> Vec<NodeId> {
        self.inst
            .graph
            .nodes()
            .filter(|&u| u != self.inst.dest && self.is_sink(u))
            .collect()
    }

    fn step(&mut self, u: NodeId) -> ReversalStep {
        assert!(u != self.inst.dest && self.is_sink(u), "{u} is not enabled");
        let nbrs: Vec<NodeId> = self.inst.graph.neighbors(u).collect();
        let ones: Vec<NodeId> = nbrs
            .iter()
            .copied()
            .filter(|&v| self.labels[&(u, v)])
            .collect();
        let reversed = if ones.is_empty() { nbrs.clone() } else { ones };
        for &v in &reversed {
            self.orientation.set_from_to(u, v);
        }
        if self.labeling == BllLabeling::PartialReversal {
            for &v in &reversed {
                self.labels.insert((v, u), false);
            }
            for &v in &nbrs {
                self.labels.insert((u, v), true);
            }
        }
        ReversalStep {
            node: u,
            reversed,
            dummy: false,
        }
    }

    fn orientation(&self) -> Orientation {
        self.orientation.clone()
    }
}

/// Runs `model` under `policy` for at most `max_steps` steps with the
/// run loop's documented scheduling: a greedy round steps a snapshot of
/// every enabled node in ascending order; the single-step policies pick
/// the first, last, or a `SmallRng`-chosen enabled node. The work vector
/// is indexed by position in ascending node order.
pub fn run(
    model: &mut dyn Model,
    algorithm: &'static str,
    inst: &ReversalInstance,
    policy: SchedulePolicy,
    max_steps: usize,
) -> RunStats {
    let index: BTreeMap<NodeId, usize> = inst.graph.nodes().zip(0..).collect();
    let mut stats = RunStats {
        algorithm,
        steps: 0,
        total_reversals: 0,
        dummy_steps: 0,
        rounds: 0,
        work: vec![0; index.len()],
        frontier_occupancy: 0,
        terminated: false,
    };
    let mut rng = match policy {
        SchedulePolicy::RandomSingle { seed } => Some(SmallRng::seed_from_u64(seed)),
        _ => None,
    };
    let take = |model: &mut dyn Model, stats: &mut RunStats, u: NodeId| {
        let step = model.step(u);
        stats.steps += 1;
        stats.total_reversals += step.reversal_count();
        stats.dummy_steps += usize::from(step.dummy);
        stats.work[index[&u]] += 1;
    };
    loop {
        let enabled = model.enabled();
        if enabled.is_empty() {
            stats.terminated = true;
            return stats;
        }
        if stats.steps >= max_steps {
            return stats;
        }
        stats.frontier_occupancy += enabled.len();
        stats.rounds += 1;
        match policy {
            SchedulePolicy::GreedyRounds => {
                for u in enabled {
                    take(model, &mut stats, u);
                    if stats.steps >= max_steps {
                        break;
                    }
                }
            }
            SchedulePolicy::RandomSingle { .. } => {
                let u = *enabled.choose(rng.as_mut().unwrap()).unwrap();
                take(model, &mut stats, u);
            }
            SchedulePolicy::FirstSingle => take(model, &mut stats, enabled[0]),
            SchedulePolicy::LastSingle => take(model, &mut stats, *enabled.last().unwrap()),
        }
    }
}
