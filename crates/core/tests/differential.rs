//! Differential tests: every engine against an independent reference
//! that shares no step code with it (see `reference/mod.rs`) — the
//! paper's automata for FR, PR and NewPR, a minimal map-backed model for
//! the heights and BLL families. They must agree step-for-step on
//! shared schedules, and in whole-run statistics under every policy.

mod reference;

use lr_core::alg::{AlgorithmKind, FrontierFamily};
use lr_core::engine::{run_engine_frontier, SchedulePolicy, DEFAULT_MAX_STEPS};
use lr_core::trace::Trace;
use lr_graph::{stream, CsrInstance};
use proptest::prelude::*;
use reference::{model, FAMILIES};

fn policies(seed: u64) -> [SchedulePolicy; 4] {
    [
        SchedulePolicy::GreedyRounds,
        SchedulePolicy::RandomSingle { seed },
        SchedulePolicy::FirstSingle,
        SchedulePolicy::LastSingle,
    ]
}

/// Steps `family`'s engine and its reference in lockstep, stepping the
/// enabled node at index `pick(k, enabled.len())` at step `k`: same
/// enabled set before every step, same reversal set from every step,
/// same final orientation.
fn lockstep(
    family: FrontierFamily,
    flat: &CsrInstance,
    pick: impl Fn(usize, usize) -> usize,
) -> proptest::test_runner::TestCaseResult {
    let inst = flat.to_instance().unwrap();
    let mut engine = family.engine(flat.clone());
    let mut reference = model(family, &inst);
    let mut k = 0usize;
    loop {
        let enabled = reference.enabled();
        prop_assert_eq!(
            engine.enabled(),
            &enabled[..],
            "{}: enabled sets diverged after {} steps",
            family.name(),
            k
        );
        if enabled.is_empty() {
            break;
        }
        let u = enabled[pick(k, enabled.len())];
        prop_assert_eq!(
            engine.step(u),
            reference.step(u),
            "{}: step {}",
            family.name(),
            k
        );
        k += 1;
        prop_assert!(k < 1_000_000, "{}: runaway execution", family.name());
    }
    prop_assert_eq!(
        engine.orientation(),
        reference.orientation(),
        "{}",
        family.name()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every engine stays in lockstep with its reference under a
    /// pseudo-random pick of the enabled node.
    #[test]
    fn every_family_lockstep_with_its_reference(
        n in 4usize..=16,
        extra in 0usize..=20,
        seed in any::<u64>(),
    ) {
        let flat = stream::random_connected(n, extra, seed);
        for family in FAMILIES {
            lockstep(family, &flat, |k, len| (seed as usize).wrapping_add(k) % len)?;
        }
    }

    /// Every engine's whole-run `RunStats` (work vector and frontier
    /// occupancy included), final orientation and final enabled set equal
    /// its reference run under every schedule policy.
    #[test]
    fn every_family_matches_its_reference_under_every_policy(
        n in 4usize..=16,
        extra in 0usize..=20,
        seed in any::<u64>(),
    ) {
        let flat = stream::random_connected(n, extra, seed);
        let inst = flat.to_instance().unwrap();
        for family in FAMILIES {
            for policy in policies(seed) {
                let mut engine = family.engine(flat.clone());
                let stats = run_engine_frontier(engine.as_mut(), policy, DEFAULT_MAX_STEPS);
                let mut reference = model(family, &inst);
                let expected = reference::run(
                    reference.as_mut(),
                    family.name(),
                    &inst,
                    policy,
                    DEFAULT_MAX_STEPS,
                );
                prop_assert_eq!(&stats, &expected, "{} under {:?}", family.name(), policy);
                prop_assert!(stats.terminated, "{} must terminate", family.name());
                prop_assert_eq!(engine.orientation(), reference.orientation(), "{}", family.name());
                prop_assert_eq!(engine.enabled(), &reference.enabled()[..], "{}", family.name());
            }
        }
    }
}

/// Every engine stays in lockstep with its reference under the
/// adversarial last-sink schedule on every generator family.
#[test]
fn representations_lockstep_across_families() {
    let instances = [
        stream::chain_away(15),
        stream::alternating_chain(15),
        stream::star_away(8),
        stream::grid_away(4, 4),
        stream::binary_tree_away(2),
        stream::random_connected(15, 20, 77),
    ];
    for flat in &instances {
        for family in FAMILIES {
            lockstep(family, flat, |_, len| len - 1).unwrap();
        }
    }
}

/// A trace recorded from an engine replays to the same totals the run
/// loop reports.
#[test]
fn traces_agree_with_run_stats() {
    for seed in 0..6 {
        let flat = stream::random_connected(14, 12, 9100 + seed);
        for kind in AlgorithmKind::ALL {
            let mut a = kind.frontier_engine(flat.clone());
            let stats = run_engine_frontier(
                a.as_mut(),
                SchedulePolicy::RandomSingle { seed },
                DEFAULT_MAX_STEPS,
            );
            let mut b = kind.frontier_engine(flat.clone());
            let trace = Trace::record(
                b.as_mut(),
                SchedulePolicy::RandomSingle { seed },
                DEFAULT_MAX_STEPS,
            );
            assert_eq!(trace.len(), stats.steps, "{}", kind.name());
            assert_eq!(trace.total_reversals(), stats.total_reversals);
            assert_eq!(trace.dummy_steps(), stats.dummy_steps);
            trace.validate().expect("trace replays");
        }
    }
}

/// Reset really restores the initial state: run, reset, run again — both
/// runs identical.
#[test]
fn reset_restores_initial_state_for_all_engines() {
    let flat = stream::random_connected(12, 10, 9200);
    for family in FAMILIES {
        let mut e = family.engine(flat.clone());
        let first = run_engine_frontier(
            e.as_mut(),
            SchedulePolicy::RandomSingle { seed: 1 },
            DEFAULT_MAX_STEPS,
        );
        let o_first = e.orientation();
        e.reset();
        let second = run_engine_frontier(
            e.as_mut(),
            SchedulePolicy::RandomSingle { seed: 1 },
            DEFAULT_MAX_STEPS,
        );
        assert_eq!(first, second, "{} runs differ after reset", family.name());
        assert_eq!(o_first, e.orientation());
    }
}
