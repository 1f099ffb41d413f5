//! Cross-crate integration: every algorithm × every generator family ×
//! every scheduling policy terminates in an acyclic, destination-oriented
//! graph, and the automaton and engine forms of each algorithm agree.

use link_reversal::prelude::*;

fn families() -> Vec<(&'static str, ReversalInstance)> {
    vec![
        ("chain_away", generate::chain_away(17)),
        ("chain_toward", generate::chain_toward(17)),
        ("alternating_chain", generate::alternating_chain(17)),
        ("star_away", generate::star_away(9)),
        ("binary_tree_away", generate::binary_tree_away(2)),
        ("grid_away", generate::grid_away(4, 5)),
        ("complete_away", generate::complete_away(9)),
        ("layered", generate::layered(4, 4, 0.5, 11)),
        ("random_sparse", generate::random_connected(20, 5, 21)),
        ("random_dense", generate::random_connected(20, 60, 22)),
    ]
}

#[test]
fn every_algorithm_orients_every_family_under_every_policy() {
    let policies = [
        SchedulePolicy::GreedyRounds,
        SchedulePolicy::RandomSingle { seed: 77 },
        SchedulePolicy::FirstSingle,
        SchedulePolicy::LastSingle,
    ];
    for (name, inst) in families() {
        for kind in AlgorithmKind::ALL {
            for policy in policies {
                let mut engine = kind.frontier_engine(CsrInstance::from_instance(&inst));
                let stats = run_to_destination_oriented(engine.as_mut(), policy, DEFAULT_MAX_STEPS);
                assert!(
                    stats.terminated,
                    "{} did not terminate on {name} under {policy:?}",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn final_work_is_schedule_sensitive_but_bounded() {
    // PR's total work varies across schedules but always stays within the
    // Θ(n_b²) bound family-wise.
    let inst = generate::alternating_chain(33);
    let nb = inst.initial_bad_nodes();
    for policy in [
        SchedulePolicy::GreedyRounds,
        SchedulePolicy::RandomSingle { seed: 5 },
        SchedulePolicy::FirstSingle,
    ] {
        let mut e = FrontierPrEngine::new(CsrInstance::from_instance(&inst));
        let stats = run_engine_frontier(&mut e, policy, DEFAULT_MAX_STEPS);
        assert!(stats.terminated);
        assert!(
            stats.total_reversals <= nb * nb + nb,
            "work {} exceeds quadratic bound for nb = {nb}",
            stats.total_reversals
        );
    }
}

#[test]
fn acyclicity_holds_in_every_intermediate_state() {
    // Drive each algorithm one step at a time and check acyclicity and
    // mirror-consistency at every prefix.
    let inst = generate::random_connected(14, 12, 33);
    for kind in AlgorithmKind::ALL {
        let mut engine = kind.frontier_engine(CsrInstance::from_instance(&inst));
        let mut guard = 0;
        loop {
            let o = engine.orientation();
            let view = DirectedView::new(&inst.graph, &o);
            assert!(view.is_acyclic(), "{} broke acyclicity", kind.name());
            let Some(&u) = engine.enabled().first() else {
                break;
            };
            engine.step(u);
            guard += 1;
            assert!(guard < 1_000_000);
        }
        let o = engine.orientation();
        assert!(DirectedView::new(&inst.graph, &o).is_destination_oriented(inst.dest));
    }
}

#[test]
fn automata_and_engines_trace_identically() {
    let inst = generate::random_connected(10, 8, 44);
    // NewPR
    let aut = NewPrAutomaton { inst: &inst };
    let exec = run(&aut, &mut schedulers::UniformRandom::seeded(9), 100_000);
    let mut eng = FrontierNewPrEngine::new(CsrInstance::from_instance(&inst));
    for &u in exec.actions() {
        eng.step(u);
    }
    assert_eq!(eng.orientation(), exec.last_state().dirs.orientation());
    // OneStepPR
    let aut = OneStepPrAutomaton { inst: &inst };
    let exec = run(&aut, &mut schedulers::UniformRandom::seeded(9), 100_000);
    let mut eng = FrontierPrEngine::new(CsrInstance::from_instance(&inst));
    for &u in exec.actions() {
        eng.step(u);
    }
    assert_eq!(eng.orientation(), exec.last_state().dirs.orientation());
}

#[test]
fn height_formulations_match_list_formulations_on_large_graphs() {
    // E11 at integration scale: identical schedules must produce
    // identical orientations at every step.
    for seed in 0..3 {
        let inst = generate::random_connected(40, 50, 1234 + seed);
        let mut pr = FrontierPrEngine::new(CsrInstance::from_instance(&inst));
        let mut gb = FrontierTripleHeightsEngine::new(CsrInstance::from_instance(&inst));
        let mut fr = FrontierFrEngine::new(CsrInstance::from_instance(&inst));
        let mut gp = FrontierPairHeightsEngine::new(CsrInstance::from_instance(&inst));
        let mut guard = 0;
        loop {
            assert_eq!(pr.enabled(), gb.enabled());
            let Some(&u) = pr.enabled().first() else {
                break;
            };
            assert_eq!(pr.step(u).reversed, gb.step(u).reversed);
            guard += 1;
            assert!(guard < 1_000_000);
        }
        loop {
            assert_eq!(fr.enabled(), gp.enabled());
            let Some(&u) = fr.enabled().first() else {
                break;
            };
            assert_eq!(fr.step(u).reversed, gp.step(u).reversed);
            guard += 1;
            assert!(guard < 2_000_000);
        }
        assert_eq!(pr.orientation(), gb.orientation());
        assert_eq!(fr.orientation(), gp.orientation());
    }
}

#[test]
fn bll_instantiations_match_their_targets_at_scale() {
    let inst = generate::random_connected(30, 35, 555);
    let mut bll_pr = FrontierBllEngine::new(
        CsrInstance::from_instance(&inst),
        BllLabeling::PartialReversal,
    );
    let mut pr = FrontierPrEngine::new(CsrInstance::from_instance(&inst));
    let mut guard = 0;
    loop {
        assert_eq!(bll_pr.enabled(), pr.enabled());
        let Some(&u) = pr.enabled().last() else {
            break;
        };
        assert_eq!(bll_pr.step(u).reversed, pr.step(u).reversed);
        guard += 1;
        assert!(guard < 1_000_000);
    }
    assert_eq!(bll_pr.orientation(), pr.orientation());
}

#[test]
fn destination_never_steps_anywhere() {
    for (name, inst) in families() {
        for kind in AlgorithmKind::ALL {
            let mut engine = kind.frontier_engine(CsrInstance::from_instance(&inst));
            let stats = run_engine_frontier(
                engine.as_mut(),
                SchedulePolicy::RandomSingle { seed: 1 },
                DEFAULT_MAX_STEPS,
            );
            let dest_idx = engine.csr().index_of(inst.dest).expect("dest is a node");
            assert_eq!(
                stats.work[dest_idx],
                0,
                "destination stepped in {} on {name}",
                kind.name()
            );
        }
    }
}

/// `lr generate grid 1000 | lr run PR` at a million nodes, in process:
/// the flat parser's `u32` offsets and counting sort, the engine and the
/// checks on the packed orientation at scale. No timing assert.
#[test]
#[ignore = "million-node run; seconds in release, runs in the CI --ignored tier"]
fn run_pr_on_the_million_node_grid_text() {
    use link_reversal::cli::run_cli;
    let text = run_cli(&["generate", "grid", "1000"], "").expect("grid generates");
    let out = run_cli(&["run", "PR"], &text).expect("PR runs");
    for line in [
        "nodes:            1000000\n",
        "acyclic:          true\n",
        "dest oriented:    true\n",
    ] {
        assert!(out.contains(line), "missing {line:?} in:\n{out}");
    }
}
