//! The probes never perturb a trajectory, and their checks can fail.
//!
//! For every workload at a small N, the traced twin ends with `agents()`
//! byte-equal to the untraced run, and the matching replay agrees with
//! `RoundReport.matched` on every round.

use popstab_perfbench::probe::MatchingReplay;
use popstab_perfbench::workload::{run_rep, run_traced, Kind, Spec};
use popstab_sim::batch::ShardPool;
use popstab_sim::{MatchingModel, RoundReport};

#[test]
fn traced_twins_end_byte_equal_and_replay_every_matching() {
    for kind in Kind::ALL {
        let spec = Spec::small(kind);
        let seeds = spec.run_seeds(7, 0);
        let rep = run_rep(&spec, &seeds, true);
        let traced = run_traced(&spec, &seeds);
        assert_eq!(rep.runs.len(), seeds.len(), "{kind:?}");
        assert_eq!(traced.len(), seeds.len(), "{kind:?}");
        for (run, twin) in rep.runs.iter().zip(&traced) {
            assert!(run.failures.is_empty(), "{kind:?}: {:?}", run.failures);
            assert!(twin.failures.is_empty(), "{kind:?}: {:?}", twin.failures);
            let state = run
                .state
                .as_ref()
                .expect("the reference run keeps its state");
            let bytes = state
                .bytes
                .as_ref()
                .expect("small populations keep their bytes");
            assert_eq!(
                Some(bytes),
                twin.state.bytes.as_ref(),
                "{kind:?} seed {}: the traced twin ended elsewhere",
                run.seed
            );
            let rounds = spec.rounds();
            assert_eq!(twin.laps_ns.len() as u64, rounds, "{kind:?}");
            assert_eq!(twin.replay.rounds, rounds, "{kind:?}");
            assert!(twin.replay.mismatches.is_empty(), "{kind:?}");
            assert_eq!(twin.in_laps.step.calls, rounds, "{kind:?}");
        }
    }
}

#[test]
fn churn_twin_sees_every_alteration_and_store() {
    let spec = Spec::small(Kind::Churn16k);
    let twin = &run_traced(&spec, &spec.run_seeds(3, 0))[0];
    let rounds = spec.rounds();
    assert_eq!(twin.reports.alterations, 4 * rounds);
    // The adversary reads the vector every round, so the columns are
    // stored before it acts and loaded again before the step.
    assert_eq!(twin.in_laps.load.calls, rounds);
    assert!(twin.in_laps.store.calls >= rounds - 1);
}

#[test]
fn replay_reports_a_matched_count_the_engine_did_not_produce() {
    ShardPool::with(1, |pool| {
        let mut replay = MatchingReplay::new(1, MatchingModel::Full, pool);
        replay.replay(&RoundReport {
            population_before: 100,
            matched: 100,
            ..RoundReport::default()
        });
        assert!(replay.totals.mismatches.is_empty());
        replay.replay(&RoundReport {
            round: 1,
            population_before: 100,
            matched: 98,
            ..RoundReport::default()
        });
        assert_eq!(replay.totals.mismatches.len(), 1);
        assert!(replay.totals.mismatches[0].starts_with("round 1:"));
    });
}
