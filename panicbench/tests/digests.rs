//! The benchmark's own correctness checks: slicing, thread count and
//! seeds must not change what the simulator computes, and every
//! recorded digest must still match.

use panicbench::digests;
use panicbench::sims::{self, Workload};
use panicbench::spans::Spans;

/// Runs one episode of `w` in `chunk`-cycle advances (the whole
/// horizon at once when `None`) and returns its outcome.
fn episode(w: Workload, seed: u64, threads: usize, chunk: Option<u64>) -> sims::Outcome {
    let horizon = w.shape().horizon();
    let mut sim = sims::build(w, seed, threads);
    let mut spans = Spans::new(false);
    match chunk {
        None => sim.advance(horizon, &mut spans),
        Some(c) => {
            let mut done = 0;
            while done < horizon {
                let step = c.min(horizon - done);
                sim.advance(step, &mut spans);
                done += step;
            }
        }
    }
    sim.finish()
}

#[test]
fn sliced_runs_match_unsliced_runs() {
    for w in Workload::ALL {
        let whole = episode(w, 1, 2, None);
        let sliced = episode(w, 1, 2, Some(w.shape().slice));
        assert_eq!(whole.digest, sliced.digest, "{}", w.name());
        assert_eq!(whole.counts, sliced.counts, "{}", w.name());
    }
}

#[test]
fn rack_digest_is_thread_count_invariant() {
    let one = episode(Workload::RackRing, 3, 1, None);
    let two = episode(Workload::RackRing, 3, 2, None);
    assert_eq!(one.digest, two.digest);
}

#[test]
fn traced_rack_runs_match_untraced_runs() {
    // Traced runs advance the rack one epoch per call.
    let w = Workload::RackRing;
    let mut sim = sims::build(w, 1, 2);
    let mut spans = Spans::new(true);
    sim.advance(w.shape().horizon(), &mut spans);
    assert_eq!(sim.finish().digest, episode(w, 1, 2, None).digest);
    assert!(spans.durations("fabric.epoch").len() > 1_000);
}

#[test]
fn conservation_closes_at_drain_for_every_seed() {
    for w in Workload::ALL {
        for seed in 1..=4 {
            let o = episode(w, seed, 2, None);
            assert!(o.offered > 0, "{} seed {seed}", w.name());
            assert_eq!(o.unaccounted, 0, "{} seed {seed}: {}", w.name(), o.summary);
            assert!(o.guard.is_none(), "{} seed {seed}: {:?}", w.name(), o.guard);
        }
    }
}

#[test]
fn recorded_digests_match() {
    for seed in [panicbench::DEFAULT_SEED, 2] {
        for w in Workload::ALL {
            let recorded = digests::recorded(w, seed)
                .unwrap_or_else(|| panic!("{} seed {seed} has a recorded digest", w.name()));
            assert_eq!(
                episode(w, seed, 2, None).digest,
                recorded,
                "{} seed {seed}",
                w.name()
            );
        }
    }
}

#[test]
fn knee_guard_refuses_a_saturated_nic() {
    // Offered at full line rate (the saturated workload of the older
    // baselines), the chain NIC builds a backlog; the guard must trip.
    let mut config = sims::chain_config(Workload::NicKnee, 1);
    config.offered_fraction = 1.0;
    let mut sim = sims::chain_sim(Workload::NicKnee, config);
    sim.advance(100_000, &mut Spans::new(false));
    assert!(sim.finish().guard.is_some());
    // The knee itself stays inside the regime.
    assert!(episode(Workload::NicKnee, 1, 2, None).guard.is_none());
}
