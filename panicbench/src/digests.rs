//! Digests of each workload's simulated outputs (one episode: reports,
//! conservation identities and metrics JSON), recorded for the default
//! seed and one other. A run whose digest differs from the one recorded
//! for its seed fails every operation. Regenerate with
//! `cargo run --release -- --print-digests` after a change that is
//! meant to alter simulated results.

use crate::sims::Workload;

/// `(workload, seed, digest)`.
/// The chain workloads' traffic is periodic with fixed frames, so their
/// digest is the same for every seed.
const RECORDED: &[(&str, u64, u64)] = &[
    ("nic_knee", 1, 0x2922_025e_a77b_9193),
    ("nic_sparse", 1, 0x8bcb_3168_5331_7918),
    ("kvs_mix", 1, 0x922b_e26a_e4d5_b1b9),
    ("rack_ring", 1, 0x9810_bc96_ab6d_30bd),
    ("nic_knee", 2, 0x2922_025e_a77b_9193),
    ("nic_sparse", 2, 0x8bcb_3168_5331_7918),
    ("kvs_mix", 2, 0x77d4_3ea1_cd3a_9040),
    ("rack_ring", 2, 0x2877_6fcc_2756_3e05),
];

/// The digest recorded for `w` at `seed`, if any.
#[must_use]
pub fn recorded(w: Workload, seed: u64) -> Option<u64> {
    RECORDED
        .iter()
        .find(|&&(name, s, _)| name == w.name() && s == seed)
        .map(|&(_, _, d)| d)
}
