//! Differential fuzz: [`MeshNetwork`] against the per-router reference
//! stepper in `reference/mod.rs`.
//!
//! Both models get the same random sends, the same polls (each engine
//! polls on a random subset of cycles, modelling its `rx_ready`) and
//! the same link-slowdown, credit-hold and ejection-drop faults, on
//! meshes from 1×1 to 8×8 with 1–8-flit input buffers (the cap-1 case
//! included), 1–16-flit ejection buffers and 64- or 128-bit channels.
//! Every cycle's `poll_ejected` results must match, and at the end so
//! must the statistics, flit-hop, lost and leaked counters and the
//! Chrome-trace JSON, byte for byte.

mod reference;

use bytes::Bytes;
use noc::network::{MeshNetwork, NetworkConfig};
use noc::topology::{Placement, Topology};
use noc::{PortDir, RouterConfig};
use packet::{EngineId, Message, MessageId, MessageKind, TenantId};
use proptest::prelude::*;
use reference::RefMesh;
use sim_core::rng::SimRng;
use sim_core::time::Cycle;
use trace::{MetricsRegistry, Tracer};

/// Tenants the random traffic is spread over.
const TENANTS: u16 = 4;
/// Cycles allowed after the traffic phase for the mesh to drain.
const DRAIN: u64 = 3_000;

/// One generated scenario.
#[derive(Debug, Clone)]
struct Case {
    width: u8,
    height: u8,
    router: RouterConfig,
    width_bits: u64,
    seed: u64,
    /// Cycles of the traffic phase.
    cycles: u64,
    /// Chance in percent of each of up to three sends per cycle.
    send_pct: u64,
    /// Chance in percent that an engine polls in a given cycle.
    poll_pct: u64,
    /// Chance in percent of a fault per traffic cycle.
    fault_pct: u64,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        (1u8..=8, 1u8..=8, 1usize..=8, 1usize..=16, any::<bool>()),
        (any::<u64>(), 20u64..250, 0u64..=60, 10u64..=100, 0u64..=5),
    )
        .prop_map(
            |(
                (width, height, input, eject, wide),
                (seed, cycles, send_pct, poll_pct, fault_pct),
            )| {
                Case {
                    width,
                    height,
                    router: RouterConfig {
                        input_buffer_flits: input,
                        ejection_buffer_flits: eject,
                    },
                    width_bits: if wide { 128 } else { 64 },
                    seed,
                    cycles,
                    send_pct,
                    poll_pct,
                    fault_pct,
                }
            },
        )
}

/// Index of the first byte where `a` and `b` differ.
fn first_difference(a: &str, b: &str) -> usize {
    a.bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()))
}

/// Injects one random fault into both models.
fn fault(rng: &mut SimRng, now: u64, engines: u64, net: &mut MeshNetwork, reference: &mut RefMesh) {
    let engine = EngineId(rng.gen_range(engines) as u16);
    let port = PortDir::ALL[rng.gen_range(PortDir::COUNT as u64) as usize];
    let until = Cycle(now + 1 + rng.gen_range(80));
    match rng.gen_range(3) {
        0 => {
            let period = 2 + rng.gen_range(4);
            net.fault_link_slow(engine, port, until, period);
            reference.fault_link_slow(engine, port, until, period);
        }
        1 => {
            let n = rng.gen_range(10) as usize;
            assert_eq!(
                net.fault_hold_credits(engine, port, n, until),
                reference.fault_hold_credits(engine, port, n, until),
                "credits taken at cycle {now}"
            );
        }
        _ => {
            net.fault_drop_next_ejection(engine);
            reference.fault_drop_next_ejection(engine);
        }
    }
}

/// Runs `case` on both models and compares everything observable;
/// panics naming the case on the first difference.
fn check(case: &Case) {
    let outcome = std::panic::catch_unwind(|| compare(case));
    if let Err(panic) = outcome {
        eprintln!("differential mismatch for {case:?}");
        std::panic::resume_unwind(panic);
    }
}

fn compare(case: &Case) {
    let topo = Topology::mesh(case.width, case.height);
    let placement = Placement::row_major(topo);
    let config = NetworkConfig {
        topology: topo,
        width_bits: case.width_bits,
        router: case.router,
    };
    let mut net = MeshNetwork::new(config.clone(), placement.clone());
    let mut reference = RefMesh::new(config, &placement);
    let (net_trace, ref_trace) = (Tracer::chrome(), Tracer::chrome());
    net.attach_tracer(&net_trace);
    reference.attach_tracer(&ref_trace);

    let engines = topo.nodes() as u64;
    let mut rng = SimRng::new(case.seed);
    let mut next_id = 0u64;
    for c in 0..case.cycles + DRAIN {
        let now = Cycle(c);
        let traffic = c < case.cycles;
        if traffic {
            for _ in 0..3 {
                if rng.gen_range(100) >= case.send_pct {
                    break;
                }
                let from = EngineId(rng.gen_range(engines) as u16);
                let to = EngineId(rng.gen_range(engines) as u16);
                let payload = vec![next_id as u8; rng.gen_range(160) as usize];
                let msg = Message::builder(MessageId(next_id), MessageKind::Internal)
                    .tenant(TenantId(rng.gen_range(u64::from(TENANTS)) as u16))
                    .payload(Bytes::from(payload))
                    .build();
                next_id += 1;
                net.send(from, to, msg.clone(), now);
                reference.send(from, to, msg, now);
            }
            if rng.gen_range(100) < case.fault_pct {
                fault(&mut rng, c, engines, &mut net, &mut reference);
            }
        }
        net.tick(now);
        reference.tick(now);
        for e in 0..engines {
            // While draining every engine is always ready.
            if traffic && rng.gen_range(100) >= case.poll_pct {
                continue;
            }
            let engine = EngineId(e as u16);
            let got = net.poll_ejected(engine, now.next());
            let want = reference.poll_ejected(engine, now.next());
            assert_eq!(
                got.map(|m| (m.id, m.tenant, m.payload)),
                want.map(|m| (m.id, m.tenant, m.payload)),
                "cycle {} engine {}",
                c,
                e
            );
        }
        assert_eq!(net.is_quiescent(), reference.is_quiescent(), "cycle {}", c);
        if !traffic && net.is_quiescent() {
            break;
        }
    }

    assert_eq!(net.total_flit_hops(), reference.total_flit_hops());
    assert_eq!(net.active_cycles(), reference.active_cycles());
    assert_eq!(net.lost_messages(), reference.lost_messages());
    assert_eq!(net.leaked_credits(), reference.leaked_credits());
    for t in 0..TENANTS {
        assert_eq!(net.lost_of(TenantId(t)), reference.lost_of(TenantId(t)));
    }
    // The metrics export carries every `NetworkStats` field (the
    // latency histogram as its summary) plus the fault counters.
    let (mut got, mut want) = (MetricsRegistry::new(), MetricsRegistry::new());
    net.export_metrics(&mut got, "noc");
    reference.export_metrics(&mut want, "noc");
    assert_eq!(got.to_json(), want.to_json());
    let stats = net.stats();
    assert_eq!(
        got.counter("noc.injected_messages"),
        Some(stats.injected_messages)
    );
    assert_eq!(
        got.counter("noc.delivered_messages"),
        Some(stats.delivered_messages)
    );
    assert_eq!(
        got.counter("noc.delivered_flits"),
        Some(stats.delivered_flits)
    );
    assert_eq!(
        got.histogram("noc.latency").map(|h| h.count()),
        Some(stats.latency.count())
    );

    let (got, want) = (
        net_trace.chrome_json().unwrap(),
        ref_trace.chrome_json().unwrap(),
    );
    assert!(
        got == want,
        "trace JSON differs at byte {} of {}/{}",
        first_difference(&got, &want),
        got.len(),
        want.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mesh_matches_reference_stepper(case in arb_case()) {
        check(&case);
    }
}

/// Single-flit input and ejection buffers on the largest mesh under
/// heavy load and frequent faults, independent of what the fuzzer
/// samples.
#[test]
fn single_flit_buffers_match_reference_under_faults() {
    for seed in 0..4 {
        let case = Case {
            width: 8,
            height: 8,
            router: RouterConfig {
                input_buffer_flits: 1,
                ejection_buffer_flits: 1,
            },
            width_bits: 64,
            seed,
            cycles: 200,
            send_pct: 60,
            poll_pct: 50,
            fault_pct: 5,
        };
        check(&case);
    }
}
