//! Micro-benchmarks of the simulator's hot kernels: the parser, the
//! match+action program, the PIFO scheduler, and one mesh cycle. These
//! are the per-cycle costs everything else multiplies, so regressions
//! here slow every experiment.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use noc::network::{MeshNetwork, NetworkConfig};
use noc::topology::Placement;
use packet::chain::{EngineId, Slack};
use packet::kvs::KvsRequest;
use packet::message::{Message, MessageId, MessageKind};
use rmt::parse::ParseGraph;
use sched::admission::AdmissionPolicy;
use sched::queue::SchedQueue;
use sim_core::time::Cycle;
use workloads::frames::{ports, FrameFactory};

fn kvs_frame() -> Bytes {
    let mut f = FrameFactory::for_nic_port(0);
    let req = KvsRequest::get(3, 7, 0xabc);
    f.inbound_udp(
        FrameFactory::lan_client_ip(1),
        99,
        ports::KVS,
        &req.encode(),
        64,
    )
}

fn bench_parser(c: &mut Criterion) {
    let graph = ParseGraph::standard(ports::KVS);
    let frame = kvs_frame();
    c.bench_function("kernels/parse_kvs_frame", |b| {
        b.iter(|| std::hint::black_box(graph.parse(&frame).phv.populated()))
    });
}

fn bench_mesh_cycle(c: &mut Criterion) {
    // The 6×6 mesh carrying 64 B frames on fixed legs (tile t sends to
    // tile 7t + 3 mod 36, a permutation), one leg injected per cycle and
    // every pending ejection polled: one iteration is one steady-state
    // mesh cycle of `send`, `tick` and `poll_ejected`.
    let cfg = NetworkConfig::panic_6x6_64b();
    let tiles = cfg.topology.nodes() as u16;
    let mut net = MeshNetwork::new(cfg.clone(), Placement::row_major(cfg.topology));
    let legs: Vec<(EngineId, EngineId)> = (0..tiles)
        .map(|t| (EngineId(t), EngineId((t * 7 + 3) % tiles)))
        .collect();
    let frame = Message::builder(MessageId(1), MessageKind::EthernetFrame)
        .payload(kvs_frame())
        .build();
    let mut now = Cycle(0);
    c.bench_function("kernels/mesh_cycle", |b| {
        b.iter(|| {
            let (from, to) = legs[now.0 as usize % legs.len()];
            net.send(from, to, frame.clone(), now);
            net.tick(now);
            now = now.next();
            for word in 0..net.ejection_pending_words() {
                let mut bits = net.ejection_pending_word(word);
                while bits != 0 {
                    let tile = word * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let _ = net.poll_ejected(EngineId(tile as u16), now);
                }
            }
            std::hint::black_box(net.total_flit_hops())
        })
    });
    // A growing backlog would time queueing, not a mesh cycle.
    assert!(
        legs.iter().all(|&(from, _)| net.source_depth(from) < 64),
        "mesh_cycle load saturates the mesh"
    );
}

fn bench_pifo(c: &mut Criterion) {
    c.bench_function("kernels/sched_queue_offer_pop_64", |b| {
        b.iter(|| {
            let mut q = SchedQueue::new(64, AdmissionPolicy::TailDrop);
            for i in 0..64u64 {
                let msg = Message::builder(MessageId(i), MessageKind::Internal)
                    .chain(
                        packet::chain::ChainHeader::uniform(
                            &[EngineId(1)],
                            Slack((i % 7) as u32 * 10),
                        )
                        .unwrap(),
                    )
                    .build();
                let _ = q.offer(msg, Cycle(i));
            }
            let mut n = 0;
            while q.pop(Cycle(100)).is_some() {
                n += 1;
            }
            std::hint::black_box(n)
        })
    });
}

fn bench_crypto(c: &mut Criterion) {
    use engines::ipsec::{encrypt_frame, SecurityAssoc, TunnelConfig};
    use packet::headers::{Ipv4Addr, MacAddr};
    let tunnel = TunnelConfig {
        sa: SecurityAssoc { spi: 1, key: 42 },
        outer_src_mac: MacAddr::for_port(0),
        outer_dst_mac: MacAddr::for_port(1),
        outer_src_ip: Ipv4Addr::new(1, 1, 1, 1),
        outer_dst_ip: Ipv4Addr::new(2, 2, 2, 2),
    };
    let frame = kvs_frame();
    c.bench_function("kernels/esp_encrypt_64B", |b| {
        b.iter(|| std::hint::black_box(encrypt_frame(&frame, &tunnel, 7).len()))
    });
}

criterion_group!(
    kernels,
    bench_parser,
    bench_mesh_cycle,
    bench_pifo,
    bench_crypto
);
criterion_main!(kernels);
