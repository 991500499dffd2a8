//! Layer probes: each drives one layer's public hot-path functions in
//! isolation, fed with the workload's own frames, program and
//! placement, and reports host ns per operation.

use std::collections::BTreeMap;

use bytes::Bytes;
use engines::engine::{NullOffload, Offload};
use engines::mac::MacEngine;
use engines::tile::{EngineTile, TileConfig};
use noc::{Coord, MeshNetwork};
use packet::chain::EngineClass;
use packet::message::{Message, MessageId, MessageKind, Priority, TenantId};
use packet::EngineId;
use panic_core::nic::{NicBuilder, PanicNic};
use panic_ctrl::{CtrlBody, CtrlEndpoint, CtrlFrame, CtrlRequest, CtrlResponse};
use rmt::{CompiledProgram, ParseOutcome, ProgramScratch, RmtPipeline};
use sim_core::time::{Bandwidth, Cycle, Cycles, Freq};
use tenancy::{ExitKind, SubmitSource, TenancyRuntime};

use crate::sims::{kvs_config, rack_tenant, stripe_tenancy, Workload, RACK_ACTIVE};
use crate::spans::Spans;
use crate::sys::ns_per_op;

/// Host seconds each probe measures for.
const BUDGET_S: f64 = 0.2;

/// Messages per timed batch.
const BATCH: usize = 64;

/// Probe results: metric name → value, plus per-offload engine costs.
#[derive(Debug, Default)]
pub struct ProbeResults {
    /// Per-layer timings by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// `engines.<offload>.ns_per_msg` by offload, with messages probed.
    pub engines: BTreeMap<String, (f64, u64)>,
    /// Control-probe responses: (committed, rejected or failed).
    pub ctrl_responses: (u64, u64),
}

/// The workload's frames as fresh messages, before the pipeline.
fn messages(frames: &[(Bytes, EngineId)]) -> Vec<Message> {
    frames
        .iter()
        .enumerate()
        .map(|(k, (frame, port))| {
            Message::builder(MessageId(k as u64), MessageKind::EthernetFrame)
                .payload(frame.clone())
                .tenant(TenantId(0))
                .priority(Priority::Normal)
                .source(*port)
                .build()
        })
        .collect()
}

/// `count` messages cycling through `pool`.
fn batch_of(pool: &[Message], count: usize, from: &mut usize) -> Vec<Message> {
    let out = (0..count)
        .map(|k| pool[(*from + k) % pool.len()].clone())
        .collect();
    *from = (*from + count) % pool.len();
    out
}

/// A NIC with `nic`'s configuration, placement and program, where every
/// engine is a zero-cost stand-in of the same name: the shape the
/// driver loop, fast-forward and admission control see, built through
/// the public builder.
#[must_use]
fn mirror_builder(nic: &PanicNic) -> NicBuilder {
    let mut b = PanicNic::builder(nic.config().clone());
    let placement = nic.network().placement();
    let mut slots: Vec<(EngineId, Coord)> = nic
        .config()
        .topology
        .coords()
        .filter_map(|c| placement.engine_at(c).map(|id| (id, c)))
        .collect();
    slots.sort_by_key(|&(id, _)| id.0);
    for (id, c) in slots {
        let got = match nic.tile(id) {
            Some(t) => b.engine_at(
                c,
                Box::new(NullOffload::new(
                    t.offload_name(),
                    EngineClass::Asic,
                    Cycles::ZERO,
                )),
                TileConfig::default(),
            ),
            None => b.rmt_portal_at(c),
        };
        assert_eq!(got, id, "mirror must reproduce engine ids");
    }
    b.program(nic.pipeline().program().clone());
    b
}

/// A fresh stand-in for engine `name` as the workload configures it,
/// when the probe knows how to build one.
fn standin(w: Workload, name: &str, seed: u64) -> Option<Box<dyn Offload>> {
    let freq = Freq::PANIC_DEFAULT;
    match name {
        n if n.starts_with("off") => Some(Box::new(NullOffload::new(
            n,
            EngineClass::Asic,
            Cycles::ZERO,
        ))),
        "crc" => Some(Box::new(NullOffload::new(
            "crc",
            EngineClass::Asic,
            Cycles(8),
        ))),
        n if n.starts_with("eth") => Some(Box::new(MacEngine::new(n, Bandwidth::gbps(100), freq))),
        "ipsec" => {
            use engines::ipsec::{IpsecEngine, SecurityAssoc};
            let mut e = IpsecEngine::new("ipsec", 1, 8);
            e.install_sa(SecurityAssoc {
                spi: 0x1001,
                key: 0x00c0_ffee_0000_aaaa,
            });
            Some(Box::new(e))
        }
        "kvs-cache" if w == Workload::KvsMix => {
            use engines::kvs_cache::KvsCacheEngine;
            use workloads::kvs::KvsWorkload;
            let cfg = kvs_config(seed);
            let mut e = KvsCacheEngine::new(
                "kvs-cache",
                EngineId(3),
                cfg.cached_hot_keys * cfg.tenants.len() + 16,
                EngineId(4),
                EngineId(5),
            );
            for t in &cfg.tenants {
                for rank in 0..cfg.cached_hot_keys.min(cfg.keys_per_tenant) {
                    let key = KvsWorkload::key_for(t.tenant, rank);
                    let addr = e.slot_addr(key);
                    e.install(key, addr, t.value_size as u32);
                }
            }
            Some(Box::new(e))
        }
        _ => None,
    }
}

/// Runs every probe for workload `w` on `nic` (a NIC of the workload,
/// already past its run), recording one span per probe.
///
/// `gap` is the workload's simulated cycles per offered frame, which
/// paces the NoC probe (capped so the probe always carries traffic).
pub fn run(
    w: Workload,
    seed: u64,
    nic: &PanicNic,
    frames: &[(Bytes, EngineId)],
    gap: f64,
    spans: &mut Spans,
) -> ProbeResults {
    let mut r = ProbeResults::default();
    let program = nic.pipeline().program().clone();
    let pool = messages(frames);

    // rmt: parse_into, the compiled dispatch, the pipeline, lowering.
    let id = spans.open("rmt", "probe.rmt.parse");
    let parser = program.parser().clone();
    let mut outcome = ParseOutcome::default();
    let mut k = 0usize;
    let parse = ns_per_op(
        BUDGET_S,
        || (),
        |()| {
            for _ in 0..BATCH {
                parser.parse_into(&frames[k % frames.len()].0, &mut outcome);
                k += 1;
            }
            BATCH as u64
        },
    );
    spans.close(id);
    r.metrics.insert("rmt.parse_ns", parse);

    let id = spans.open("rmt", "probe.rmt.dispatch");
    let compiled = CompiledProgram::compile(&program);
    let mut scratch = ProgramScratch::default();
    let mut from = 0;
    let dispatch = ns_per_op(
        BUDGET_S,
        || batch_of(&pool, BATCH, &mut from),
        |mut batch| {
            for msg in &mut batch {
                let _ = compiled.process_scratch(msg, &mut scratch, &mut |_, _, _| {});
            }
            batch.len() as u64
        },
    );
    spans.close(id);
    r.metrics.insert("rmt.dispatch_ns", dispatch);

    let id = spans.open("rmt", "probe.rmt.pipeline");
    let mut pipe = RmtPipeline::new(nic.pipeline().config(), program.clone());
    let mut out = Vec::new();
    let mut now = Cycle(0);
    let per_packet = ns_per_op(
        BUDGET_S,
        || batch_of(&pool, BATCH, &mut from),
        |batch| {
            let n = batch.len() as u64;
            for msg in batch {
                pipe.submit(msg);
            }
            while pipe.backlog() + pipe.occupancy() > 0 {
                pipe.tick_into(now, &mut out);
                now = now.next();
            }
            n
        },
    );
    spans.close(id);
    r.metrics.insert("rmt.ns_per_packet", per_packet);

    let id = spans.open("rmt", "probe.rmt.compile");
    let compile_ns = ns_per_op(
        BUDGET_S,
        || (),
        |()| {
            std::hint::black_box(CompiledProgram::compile(&program));
            1
        },
    );
    spans.close(id);
    r.metrics.insert("rmt.compile_us", compile_ns / 1_000.0);

    // The workload's messages after classification: their chains give
    // the engine each one visits first and the mesh legs it travels.
    let mut classified = pool.clone();
    for msg in &mut classified {
        let _ = compiled.process_scratch(msg, &mut scratch, &mut |_, _, _| {});
    }

    let id = spans.open("noc", "probe.noc");
    let (tick_ns, hop_ns) = noc_probe(nic, &classified, gap.clamp(1.0, 50.0));
    spans.close(id);
    r.metrics.insert("noc.tick_ns", tick_ns);
    r.metrics.insert("noc.ns_per_flit_hop", hop_ns);

    let id = spans.open("engines", "probe.engines");
    r.engines = engine_probe(w, seed, nic, &classified);
    spans.close(id);
    let (weighted, msgs) = r
        .engines
        .values()
        .fold((0.0, 0u64), |(s, n), &(ns, m)| (s + ns * m as f64, n + m));
    r.metrics
        .insert("engines.ns_per_msg", weighted / msgs.max(1) as f64);

    let id = spans.open("core", "probe.core.ff_jump");
    let mut mirror = mirror_builder(nic).build_unvalidated();
    let mut at = Cycle(0);
    let ff = ns_per_op(
        BUDGET_S,
        || (),
        |()| {
            for _ in 0..BATCH {
                let hint = mirror.next_activity(at);
                let to = Cycle(hint.map_or(at.0 + 64, |h| h.0.max(at.0 + 1)));
                mirror.skip_idle(at, to);
                at = to;
            }
            BATCH as u64
        },
    );
    spans.close(id);
    r.metrics.insert("core.ff_jump_ns", ff);

    let id = spans.open("tenancy", "probe.tenancy.release");
    r.metrics
        .insert("tenancy.release_ns", tenancy_probe(seed, &pool));
    spans.close(id);

    let id = spans.open("ctrl", "probe.ctrl.service");
    let (service_us, responses) = ctrl_probe(nic, seed);
    r.metrics.insert("ctrl.service_us", service_us);
    r.ctrl_responses = responses;
    spans.close(id);
    r
}

/// Host ns per mesh cycle and per flit hop while the mesh carries the
/// workload's legs (ingress port → portal → each local chain hop),
/// one frame's legs injected every `gap` cycles. Each cycle also polls
/// every tile's ejection port, so the figures cover the mesh and the
/// ejection scan together.
fn noc_probe(nic: &PanicNic, classified: &[Message], gap: f64) -> (f64, f64) {
    let mut net = MeshNetwork::new(
        nic.network().config().clone(),
        nic.network().placement().clone(),
    );
    let placement = nic.network().placement();
    let ids: Vec<EngineId> = nic
        .config()
        .topology
        .coords()
        .filter_map(|c| placement.engine_at(c))
        .collect();
    let portals: Vec<EngineId> = ids
        .iter()
        .copied()
        .filter(|&id| nic.tile(id).is_none())
        .collect();
    let legs: Vec<Vec<(EngineId, EngineId, Message)>> =
        classified
            .iter()
            .enumerate()
            .map(|(k, msg)| {
                let mut path = vec![msg.source, portals[k % portals.len()]];
                path.extend(
                    msg.chain.hops().iter().map(|h| h.engine).take_while(|e| {
                        e.remote_nic().is_none() && placement.coord_of(*e).is_some()
                    }),
                );
                path.windows(2).map(|p| (p[0], p[1], msg.clone())).collect()
            })
            .collect();
    let mut now = Cycle(0);
    let mut next_frame = 0usize;
    let mut credit = 0.0f64;
    let mut elapsed_ns = 0f64;
    let tick_ns = ns_per_op(
        BUDGET_S,
        || {
            // Leg messages are cloned outside the timed region.
            let mut batch = Vec::new();
            for _ in 0..1_000 {
                credit += 1.0;
                let mut sends = Vec::new();
                while credit >= gap {
                    credit -= gap;
                    sends.extend(legs[next_frame % legs.len()].iter().cloned());
                    next_frame += 1;
                }
                batch.push(sends);
            }
            batch
        },
        |batch| {
            let t = std::time::Instant::now();
            let n = batch.len() as u64;
            for sends in batch {
                for (from, to, msg) in sends {
                    net.send(from, to, msg, now);
                }
                net.tick(now);
                for &id in &ids {
                    while net.poll_ejected(id, now).is_some() {}
                }
                now = now.next();
            }
            elapsed_ns += t.elapsed().as_nanos() as f64;
            n
        },
    );
    (tick_ns, elapsed_ns / net.total_flit_hops().max(1) as f64)
}

/// `engines.<offload>.ns_per_msg`: host ns per message through a fresh
/// tile of each engine the workload's messages visit first
/// (`EngineTile::accept` + `tick_into` until the tile is idle).
fn engine_probe(
    w: Workload,
    seed: u64,
    nic: &PanicNic,
    classified: &[Message],
) -> BTreeMap<String, (f64, u64)> {
    let mut by_engine: BTreeMap<u16, Vec<Message>> = BTreeMap::new();
    for msg in classified {
        if let Some(hop) = msg.chain.current() {
            if hop.engine.remote_nic().is_none() {
                by_engine.entry(hop.engine.0).or_default().push(msg.clone());
            }
        }
    }
    let mut out = BTreeMap::new();
    for (id, msgs) in by_engine {
        let id = EngineId(id);
        let Some(name) = nic.tile(id).map(|t| t.offload_name().to_string()) else {
            continue;
        };
        let Some(offload) = standin(w, &name, seed) else {
            continue;
        };
        let mut tile = EngineTile::new(id, offload, TileConfig::default());
        let mut emits = Vec::new();
        let mut now = Cycle(0);
        let mut from = 0;
        let ns = ns_per_op(
            BUDGET_S / 2.0,
            || batch_of(&msgs, 16, &mut from),
            |batch| {
                let n = batch.len() as u64;
                for msg in batch {
                    tile.accept(msg, now);
                }
                let mut guard = 0;
                while tile.has_work() && guard < 100_000 {
                    tile.tick_into(now, &mut emits);
                    emits.clear();
                    now = now.next();
                    guard += 1;
                }
                n
            },
        );
        // Stand-ins share a label per offload kind (`off3` → `off`,
        // `kvs-cache` → `kvs_cache`).
        let label = name
            .trim_end_matches(|c: char| c.is_ascii_digit())
            .replace('-', "_");
        let e = out.entry(label).or_insert((0.0, 0u64));
        let total = e.1 + msgs.len() as u64;
        e.0 = (e.0 * e.1 as f64 + ns * msgs.len() as f64) / total as f64;
        e.1 = total;
    }
    out
}

/// Host ns per message through `TenancyRuntime::submit` + `release`
/// (+ the exit that returns its credit) on a 32-vNIC stripe.
fn tenancy_probe(seed: u64, pool: &[Message]) -> f64 {
    let mut rt = TenancyRuntime::new(stripe_tenancy(0, seed));
    let mut now = Cycle(0);
    let mut from = 0;
    let mut released: Vec<TenantId> = Vec::new();
    ns_per_op(
        BUDGET_S,
        || {
            let mut batch = batch_of(pool, BATCH, &mut from);
            for (k, msg) in batch.iter_mut().enumerate() {
                msg.tenant = rack_tenant(0, k % RACK_ACTIVE);
            }
            batch
        },
        |batch| {
            let n = batch.len() as u64;
            for msg in batch {
                rt.submit(SubmitSource::Rx, msg, now);
                rt.release(now, |t, _| released.push(t));
                for t in released.drain(..) {
                    rt.note_exit(t, ExitKind::Wire, None);
                }
                now = now.next();
            }
            n
        },
    )
}

/// Host µs per control commit: a `SetWeight` through
/// `CtrlEndpoint::service` (mirror-spec admission with the full
/// `panic-verify` pass, then the live rewrite) on a mirror of the
/// workload's NIC carrying a 32-vNIC stripe.
fn ctrl_probe(nic: &PanicNic, seed: u64) -> (f64, (u64, u64)) {
    let mut b = mirror_builder(nic);
    b.tenancy(stripe_tenancy(0, seed));
    let mut ep = CtrlEndpoint::new(b.to_spec());
    let mut mirror = b.build_unvalidated();
    let mut seq = 0u32;
    let mut responses = (0, 0);
    let ns = ns_per_op(
        BUDGET_S,
        || {
            seq += 1;
            let req = CtrlRequest::SetWeight {
                tenant: rack_tenant(0, seq as usize % RACK_ACTIVE),
                weight: 1 + u64::from(seq % 4),
            };
            (seq, CtrlFrame::request(0, seq, req).encode())
        },
        |(at, frame)| {
            ep.submit(&frame);
            ep.service(&mut mirror, Cycle(u64::from(at)));
            while let Some(resp) = ep.poll_decoded() {
                match resp.body {
                    CtrlBody::Response(CtrlResponse::Ok { .. }) => responses.0 += 1,
                    _ => responses.1 += 1,
                }
            }
            1
        },
    );
    (ns / 1_000.0, responses)
}
