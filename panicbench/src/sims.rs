//! The four workloads, each built from a seed through the simulator's
//! public API and driven one fixed simulated slice at a time.
//!
//! Every workload is open-loop in simulated time (seeded, periodic
//! arrivals) and runs as fixed-length *episodes*: set up, warm up,
//! run the measured slices, then drain and check. An episode's
//! simulated outputs depend only on the seed, so each episode of a run
//! repeats the same digest.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use bytes::Bytes;
use engines::engine::NullOffload;
use engines::mac::MacEngine;
use engines::tile::TileConfig;
use fabric::{Fabric, FabricBuilder, LinkSpec, PeriodicDriver};
use noc::router::RouterConfig;
use noc::topology::Topology;
use packet::chain::EngineClass;
use packet::message::{Priority, TenantId};
use packet::EngineId;
use panic_core::nic::{NicBuilder, NicConfig, PanicNic};
use panic_core::programs::chain_program;
use panic_core::scenarios::{ChainScenario, ChainScenarioConfig, KvsScenario, KvsScenarioConfig};
use panic_ctrl::{CtrlBody, CtrlEndpoint, CtrlFrame, CtrlRequest, CtrlResponse};
use rmt::pipeline::PipelineConfig;
use sim_core::rng::SimRng;
use sim_core::time::{Bandwidth, Cycle, Cycles, Freq};
use tenancy::{RateSpec, TenancyConfig, VNicSpec};
use trace::MetricsRegistry;
use workloads::frames::FrameFactory;
use workloads::zipf::{PartitionedZipf, Zipf};

use crate::spans::Spans;
use crate::sys::Fnv;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Chain traffic at the load knee of the 6×6 mesh.
    NicKnee,
    /// The same NIC nearly idle: fast-forward does the work.
    NicSparse,
    /// Two-tenant KVS with IPSec, cache, DMA and PCIe engines.
    KvsMix,
    /// Four-NIC ring fabric with tenancy and a control stream.
    RackRing,
}

/// Fixed simulated sizes of one workload's episodes.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Cycles per timed slice.
    pub slice: u64,
    /// Warm-up cycles before the first timed slice.
    pub warmup: u64,
    /// Timed slices per episode.
    pub slices: u64,
}

impl Shape {
    /// Simulated cycles an episode runs before its drain.
    #[must_use]
    pub fn horizon(self) -> u64 {
        self.warmup + self.slice * self.slices
    }
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::NicKnee,
        Workload::NicSparse,
        Workload::KvsMix,
        Workload::RackRing,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::NicKnee => "nic_knee",
            Workload::NicSparse => "nic_sparse",
            Workload::KvsMix => "kvs_mix",
            Workload::RackRing => "rack_ring",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Episode shape. Slices are sized to a few host milliseconds on a
    /// 2-core x86-64 VM; the rack's slice is a whole number of 48-cycle
    /// epochs so slicing never moves an epoch boundary.
    #[must_use]
    pub fn shape(self) -> Shape {
        match self {
            Workload::NicKnee => Shape {
                slice: 1_000,
                warmup: 20_000,
                slices: 100,
            },
            Workload::NicSparse => Shape {
                slice: 100_000,
                warmup: 1_000_000,
                slices: 100,
            },
            Workload::KvsMix => Shape {
                slice: 2_000,
                warmup: 40_000,
                slices: 100,
            },
            Workload::RackRing => Shape {
                slice: 480,
                warmup: 9_600,
                slices: 200,
            },
        }
    }
}

/// What an episode's drain and checks found.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Simulated frames offered (the benchmark's operations).
    pub offered: u64,
    /// Operations the conservation identities do not account for.
    pub unaccounted: u64,
    /// Digest of the simulated outputs (reports, conservation,
    /// metrics JSON).
    pub digest: u64,
    /// Exact per-layer counts from the program's exports.
    pub counts: BTreeMap<&'static str, f64>,
    /// Load-guard violation, if the workload left its regime.
    pub guard: Option<String>,
    /// One human-readable line about the simulated outputs.
    pub summary: String,
}

/// A built workload instance.
pub trait Sim {
    /// Advances `cycles` simulated cycles (a whole number of slices).
    fn advance(&mut self, cycles: u64, spans: &mut Spans);
    /// Drains, checks conservation, and digests the outputs.
    fn finish(&mut self) -> Outcome;
    /// A NIC of the workload (member 0 on the rack), for layer probes.
    fn nic(&self) -> &PanicNic;
}

/// Builds `w` for `seed`. `threads` only matters on the rack.
#[must_use]
pub fn build(w: Workload, seed: u64, threads: usize) -> Box<dyn Sim> {
    match w {
        Workload::NicKnee | Workload::NicSparse => chain_sim(w, chain_config(w, seed)),
        Workload::KvsMix => Box::new(KvsSim::new(seed)),
        Workload::RackRing => Box::new(RackSim::new(seed, w.shape().horizon(), threads)),
    }
}

// ---- shared helpers ---------------------------------------------------

/// Sums every counter whose name ends with `suffix`.
fn sum_suffix(m: &MetricsRegistry, suffix: &str) -> u64 {
    m.counters()
        .filter(|(n, _)| n.ends_with(suffix))
        .map(|(_, v)| v)
        .sum()
}

/// Max over every counter whose name ends with `suffix`.
fn max_suffix(m: &MetricsRegistry, suffix: &str) -> u64 {
    m.counters()
        .filter(|(n, _)| n.ends_with(suffix))
        .map(|(_, v)| v)
        .max()
        .unwrap_or(0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer counts common to every NIC, from one metrics registry
/// (a bare NIC's or a fabric's, whose member keys carry a `nicN.`
/// prefix — the suffix sums cover both).
fn nic_counts(
    m: &MetricsRegistry,
    stage_hits: u64,
    stage_lookups: u64,
) -> BTreeMap<&'static str, f64> {
    let mut c = BTreeMap::new();
    c.insert("noc.flit_hops", sum_suffix(m, "noc.flit_hops") as f64);
    c.insert(
        "noc.injected_messages",
        sum_suffix(m, "noc.injected_messages") as f64,
    );
    c.insert("perf.layer.noc", sum_suffix(m, "perf.layer.noc") as f64);
    c.insert("rmt.accepted", sum_suffix(m, "rmt.accepted") as f64);
    c.insert("rmt.recirculated", sum_suffix(m, "rmt.recirculated") as f64);
    c.insert("rmt.stage_hit_ratio", ratio(stage_hits, stage_lookups));
    c.insert("perf.layer.rmt", sum_suffix(m, "perf.layer.rmt") as f64);
    c.insert("engines.processed", sum_suffix(m, ".processed") as f64);
    c.insert("engines.busy_cycles", sum_suffix(m, ".busy_cycles") as f64);
    c.insert(
        "perf.layer.engines",
        sum_suffix(m, "perf.layer.engines") as f64,
    );
    c.insert("perf.layer.sched", sum_suffix(m, "perf.layer.sched") as f64);
    c.insert(
        "perf.layer.tenancy",
        sum_suffix(m, "perf.layer.tenancy") as f64,
    );
    c.insert("sched.dropped", sum_suffix(m, ".sched.dropped") as f64);
    c.insert("sched.refused", sum_suffix(m, ".sched.refused") as f64);
    c.insert(
        "sched.peak_depth",
        max_suffix(m, ".sched.peak_depth") as f64,
    );
    c
}

/// Stage hit and lookup totals of a NIC's pipeline.
fn stage_totals(nic: &PanicNic) -> (u64, u64) {
    let hits: u64 = nic.pipeline().stage_hits().iter().sum();
    let misses: u64 = nic.pipeline().stage_misses().iter().sum();
    (hits, hits + misses)
}

/// Counts every workload reports, filled with the layer's idle value
/// where the workload has no such layer.
fn with_defaults(mut c: BTreeMap<&'static str, f64>) -> BTreeMap<&'static str, f64> {
    for key in [
        "engines.kvs_cache.hit_ratio",
        "fabric.epochs",
        "fabric.forwarded",
        "fabric.backpressured",
        "ctrl.commits",
        "ctrl.rejections",
    ] {
        c.entry(key).or_insert(0.0);
    }
    c
}

// ---- nic_knee / nic_sparse ------------------------------------------

/// Offered load (fraction of min-frame line rate per port) of the
/// chain workloads: the knee, and a nearly idle NIC.
const KNEE_LOAD: f64 = 0.3;
const SPARSE_LOAD: f64 = 0.002;

/// `nic_knee` guard: delivered/offered over the episode must stay
/// above this share ...
const KNEE_MIN_DELIVERED: f64 = 0.97;
/// ... and the simulated p99 latency below this many cycles, or the
/// workload has slid into a growing backlog and refuses to report.
const KNEE_MAX_P99: u64 = 400;

/// Chain configuration of the two single-NIC chain workloads.
#[must_use]
pub fn chain_config(w: Workload, seed: u64) -> ChainScenarioConfig {
    ChainScenarioConfig {
        chain_len: 2,
        offered_fraction: if w == Workload::NicSparse {
            SPARSE_LOAD
        } else {
            KNEE_LOAD
        },
        seed,
        ..ChainScenarioConfig::default()
    }
}

struct ChainSim {
    w: Workload,
    s: ChainScenario,
    now: u64,
}

/// A chain workload on an explicit configuration (the load guard
/// applies when `w` is [`Workload::NicKnee`]).
#[must_use]
pub fn chain_sim(w: Workload, config: ChainScenarioConfig) -> Box<dyn Sim> {
    Box::new(ChainSim {
        w,
        s: ChainScenario::new(config),
        now: 0,
    })
}

impl Sim for ChainSim {
    fn advance(&mut self, cycles: u64, _spans: &mut Spans) {
        self.s.run(cycles);
        self.now += cycles;
    }

    fn finish(&mut self) -> Outcome {
        // The load guard and the driver-loop counts read the window as
        // run, before the drain.
        let window = self.s.report();
        let skipped = self.s.cycles_skipped();
        self.s.drain(1_000_000);
        let report = self.s.report();
        let nic = self.s.nic();
        let cons = nic.conservation();
        let mut m = MetricsRegistry::new();
        self.s.export_metrics(&mut m);
        let mut h = Fnv::default();
        h.write_str(&format!("{report:?}"));
        h.write_str(&format!("{cons:?}"));
        h.write_str(&m.to_json());

        let (hits, lookups) = stage_totals(nic);
        let mut counts = nic_counts(&m, hits, lookups);
        let total = self.now.max(1);
        counts.insert("core.ticks_executed", total.saturating_sub(skipped) as f64);
        counts.insert("core.skip_ratio", ratio(skipped, total));

        let unaccounted = if nic.is_quiescent() && cons.holds() {
            0
        } else {
            cons.sources().abs_diff(cons.sinks()).max(1)
        };
        let delivered_share = ratio(window.delivered, window.offered);
        let guard = (self.w == Workload::NicKnee
            && (delivered_share < KNEE_MIN_DELIVERED || window.latency.p99 > KNEE_MAX_P99))
            .then(|| {
                format!(
                    "nic_knee left the bounded regime: delivered/offered {delivered_share:.4} \
                     (floor {KNEE_MIN_DELIVERED}), p99 {} cycles (ceiling {KNEE_MAX_P99})",
                    window.latency.p99
                )
            });
        Outcome {
            offered: report.offered,
            unaccounted,
            digest: h.finish(),
            counts: with_defaults(counts),
            guard,
            summary: format!(
                "offered {} delivered {} (window {delivered_share:.4}) sim p50/p99 {}/{} cycles, \
                 sched drops {}, conservation {}",
                report.offered,
                report.delivered,
                report.latency.p50,
                report.latency.p99,
                report.sched_drops,
                if unaccounted == 0 { "closes" } else { "OPEN" },
            ),
        }
    }

    fn nic(&self) -> &PanicNic {
        self.s.nic()
    }
}

// ---- kvs_mix ----------------------------------------------------------

/// GETs that may still be unanswered when an episode ends: the ones in
/// flight (about 30 at the default rates and host service time); more
/// means requests were lost.
const KVS_MAX_IN_FLIGHT: u64 = 64;

/// The `kvs_mix` configuration for `seed`.
#[must_use]
pub(crate) fn kvs_config(seed: u64) -> KvsScenarioConfig {
    KvsScenarioConfig {
        seed,
        ..KvsScenarioConfig::two_tenant_default()
    }
}

struct KvsSim {
    s: KvsScenario,
    now: u64,
}

impl KvsSim {
    fn new(seed: u64) -> KvsSim {
        KvsSim {
            s: KvsScenario::new(kvs_config(seed)),
            now: 0,
        }
    }
}

impl Sim for KvsSim {
    fn advance(&mut self, cycles: u64, _spans: &mut Spans) {
        self.s.run(cycles);
        self.now += cycles;
    }

    fn finish(&mut self) -> Outcome {
        let report = self.s.report();
        let nic = self.s.nic();
        let cons = nic.conservation();
        let mut m = MetricsRegistry::new();
        self.s.export_metrics(&mut m);
        let mut h = Fnv::default();
        h.write_str(&format!("{report:?}"));
        h.write_str(&format!("{cons:?}"));
        h.write_str(&m.to_json());

        let (hits, lookups) = stage_totals(nic);
        let mut counts = nic_counts(&m, hits, lookups);
        let skipped = self.s.cycles_skipped();
        let total = self.now.max(1);
        counts.insert("core.ticks_executed", total.saturating_sub(skipped) as f64);
        counts.insert("core.skip_ratio", ratio(skipped, total));
        counts.insert(
            "engines.kvs_cache.hit_ratio",
            ratio(report.cache_hits, report.cache_hits + report.cache_misses),
        );

        let gets: u64 = report.tenants.iter().map(|t| t.gets).sum();
        let sets: u64 = report.tenants.iter().map(|t| t.sets).sum();
        let ok: u64 = report.tenants.iter().map(|t| t.replies_ok).sum();
        let bad: u64 = report.tenants.iter().map(|t| t.replies_bad).sum();
        // The NIC's copy identity does not apply here: engines originate
        // messages (RDMA reads, DMA completions) that it counts only as
        // sinks. The request ledger accounts instead: every GET is
        // answered with the right bytes or still in flight.
        let unaccounted = bad
            + gets.saturating_sub(ok + report.unanswered)
            + report.unanswered.saturating_sub(KVS_MAX_IN_FLIGHT);
        Outcome {
            offered: gets + sets,
            unaccounted,
            digest: h.finish(),
            counts: with_defaults(counts),
            guard: None,
            summary: format!(
                "gets {gets} sets {sets} replies ok {ok} bad {bad} unanswered {} cache hits {} \
                 misses {} hit-path p99 {} host-path p99 {} cycles, request ledger {}",
                report.unanswered,
                report.cache_hits,
                report.cache_misses,
                report.hit_path.p99,
                report.host_path.p99,
                if unaccounted == 0 { "closes" } else { "OPEN" },
            ),
        }
    }

    fn nic(&self) -> &PanicNic {
        self.s.nic()
    }
}

// ---- rack_ring --------------------------------------------------------

/// Members in the ring.
const RACK_NICS: usize = 4;
/// vNICs instantiated per member (the stripe's hottest keys).
pub(crate) const RACK_ACTIVE: usize = 32;
/// Global tenant key space striped across the rack.
const TENANT_SPACE: usize = 1_000_000;
/// One frame per member every this many cycles.
const RACK_PERIOD: u64 = 120;
/// Inter-NIC link latency (cycles), rate (bytes/cycle) and credits.
pub(crate) const LINK_LATENCY: u64 = 48;
const LINK_RATE: u64 = 16;
const LINK_CREDITS: usize = 32;
/// A control request is serviced every this many cycles (a whole
/// number of epochs, so control points never split an epoch).
const CTRL_PERIOD: u64 = 4_800;

/// One ring member: MAC uplink, CRC-class offload, two RMT portals, a
/// chain whose tail runs on the next member, and the stripe's vNICs.
fn rack_member(i: usize, seed: u64) -> (NicBuilder, EngineId) {
    let freq = Freq::PANIC_DEFAULT;
    let mut b = PanicNic::builder(NicConfig {
        topology: Topology::mesh(4, 4),
        width_bits: 128,
        router: RouterConfig::default(),
        pipeline: PipelineConfig {
            parallel: 2,
            depth: 18,
            freq,
        },
        pcie_flush_interval: 0,
    });
    let eth = b.engine(
        Box::new(MacEngine::new("eth", Bandwidth::gbps(100), freq)),
        TileConfig::default(),
    );
    let crc = b.engine(
        Box::new(NullOffload::new("crc", EngineClass::Asic, Cycles(8))),
        TileConfig {
            queue_capacity: 256,
            ..TileConfig::default()
        },
    );
    let _ = b.rmt_portal();
    let _ = b.rmt_portal();
    let next = (i + 1) % RACK_NICS;
    b.program(chain_program(
        &[crc, EngineId::remote(next, crc)],
        EngineId::remote(next, eth),
        Some(5_000),
    ));
    b.tenancy(stripe_tenancy(i, seed));
    (b, eth)
}

/// Member `i`'s vNIC table: one vNIC per hot key of its stripe.
#[must_use]
pub(crate) fn stripe_tenancy(i: usize, seed: u64) -> TenancyConfig {
    let stripe = PartitionedZipf::new(
        seed,
        i as u64,
        RACK_NICS as u64,
        TENANT_SPACE / RACK_NICS,
        0.99,
    );
    let specs = (0..RACK_ACTIVE)
        .map(|rank| {
            let key = stripe.key_of_rank(rank);
            VNicSpec::new(
                rack_tenant(i, rank),
                format!("stripe{i}-key{key}"),
                if rank == 0 { 4 } else { 1 },
            )
            .credit_quota(16)
        })
        .collect();
    TenancyConfig::new(specs).shared_credits(256)
}

/// Member-unique tenant id of the stripe's rank-`rank` key.
#[must_use]
pub(crate) fn rack_tenant(member: usize, rank: usize) -> TenantId {
    TenantId((member * RACK_ACTIVE + rank + 1) as u16)
}

/// The ring's builder (validated on `build`) plus each member's
/// control endpoint.
#[must_use]
pub(crate) fn ring_builder(seed: u64, frames_per_nic: u64) -> (FabricBuilder, Vec<CtrlEndpoint>) {
    let mut fb = FabricBuilder::new();
    let mut members = Vec::new();
    let mut endpoints = Vec::new();
    for i in 0..RACK_NICS {
        let (b, eth) = rack_member(i, seed);
        endpoints.push(CtrlEndpoint::for_member(b.to_spec(), i as u16));
        members.push((fb.member(b, eth), eth));
    }
    let pairs: BTreeSet<(usize, usize)> = (0..RACK_NICS)
        .map(|i| {
            let next = (i + 1) % RACK_NICS;
            (i.min(next), i.max(next))
        })
        .collect();
    for (a, b) in pairs {
        fb.link_pair(
            a,
            b,
            LinkSpec::new(0, 0)
                .latency(LINK_LATENCY)
                .bytes_per_cycle(LINK_RATE)
                .credits(LINK_CREDITS),
        );
    }
    for (i, (mi, eth)) in members.into_iter().enumerate() {
        let zipf = Zipf::new(RACK_ACTIVE, 0.99);
        let mut rng = SimRng::new(seed).derive(&format!("rack-traffic-{i}"));
        let mut factory = FrameFactory::for_nic_port(i as u32);
        fb.driver(
            mi,
            Box::new(PeriodicDriver::new(
                (i as u64) * 7,
                RACK_PERIOD,
                frames_per_nic,
                move |nic: &mut PanicNic, now: Cycle, k: u64| {
                    let rank = zipf.sample(&mut rng);
                    nic.rx_frame(
                        eth,
                        factory.min_frame((k % 50) as u16, 80),
                        rack_tenant(i, rank),
                        Priority::Normal,
                        now,
                    );
                },
            )),
        );
    }
    (fb, endpoints)
}

/// Runs the ring for `cycles` at `threads` threads (whole epochs, one
/// span each when `spans` is on) and drains it. Returns the measured
/// simulated cycles per host second, the outputs' digest and the
/// epochs run.
#[must_use]
pub(crate) fn fixture(
    seed: u64,
    cycles: u64,
    threads: usize,
    spans: &mut Spans,
) -> (f64, u64, u64) {
    let mut sim = RackSim::new(seed, cycles, threads);
    let t = std::time::Instant::now();
    sim.advance(cycles, spans);
    let rate = cycles as f64 / t.elapsed().as_secs_f64();
    let epochs = sim.fabric.stats().epochs;
    (rate, sim.finish().digest, epochs)
}

/// The control request serviced at control point `k`: weight and rate
/// rewrites for a seed-chosen tenant on a rotating member.
fn ctrl_request(rng: &mut SimRng, k: u64) -> (usize, CtrlRequest) {
    let member = (k as usize) % RACK_NICS;
    let tenant = rack_tenant(member, rng.gen_range(RACK_ACTIVE as u64) as usize);
    let req = match k % 3 {
        0 => CtrlRequest::SetWeight {
            tenant,
            weight: 1 + rng.gen_range(4),
        },
        // Generous limits: the rewrite exercises admission and the
        // token buckets without building a backlog.
        1 => CtrlRequest::SetRate {
            tenant,
            rate: Some(RateSpec::per_cycles(1, 60 + rng.gen_range(60), 8)),
        },
        _ => CtrlRequest::SetRate { tenant, rate: None },
    };
    (member, req)
}

/// Cycles the rack may run past its horizon while draining.
const RACK_DRAIN_LIMIT: u64 = 1_000_000;

struct RackSim {
    fabric: Fabric,
    endpoints: Vec<CtrlEndpoint>,
    ctrl_rng: SimRng,
    now: Cycle,
    ctrl_points: u64,
    commits: u64,
    rejections: u64,
    /// Every control response, in order (part of the digest).
    responses: String,
    frames_per_nic: u64,
}

impl RackSim {
    fn new(seed: u64, horizon: u64, threads: usize) -> RackSim {
        let frames_per_nic = horizon / RACK_PERIOD;
        let (fb, endpoints) = ring_builder(seed, frames_per_nic);
        let mut fabric = fb.build();
        fabric.set_threads(threads);
        RackSim {
            fabric,
            endpoints,
            ctrl_rng: SimRng::new(seed).derive("rack-ctrl"),
            now: Cycle(0),
            ctrl_points: 0,
            commits: 0,
            rejections: 0,
            responses: String::new(),
            frames_per_nic,
        }
    }

    /// Runs to `to`: whole epochs when spans are on (one span each),
    /// one `run_ff` call otherwise.
    fn run_to(&mut self, to: Cycle, spans: &mut Spans) {
        if !spans.enabled() {
            self.now = self.fabric.run_ff(self.now, to.0 - self.now.0).0;
            return;
        }
        let epoch = self.fabric.epoch_len().expect("the ring has links");
        while self.now < to {
            let step = epoch.min(to.0 - self.now.0);
            let id = spans.open("fabric", "fabric.epoch");
            self.now = self.fabric.run_ff(self.now, step).0;
            spans.close(id);
        }
    }

    /// Services control point `k` on its member.
    fn control(&mut self, spans: &mut Spans) {
        let k = self.ctrl_points;
        self.ctrl_points += 1;
        let (member, req) = ctrl_request(&mut self.ctrl_rng, k);
        let frame = CtrlFrame::request(member as u16, k as u32, req).encode();
        let ep = &mut self.endpoints[member];
        ep.submit(&frame);
        let id = spans.open("ctrl", "ctrl.service");
        ep.service(self.fabric.member_mut(member), self.now);
        spans.close(id);
        while let Some(resp) = ep.poll_decoded() {
            match resp.body {
                CtrlBody::Response(CtrlResponse::Ok { epoch }) => {
                    self.commits += 1;
                    let _ = writeln!(self.responses, "{k} ok {epoch}");
                }
                CtrlBody::Response(CtrlResponse::Rejected { findings }) => {
                    self.rejections += 1;
                    let _ = writeln!(self.responses, "{k} rejected {findings}");
                }
                other => {
                    let _ = writeln!(self.responses, "{k} {other:?}");
                }
            }
        }
    }
}

impl Sim for RackSim {
    fn advance(&mut self, cycles: u64, spans: &mut Spans) {
        let end = Cycle(self.now.0 + cycles);
        while self.now < end {
            let next_ctrl = Cycle((self.now.0 / CTRL_PERIOD + 1) * CTRL_PERIOD);
            let to = next_ctrl.min(end);
            self.run_to(to, spans);
            if self.now == next_ctrl {
                self.control(spans);
            }
        }
    }

    fn finish(&mut self) -> Outcome {
        let mut drained = 0;
        while !self.fabric.is_quiescent() && drained < RACK_DRAIN_LIMIT {
            self.now = self.fabric.run_ff(self.now, CTRL_PERIOD).0;
            drained += CTRL_PERIOD;
        }
        let fleet = self.fabric.conservation();
        let mut tenants_ok = true;
        for i in 0..self.fabric.len() {
            let nic = self.fabric.member(i);
            for rank in 0..RACK_ACTIVE {
                if let Some(tc) = nic.tenant_conservation(rack_tenant(i, rank)) {
                    tenants_ok &= tc.holds();
                }
            }
        }
        let mut m = MetricsRegistry::new();
        self.fabric.export_metrics(&mut m);
        let stats = *self.fabric.stats();
        let mut h = Fnv::default();
        h.write_str(&format!("{stats:?}"));
        h.write_str(&format!("{fleet}"));
        h.write_str(&self.responses);
        h.write_str(&m.to_json());

        let (mut hits, mut lookups, mut offered, mut delivered) = (0, 0, 0, 0);
        for i in 0..self.fabric.len() {
            let nic = self.fabric.member(i);
            let (hh, ll) = stage_totals(nic);
            hits += hh;
            lookups += ll;
            offered += nic.stats().rx_frames;
            delivered += nic.stats().tx_wire;
        }
        let mut counts = nic_counts(&m, hits, lookups);
        let total = self.now.0.max(1);
        // Member-level skips are not exported per member; the fleet's
        // whole-rack jumps are the skipped share reported here.
        let skipped = stats.fleet_skipped;
        counts.insert("core.ticks_executed", total.saturating_sub(skipped) as f64);
        counts.insert("core.skip_ratio", ratio(skipped, total));
        counts.insert("fabric.epochs", stats.epochs as f64);
        counts.insert("fabric.forwarded", stats.forwarded as f64);
        counts.insert("fabric.backpressured", stats.backpressured as f64);
        counts.insert("ctrl.commits", self.commits as f64);
        counts.insert("ctrl.rejections", self.rejections as f64);

        let closes = self.fabric.is_quiescent() && fleet.holds() && tenants_ok;
        let unaccounted = if closes { 0 } else { offered.max(1) };
        let expected = self.frames_per_nic * RACK_NICS as u64;
        Outcome {
            offered,
            unaccounted: unaccounted + expected.abs_diff(offered),
            digest: h.finish(),
            counts: with_defaults(counts),
            guard: None,
            summary: format!(
                "offered {offered} delivered {delivered} crossings {} backpressured {} epochs {} \
                 ctrl commits {} rejections {}, fleet+tenant conservation {}",
                stats.forwarded,
                stats.backpressured,
                stats.epochs,
                self.commits,
                self.rejections,
                if closes { "closes" } else { "OPEN" },
            ),
        }
    }

    fn nic(&self) -> &PanicNic {
        self.fabric.member(0)
    }
}

/// The frames a workload offers, in arrival order (`count` of them),
/// for layer probes: chain ports' minimum frames, the KVS tenants'
/// request frames (WAN ones ESP-wrapped as the clients send them), or
/// the rack's striped frames.
#[must_use]
pub(crate) fn workload_frames(w: Workload, seed: u64, count: usize) -> Vec<(Bytes, EngineId)> {
    match w {
        Workload::NicKnee | Workload::NicSparse => {
            let mut factory = FrameFactory::for_nic_port(0);
            // Port ids: the chain scenario declares its two MACs first.
            (0..count)
                .map(|k| {
                    (
                        factory.min_frame((k % 2) as u16, 80),
                        EngineId((k % 2) as u16),
                    )
                })
                .collect()
        }
        Workload::KvsMix => kvs_frames(seed, count),
        Workload::RackRing => {
            let mut factory = FrameFactory::for_nic_port(0);
            (0..count)
                .map(|k| (factory.min_frame((k % 50) as u16, 80), EngineId(0)))
                .collect()
        }
    }
}

fn kvs_frames(seed: u64, count: usize) -> Vec<(Bytes, EngineId)> {
    use engines::ipsec::{encrypt_frame, SecurityAssoc, TunnelConfig};
    use packet::headers::{Ipv4Addr, MacAddr};
    use workloads::kvs::{KvsWorkload, KvsWorkloadConfig};
    let cfg = kvs_config(seed);
    let mut wl = KvsWorkload::new(KvsWorkloadConfig {
        tenants: cfg.tenants.clone(),
        keys_per_tenant: cfg.keys_per_tenant,
        zipf_theta: cfg.zipf_theta,
        seed: cfg.seed,
        partitioned_keys: false,
    });
    // The client-side tunnel the KVS scenario's WAN clients use.
    let tunnel = TunnelConfig {
        sa: SecurityAssoc {
            spi: 0x1001,
            key: 0x00c0_ffee_0000_aaaa,
        },
        outer_src_mac: MacAddr::for_port(0xbeef),
        outer_dst_mac: MacAddr::for_port(1),
        outer_src_ip: Ipv4Addr::new(198, 51, 0, 1),
        outer_dst_ip: Ipv4Addr::new(10, 1, 0, 0),
    };
    let mut out = Vec::with_capacity(count);
    let mut seq = 0u32;
    while out.len() < count {
        for ev in wl.tick() {
            if ev.wan {
                out.push((encrypt_frame(&ev.frame, &tunnel, seq), EngineId(1)));
                seq += 1;
            } else {
                out.push((ev.frame.clone(), EngineId(0)));
            }
        }
    }
    out.truncate(count);
    out
}
