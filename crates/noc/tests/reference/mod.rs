//! Reference model of the mesh: the per-router stepper that
//! `MeshNetwork` replaced, kept only as a test oracle.
//!
//! Every tick, each non-idle router plans its switch allocation from
//! pre-tick state (owner continuation or round-robin arbitration per
//! output, in port order), then the network commits the plans tile by
//! tile: stalls and hops are traced per tile in port order, each
//! winning flit moves straight to the downstream FIFO, and one credit
//! returns upstream. Flits are whole structs and the tail carries the
//! boxed message. It exposes the `MeshNetwork` calls the differential
//! tests drive, with the same observable results.

use std::collections::{BTreeMap, HashMap, VecDeque};

use noc::network::NetworkConfig;
use noc::topology::{Coord, Placement, RouteLut, Topology};
use noc::PortDir;
use packet::{EngineId, Flit, FlitKind, Message, MessageId, TenantId};
use sim_core::stats::Histogram;
use sim_core::time::Cycle;
use trace::{MetricsRegistry, Tracer, TrackId};

const PORTS: usize = PortDir::COUNT;

/// A flit with its message carried by the tail.
#[derive(Debug)]
struct RefFlit {
    msg_id: MessageId,
    kind: FlitKind,
    dest: EngineId,
    tenant: TenantId,
    message: Option<Box<Message>>,
}

/// One router cycle's decisions: `winner[o]` is the input draining
/// through output `o`; `stalled[o]` flags a credit stall.
#[derive(Debug, Clone, Copy, Default)]
struct RoutePlan {
    winner: [Option<u8>; PORTS],
    stalled: [bool; PORTS],
}

/// The per-tile wormhole router.
#[derive(Debug)]
struct Router {
    coord: Coord,
    inputs: [VecDeque<RefFlit>; PORTS],
    cap: usize,
    credit: [u32; PORTS],
    credit_init: [u32; PORTS],
    out_owner: [Option<usize>; PORTS],
    rr: [usize; PORTS],
    forwarded: u64,
    blocked: [bool; PORTS],
}

impl Router {
    fn new(coord: Coord, topology: Topology, cap: usize, eject: usize) -> Router {
        let mut credit_init = [0u32; PORTS];
        for (p, init) in credit_init.iter_mut().enumerate() {
            *init = match PortDir::ALL[p].direction() {
                Some(d) => topology.neighbor(coord, d).map_or(0, |_| cap as u32),
                None => eject as u32,
            };
        }
        Router {
            coord,
            inputs: Default::default(),
            cap,
            credit: credit_init,
            credit_init,
            out_owner: [None; PORTS],
            rr: [0; PORTS],
            forwarded: 0,
            blocked: [false; PORTS],
        }
    }

    fn accept(&mut self, port: usize, flit: RefFlit) {
        assert!(
            self.inputs[port].len() < self.cap,
            "router {}: input overrun on {:?}",
            self.coord,
            PortDir::ALL[port]
        );
        self.inputs[port].push_back(flit);
    }

    fn refill_credit(&mut self, port: usize) {
        assert!(
            self.credit_init[port] > 0,
            "credit refill on a port with no link"
        );
        assert!(
            self.credit[port] < self.credit_init[port],
            "credit overflow: refill beyond initial {}",
            self.credit_init[port]
        );
        self.credit[port] += 1;
    }

    fn is_idle(&self) -> bool {
        self.inputs.iter().all(VecDeque::is_empty)
    }

    fn head_route(&self, i: usize, topology: Topology, lut: &RouteLut) -> Option<usize> {
        let head = self.inputs[i].front()?;
        if !head.kind.is_head() {
            return None;
        }
        let dest = lut.coord_of(head.dest).expect("placed destination");
        Some(match topology.route_xy(self.coord, dest) {
            Some(d) => PortDir::from_direction(d).index(),
            None => PortDir::Local.index(),
        })
    }

    fn plan(&mut self, topology: Topology, lut: &RouteLut) -> RoutePlan {
        let mut plan = RoutePlan::default();
        let mut avail: u32 = (1 << PORTS) - 1;
        let mut want = [0u32; PORTS];
        for i in 0..PORTS {
            if let Some(out) = self.head_route(i, topology, lut) {
                want[out] |= 1 << i;
            }
        }
        // `o` indexes five parallel per-output arrays, not just `want`.
        #[allow(clippy::needless_range_loop)]
        for o in 0..PORTS {
            if self.credit_init[o] == 0 {
                continue;
            }
            if self.credit[o] == 0 || self.blocked[o] {
                plan.stalled[o] = match self.out_owner[o] {
                    Some(i) => !self.inputs[i].is_empty(),
                    None => (want[o] & avail) != 0,
                };
                continue;
            }
            let winner = match self.out_owner[o] {
                Some(i) => (avail & (1 << i) != 0 && !self.inputs[i].is_empty()).then_some(i),
                None => {
                    let b = want[o] & avail;
                    (b != 0).then(|| {
                        (0..PORTS)
                            .map(|k| (self.rr[o] + k) % PORTS)
                            .find(|&i| b & (1 << i) != 0)
                            .expect("a candidate exists")
                    })
                }
            };
            let Some(i) = winner else { continue };
            let kind = self.inputs[i].front().expect("winner non-empty").kind;
            avail &= !(1 << i);
            if kind.is_tail() {
                self.out_owner[o] = None;
                self.rr[o] = (i + 1) % PORTS;
            } else {
                self.out_owner[o] = Some(i);
            }
            self.credit[o] -= 1;
            plan.winner[o] = Some(i as u8);
            self.forwarded += 1;
        }
        plan
    }
}

#[derive(Debug)]
struct SlowLink {
    tile: usize,
    port: usize,
    until: Cycle,
    period: u64,
}

#[derive(Debug)]
struct CreditHold {
    tile: usize,
    port: usize,
    taken: usize,
    until: Cycle,
}

#[derive(Debug, Default)]
struct Faults {
    drop_armed: HashMap<usize, u32>,
    slow: Vec<SlowLink>,
    holds: Vec<CreditHold>,
    lost_messages: u64,
    leaked_credits: u64,
    lost_by_tenant: BTreeMap<TenantId, u64>,
}

/// The reference mesh.
#[derive(Debug)]
pub struct RefMesh {
    config: NetworkConfig,
    lut: RouteLut,
    neighbor: Vec<[Option<usize>; PORTS]>,
    routers: Vec<Router>,
    source: Vec<VecDeque<RefFlit>>,
    ejection: Vec<VecDeque<RefFlit>>,
    in_flight: HashMap<MessageId, Cycle>,
    injected_messages: u64,
    delivered_messages: u64,
    delivered_flits: u64,
    latency: Histogram,
    active_cycles: u64,
    tracer: Tracer,
    tracks: Vec<TrackId>,
    faults: Option<Faults>,
}

impl RefMesh {
    /// Builds the reference mesh.
    pub fn new(config: NetworkConfig, placement: &Placement) -> RefMesh {
        let topo = config.topology;
        let rc = config.router;
        let n = topo.nodes();
        RefMesh {
            lut: RouteLut::build(placement, topo),
            neighbor: topo
                .coords()
                .map(|c| {
                    PortDir::ALL.map(|p| match p.direction() {
                        Some(d) => topo.neighbor(c, d).map(|nc| topo.index(nc)),
                        None => Some(topo.index(c)),
                    })
                })
                .collect(),
            routers: topo
                .coords()
                .map(|c| Router::new(c, topo, rc.input_buffer_flits, rc.ejection_buffer_flits))
                .collect(),
            source: (0..n).map(|_| VecDeque::new()).collect(),
            ejection: (0..n).map(|_| VecDeque::new()).collect(),
            in_flight: HashMap::new(),
            injected_messages: 0,
            delivered_messages: 0,
            delivered_flits: 0,
            latency: Histogram::new(),
            active_cycles: 0,
            tracer: Tracer::disabled(),
            tracks: Vec::new(),
            faults: None,
            config,
        }
    }

    /// See `MeshNetwork::attach_tracer`.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
        self.tracks = self
            .config
            .topology
            .coords()
            .map(|c| self.tracer.track(&format!("noc.router{c}")))
            .collect();
    }

    fn tile_of(&self, engine: EngineId) -> usize {
        self.lut.tile_of(engine).expect("placed engine")
    }

    /// See `MeshNetwork::send`.
    pub fn send(&mut self, from: EngineId, to: EngineId, msg: Message, now: Cycle) {
        let tile = self.tile_of(from);
        self.in_flight.insert(msg.id, now);
        self.injected_messages += 1;
        let flits: Vec<Flit> = Flit::segment(&msg, to, self.config.width_bits).collect();
        let mut msg = Some(msg);
        for f in flits {
            self.source[tile].push_back(RefFlit {
                msg_id: f.msg_id,
                kind: f.kind,
                dest: f.dest,
                tenant: f.tenant,
                message: if f.kind.is_tail() {
                    msg.take().map(Box::new)
                } else {
                    None
                },
            });
        }
    }

    /// See `MeshNetwork::fault_drop_next_ejection`.
    pub fn fault_drop_next_ejection(&mut self, engine: EngineId) {
        let tile = self.tile_of(engine);
        *self
            .faults
            .get_or_insert_with(Faults::default)
            .drop_armed
            .entry(tile)
            .or_insert(0) += 1;
    }

    /// See `MeshNetwork::fault_link_slow`.
    pub fn fault_link_slow(&mut self, engine: EngineId, port: PortDir, until: Cycle, period: u64) {
        let tile = self.tile_of(engine);
        self.faults
            .get_or_insert_with(Faults::default)
            .slow
            .push(SlowLink {
                tile,
                port: port.index(),
                until,
                period,
            });
    }

    /// See `MeshNetwork::fault_hold_credits`.
    pub fn fault_hold_credits(
        &mut self,
        engine: EngineId,
        port: PortDir,
        n: usize,
        until: Cycle,
    ) -> usize {
        let tile = self.tile_of(engine);
        let p = port.index();
        let r = &mut self.routers[tile];
        let taken = if r.credit_init[p] == 0 {
            0
        } else {
            (r.credit[p] as usize).min(n)
        };
        r.credit[p] -= taken as u32;
        if taken > 0 {
            self.faults
                .get_or_insert_with(Faults::default)
                .holds
                .push(CreditHold {
                    tile,
                    port: p,
                    taken,
                    until,
                });
        }
        taken
    }

    /// See `MeshNetwork::lost_messages`.
    pub fn lost_messages(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.lost_messages)
    }

    /// See `MeshNetwork::leaked_credits`.
    pub fn leaked_credits(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.leaked_credits)
    }

    /// See `MeshNetwork::lost_of`.
    pub fn lost_of(&self, tenant: TenantId) -> u64 {
        self.faults
            .as_ref()
            .map_or(0, |f| f.lost_by_tenant.get(&tenant).copied().unwrap_or(0))
    }

    /// See `MeshNetwork::total_flit_hops`.
    pub fn total_flit_hops(&self) -> u64 {
        self.routers.iter().map(|r| r.forwarded).sum()
    }

    /// See `MeshNetwork::active_cycles`.
    pub fn active_cycles(&self) -> u64 {
        self.active_cycles
    }

    /// See `MeshNetwork::is_quiescent`.
    pub fn is_quiescent(&self) -> bool {
        self.source.iter().all(VecDeque::is_empty)
            && self.ejection.iter().all(VecDeque::is_empty)
            && self.routers.iter().all(Router::is_idle)
    }

    /// See `MeshNetwork::export_metrics`.
    pub fn export_metrics(&self, m: &mut MetricsRegistry, prefix: &str) {
        m.counter_set(
            &format!("{prefix}.injected_messages"),
            self.injected_messages,
        );
        m.counter_set(
            &format!("{prefix}.delivered_messages"),
            self.delivered_messages,
        );
        m.counter_set(&format!("{prefix}.delivered_flits"), self.delivered_flits);
        m.counter_set(&format!("{prefix}.flit_hops"), self.total_flit_hops());
        m.merge_histogram(&format!("{prefix}.latency"), &self.latency);
        if let Some(f) = &self.faults {
            m.counter_set(&format!("{prefix}.lost_messages"), f.lost_messages);
            m.counter_set(&format!("{prefix}.leaked_credits"), f.leaked_credits);
        }
    }

    fn drive_faults(&mut self, now: Cycle) {
        let Some(mut faults) = self.faults.take() else {
            return;
        };
        faults.slow.retain(|s| {
            if now >= s.until {
                self.routers[s.tile].blocked[s.port] = false;
                false
            } else {
                true
            }
        });
        for s in &faults.slow {
            self.routers[s.tile].blocked[s.port] = !now.0.is_multiple_of(s.period);
        }
        faults.holds.retain(|h| {
            if now >= h.until {
                let r = &mut self.routers[h.tile];
                assert!(r.credit[h.port] + h.taken as u32 <= r.credit_init[h.port]);
                r.credit[h.port] += h.taken as u32;
                false
            } else {
                true
            }
        });
        self.faults = Some(faults);
    }

    /// See `MeshNetwork::tick`.
    pub fn tick(&mut self, now: Cycle) {
        if self.faults.is_some() {
            self.drive_faults(now);
        }
        if !self.is_quiescent() {
            self.active_cycles += 1;
        }
        let topo = self.config.topology;
        let traced = self.tracer.enabled();
        for tile in 0..self.routers.len() {
            if !self.source[tile].is_empty()
                && self.routers[tile].inputs[PortDir::Local.index()].len() < self.routers[tile].cap
            {
                let flit = self.source[tile].pop_front().expect("non-empty");
                self.routers[tile].accept(PortDir::Local.index(), flit);
            }
        }
        let mut plans = Vec::new();
        for (tile, r) in self.routers.iter_mut().enumerate() {
            if !r.is_idle() {
                plans.push((tile, r.plan(topo, &self.lut)));
            }
        }
        for (tile, plan) in plans {
            if traced {
                for (p, &s) in plan.stalled.iter().enumerate() {
                    if s {
                        self.tracer.instant_arg(
                            self.tracks[tile],
                            "noc.credit_stall",
                            now,
                            "port",
                            p as u64,
                        );
                    }
                }
            }
            for (o, winner) in plan.winner.iter().enumerate() {
                let Some(i) = winner else { continue };
                let i = usize::from(*i);
                let flit = self.routers[tile].inputs[i].pop_front().expect("planned");
                if i != PortDir::Local.index() {
                    let up = self.neighbor[tile][i].expect("link");
                    self.routers[up].refill_credit(PortDir::ALL[i].opposite().index());
                }
                if traced {
                    self.tracer.instant_arg(
                        self.tracks[tile],
                        "noc.hop",
                        now,
                        "msg",
                        flit.msg_id.0,
                    );
                }
                if o == PortDir::Local.index() {
                    self.delivered_flits += 1;
                    self.ejection[tile].push_back(flit);
                } else {
                    let down = self.neighbor[tile][o].expect("link");
                    self.routers[down].accept(PortDir::ALL[o].opposite().index(), flit);
                }
            }
        }
    }

    /// See `MeshNetwork::poll_ejected`.
    pub fn poll_ejected(&mut self, engine: EngineId, now: Cycle) -> Option<Message> {
        let tile = self.tile_of(engine);
        let flit = self.ejection[tile].pop_front()?;
        if flit.kind.is_tail() {
            if let Some(faults) = self.faults.as_mut() {
                if let Some(armed) = faults.drop_armed.get_mut(&tile) {
                    if *armed > 0 {
                        *armed -= 1;
                        faults.lost_messages += 1;
                        faults.leaked_credits += 1;
                        *faults.lost_by_tenant.entry(flit.tenant).or_insert(0) += 1;
                        let msg = flit.message.expect("tail carries the message");
                        self.in_flight.remove(&msg.id);
                        if self.tracer.enabled() {
                            self.tracer.instant_arg(
                                self.tracks[tile],
                                "fault.drop",
                                now,
                                "msg",
                                msg.id.0,
                            );
                        }
                        return None;
                    }
                }
            }
        }
        self.routers[tile].refill_credit(PortDir::Local.index());
        if !flit.kind.is_tail() {
            return None;
        }
        let msg = *flit.message.expect("tail carries the message");
        if let Some(sent) = self.in_flight.remove(&msg.id) {
            let dur = now.since(sent);
            self.latency.record(dur.count());
            if self.tracer.enabled() {
                self.tracer
                    .complete_arg(self.tracks[tile], "noc.msg", sent, dur, "msg", msg.id.0);
            }
        }
        self.delivered_messages += 1;
        Some(msg)
    }
}
