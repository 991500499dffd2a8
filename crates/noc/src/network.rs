//! The assembled mesh network.
//!
//! [`MeshNetwork`] holds the state of every tile's wormhole router (the
//! model is described in [`crate::router`]) plus per-tile source
//! (injection) and ejection buffers, and exposes the interface engine
//! tiles use:
//!
//! * [`MeshNetwork::send`] — segment a message into flits and queue it
//!   at the source tile (the engine's TX interface);
//! * [`MeshNetwork::poll_ejected`] — drain one flit per cycle from the
//!   tile's ejection buffer, yielding a [`Message`] when its tail
//!   arrives (the engine's RX interface);
//! * [`MeshNetwork::tick`] — advance the whole network one cycle in
//!   two phases (decide every move from pre-tick state, then commit).
//!
//! The network is lossless end to end: the only place a message can
//! wait indefinitely is a source queue, which models the engine-side
//! buffering the paper assigns to engines that don't run at line rate
//! (§4.3).
//!
//! # Stepping by open wormholes
//!
//! A flit in the mesh is an 8-byte `FlitRef` handle: the slab slot of
//! its message, its destination tile and its [`FlitKind`]. The message
//! itself waits in the network's slab from `send` until its tail is
//! polled. Router state lives in flat per-(tile, port) records, and a
//! tick visits only the places where something can move:
//!
//! 1. **injection** — one flit per tile from the source queue into the
//!    Local input;
//! 2. **arbitration** — round robin at tiles whose bitmask shows a head
//!    flit at an input front, for outputs no wormhole holds (a head's
//!    XY output is computed once, when it reaches the front);
//! 3. **continuation** — one pass over the open wormholes: each moves
//!    its owner input's next flit if the output has a credit;
//! 4. **commit** — the move list is applied.
//!
//! Every decision reads pre-tick state, and no two moves touch the same
//! FIFO end (an input feeds at most one output, a FIFO receives at most
//! one flit per cycle) while credit returns commute, so the order of the
//! moves cannot change the simulated state. Traces are the only place
//! order shows: traced ticks sort the moves by (tile, output) and emit
//! each tile's `noc.credit_stall` instants before its `noc.hop`s. See
//! `docs/PERF.md` ("NoC stepping").

use std::collections::{BTreeMap, HashMap, VecDeque};

use packet::{EngineId, Flit, FlitKind, Message, TenantId};
use sim_core::stats::Histogram;
use sim_core::time::Cycle;
use trace::{MetricsRegistry, Tracer, TrackId};

use crate::router::{PortDir, RouterConfig};
use crate::topology::{Coord, Placement, RouteLut, Topology};

/// Ports per tile.
const PORTS: usize = PortDir::COUNT;
/// Index of the Local port.
const LOCAL: usize = PortDir::Local.index();
/// `OPPOSITE[o]`: the input port on which the neighbor behind output
/// `o` receives (see [`PortDir::opposite`]).
const OPPOSITE: [usize; PORTS] = [
    PortDir::North.opposite().index(),
    PortDir::South.opposite().index(),
    PortDir::East.opposite().index(),
    PortDir::West.opposite().index(),
    PortDir::Local.opposite().index(),
];
/// `Port::owner` of an output no wormhole holds.
const NO_OWNER: u8 = u8::MAX;
/// `Port::down` of an output with no link (mesh edge).
const NO_LINK: u32 = u32::MAX;

/// Network configuration.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Mesh shape.
    pub topology: Topology,
    /// Channel width in bits (Table 3 studies 64 and 128).
    pub width_bits: u64,
    /// Per-router buffer sizes.
    pub router: RouterConfig,
}

impl NetworkConfig {
    /// The paper's small reference configuration: 6×6 mesh, 64-bit
    /// channels.
    #[must_use]
    pub fn panic_6x6_64b() -> NetworkConfig {
        NetworkConfig {
            topology: Topology::mesh6x6(),
            width_bits: 64,
            router: RouterConfig::default(),
        }
    }

    /// The larger Table 3 configuration: 8×8 mesh, 128-bit channels.
    #[must_use]
    pub fn panic_8x8_128b() -> NetworkConfig {
        NetworkConfig {
            topology: Topology::mesh8x8(),
            width_bits: 128,
            router: RouterConfig::default(),
        }
    }
}

/// Aggregate traffic statistics.
#[derive(Debug)]
pub struct NetworkStats {
    /// Messages accepted by `send`.
    pub injected_messages: u64,
    /// Messages fully delivered (tail flit handed to the tile).
    pub delivered_messages: u64,
    /// Flits delivered to ejection buffers.
    pub delivered_flits: u64,
    /// Network latency (send → tail ejected), in cycles.
    pub latency: Histogram,
}

impl NetworkStats {
    fn new() -> NetworkStats {
        NetworkStats {
            injected_messages: 0,
            delivered_messages: 0,
            delivered_flits: 0,
            latency: Histogram::new(),
        }
    }
}

/// A flit in the mesh: an 8-byte handle naming its message's slab slot,
/// its destination tile and its position in the message.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlitRef {
    /// Slab slot of the message this flit belongs to.
    pub(crate) slot: u32,
    /// Destination tile, resolved once at send.
    pub(crate) dest: Coord,
    /// Head/body/tail position.
    pub(crate) kind: FlitKind,
}

const _: () = assert!(std::mem::size_of::<FlitRef>() == 8);

impl FlitRef {
    /// Filler for FIFO slots that hold no flit.
    const EMPTY: FlitRef = FlitRef {
        slot: u32::MAX,
        dest: Coord::new(0, 0),
        kind: FlitKind::Body,
    };
}

/// Router state of one (tile, port) pair: the input FIFO that receives
/// on the port and the output that sends through it.
#[derive(Debug, Clone, Copy)]
struct Port {
    /// Input FIFO ring head, relative to the port's slice of `fifo`.
    head: u32,
    /// Input FIFO occupancy.
    len: u32,
    /// Output the head flit at the input front routes to; meaningful
    /// while the input's bit is set in `head_inputs`.
    route: u8,
    /// Input whose wormhole holds this output, or [`NO_OWNER`].
    owner: u8,
    /// Round-robin pointer of this output.
    rr: u8,
    /// Fault injection: output masked off this cycle (link slowdown).
    /// A blocked output behaves exactly like one with no credits.
    blocked: bool,
    /// Credits toward the downstream buffer.
    credit: u32,
    /// Initial (maximum) credits; `0` where no link exists — a real
    /// link always has a non-zero buffer (lint PV102).
    credit_init: u32,
    /// Downstream tile ([`NO_LINK`] at a mesh edge, own tile for Local).
    down: u32,
}

/// A message parked in the network from `send` until its tail is
/// polled.
#[derive(Debug)]
struct Parked {
    msg: Message,
    /// Send cycle, for latency accounting.
    sent: Cycle,
}

/// An active link-slowdown fault: output `port` at `tile` passes a
/// flit only on cycles where `cycle % period == 0`, until `until`.
#[derive(Debug)]
struct SlowLink {
    tile: usize,
    port: PortDir,
    until: Cycle,
    period: u64,
}

/// An active credit-hold fault: `taken` credits confiscated from
/// (`tile`, `port`), returned at `until`.
#[derive(Debug)]
struct CreditHold {
    tile: usize,
    port: PortDir,
    taken: usize,
    until: Cycle,
}

/// Fault-injection state, allocated only when a fault API is first
/// used — the fault-free path pays one `Option` check per tick.
#[derive(Debug, Default)]
struct NetFaults {
    /// Per-tile count of armed ejection drops (each destroys the next
    /// fully reassembled message at that tile and leaks its Local
    /// credit).
    drop_armed: HashMap<usize, u32>,
    /// Active link slowdowns.
    slow: Vec<SlowLink>,
    /// Active credit holds.
    holds: Vec<CreditHold>,
    /// Messages destroyed by ejection drops.
    lost_messages: u64,
    /// Local credits leaked by ejection drops (never returned).
    leaked_credits: u64,
    /// Losses attributed per tenant, for the tenancy plane's
    /// conservation identity. Cold path: only touched when a message
    /// is actually destroyed.
    lost_by_tenant: BTreeMap<TenantId, u64>,
}

/// The mesh network of routers.
#[derive(Debug)]
pub struct MeshNetwork {
    config: NetworkConfig,
    placement: Placement,
    /// Dense engine→tile table snapshotted from `placement`.
    lut: RouteLut,
    /// Coordinate of each tile, row-major.
    coords: Vec<Coord>,
    /// Router state, `ports[tile * PORTS + port]`.
    ports: Vec<Port>,
    /// Input FIFO storage: the FIFO of (tile, port) `tp` is a ring over
    /// `fifo[tp * cap .. (tp + 1) * cap]`.
    fifo: Vec<FlitRef>,
    /// Capacity of each input FIFO, in flits.
    cap: u32,
    /// Per tile, the bitmask of inputs whose front flit is a head.
    head_inputs: Vec<u8>,
    /// Bitmask of tiles with a non-zero `head_inputs` (one u64 word per
    /// 64 tiles): arbitration visits only these.
    head_tiles: Vec<u64>,
    /// Open wormholes: `tile * PORTS + output` of every owned output.
    wormholes: Vec<u32>,
    /// This tick's moves, `(tile * PORTS + output) << 3 | input`.
    moves: Vec<u32>,
    /// This tick's credit stalls, `tile * PORTS + output` (traced ticks
    /// only).
    stalls: Vec<u32>,
    /// Per-tile source (injection) queues. Unbounded: they model the
    /// sending engine's own buffering; occupancy is observable so
    /// experiments can detect source-queue growth (= saturation).
    source: Vec<VecDeque<FlitRef>>,
    /// Per-tile ejection buffers, bounded by Local credits.
    ejection: Vec<VecDeque<FlitRef>>,
    /// In-flight messages by slot; `None` marks a free slot.
    slab: Vec<Option<Parked>>,
    /// Free slab slots.
    free_slots: Vec<u32>,
    stats: NetworkStats,
    /// Trace handle (disabled by default; see [`MeshNetwork::attach_tracer`]).
    tracer: Tracer,
    /// Per-tile trace tracks (`noc.router(x,y)`).
    tracks: Vec<TrackId>,
    /// Fault-injection state; `None` (no cost, no metrics) until a
    /// `fault_*` method is called.
    faults: Option<Box<NetFaults>>,
    /// Bitmask of tiles whose source queue is non-empty (one u64 word
    /// per 64 tiles), so injection visits only tiles with traffic.
    source_pending: Vec<u64>,
    /// Bitmask of tiles whose ejection buffer is non-empty, same
    /// layout as `source_pending`, so the NIC's ejection pass visits
    /// only tiles with a flit waiting.
    ejection_pending: Vec<u64>,
    /// Flits forwarded through any output (flit-hops).
    flit_hops: u64,
    /// Flits currently anywhere in the network (sources, router
    /// buffers, ejection buffers) — O(1) quiescence.
    resident_flits: u64,
    /// Ticks in which the network held at least one flit (`perf.layer.noc`).
    active_cycles: u64,
}

impl MeshNetwork {
    /// Builds the network. `placement` must place every engine that
    /// will ever be addressed; tiles without engines simply route
    /// through.
    ///
    /// # Panics
    /// Panics if `config.router.input_buffer_flits` is zero — a
    /// zero-capacity input FIFO can never make progress (lint PV102).
    #[must_use]
    pub fn new(config: NetworkConfig, placement: Placement) -> MeshNetwork {
        let rc = config.router;
        assert!(rc.input_buffer_flits > 0, "zero-capacity input FIFO");
        let topo = config.topology;
        let n = topo.nodes();
        let coords: Vec<Coord> = topo.coords().collect();
        let ports = coords
            .iter()
            .enumerate()
            .flat_map(|(tile, &c)| {
                PortDir::ALL.map(|p| {
                    let (down, credit_init) = match p.direction() {
                        Some(d) => topo.neighbor(c, d).map_or((NO_LINK, 0), |nc| {
                            (topo.index(nc) as u32, rc.input_buffer_flits as u32)
                        }),
                        None => (tile as u32, rc.ejection_buffer_flits as u32),
                    };
                    Port {
                        head: 0,
                        len: 0,
                        route: 0,
                        owner: NO_OWNER,
                        rr: 0,
                        blocked: false,
                        credit: credit_init,
                        credit_init,
                        down,
                    }
                })
            })
            .collect();
        let lut = RouteLut::build(&placement, topo);
        MeshNetwork {
            config,
            placement,
            lut,
            coords,
            ports,
            fifo: vec![FlitRef::EMPTY; n * PORTS * rc.input_buffer_flits],
            cap: rc.input_buffer_flits as u32,
            head_inputs: vec![0; n],
            head_tiles: vec![0; n.div_ceil(64)],
            wormholes: Vec::with_capacity(n * PORTS),
            moves: Vec::with_capacity(n * PORTS),
            stalls: Vec::new(),
            source: (0..n).map(|_| VecDeque::new()).collect(),
            // Ejection occupancy is bounded by the Local credit pool,
            // so the buffers are sized once and never grow.
            ejection: (0..n)
                .map(|_| VecDeque::with_capacity(rc.ejection_buffer_flits))
                .collect(),
            slab: Vec::new(),
            free_slots: Vec::new(),
            stats: NetworkStats::new(),
            tracer: Tracer::disabled(),
            tracks: Vec::new(),
            faults: None,
            source_pending: vec![0; n.div_ceil(64)],
            ejection_pending: vec![0; n.div_ceil(64)],
            flit_hops: 0,
            resident_flits: 0,
            active_cycles: 0,
        }
    }

    /// Attaches a tracer: every tile gets a `noc.router(x,y)` track
    /// carrying `noc.hop` instants (one per flit forwarded),
    /// `noc.credit_stall` instants (an output wanted to send but the
    /// downstream buffer was full), and `noc.msg` spans (send → tail
    /// ejected, on the destination tile). See `docs/TRACING.md`.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
        self.tracks = self
            .coords
            .iter()
            .map(|c| self.tracer.track(&format!("noc.router{c}")))
            .collect();
    }

    /// Exports traffic statistics into `m` under `prefix` (usually
    /// `"noc"`): counters `<prefix>.injected_messages`,
    /// `<prefix>.delivered_messages`, `<prefix>.delivered_flits`,
    /// `<prefix>.flit_hops`, and the `<prefix>.latency` histogram
    /// (send → tail ejected, cycles).
    pub fn export_metrics(&self, m: &mut MetricsRegistry, prefix: &str) {
        m.counter_set(
            &format!("{prefix}.injected_messages"),
            self.stats.injected_messages,
        );
        m.counter_set(
            &format!("{prefix}.delivered_messages"),
            self.stats.delivered_messages,
        );
        m.counter_set(
            &format!("{prefix}.delivered_flits"),
            self.stats.delivered_flits,
        );
        m.counter_set(&format!("{prefix}.flit_hops"), self.total_flit_hops());
        m.merge_histogram(&format!("{prefix}.latency"), &self.stats.latency);
        // Fault counters appear only when the fault plane was engaged,
        // so fault-free metrics output stays byte-identical.
        if let Some(faults) = &self.faults {
            m.counter_set(&format!("{prefix}.lost_messages"), faults.lost_messages);
            m.counter_set(&format!("{prefix}.leaked_credits"), faults.leaked_credits);
        }
    }

    /// The network's configuration.
    #[must_use]
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The engine placement.
    #[must_use]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Traffic statistics so far.
    #[must_use]
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Lazily allocates the fault state.
    fn faults_mut(&mut self) -> &mut NetFaults {
        self.faults.get_or_insert_with(Box::default)
    }

    /// Fault injection: arms one ejection drop at `engine`'s tile. The
    /// next *fully reassembled* message ejected there is destroyed and
    /// its Local credit leaked (see [`MeshNetwork::poll_ejected`]).
    /// Drops act only at the ejection boundary so wormhole invariants
    /// (no partial message abandoned mid-mesh) are preserved; each
    /// drop permanently shrinks the tile's ejection-credit pool by
    /// one, so callers must arm fewer drops per tile than
    /// `RouterConfig::ejection_buffer_flits`.
    pub fn fault_drop_next_ejection(&mut self, engine: EngineId) {
        let tile = self.tile_of(engine);
        *self.faults_mut().drop_armed.entry(tile).or_insert(0) += 1;
    }

    /// Fault injection: from now until `until`, output `port` at
    /// `engine`'s tile only moves a flit on cycles where
    /// `cycle % period == 0` — a link at `1/period` of nominal
    /// bandwidth. Credits are conserved; this is pure slowdown.
    ///
    /// # Panics
    /// Panics if `period < 2` (that would be a healthy link).
    pub fn fault_link_slow(&mut self, engine: EngineId, port: PortDir, until: Cycle, period: u64) {
        assert!(period >= 2, "slow-link period must be >= 2");
        let tile = self.tile_of(engine);
        self.faults_mut().slow.push(SlowLink {
            tile,
            port,
            until,
            period,
        });
    }

    /// Fault injection: confiscates up to `n` credits from
    /// (`engine`, `port`) immediately, returning them at `until`.
    /// Returns how many credits were actually taken (0 if the port has
    /// no link or no credits are free right now).
    pub fn fault_hold_credits(
        &mut self,
        engine: EngineId,
        port: PortDir,
        n: usize,
        until: Cycle,
    ) -> usize {
        let tile = self.tile_of(engine);
        let p = &mut self.ports[tile * PORTS + port.index()];
        let taken = if p.credit_init == 0 {
            0
        } else {
            (p.credit as usize).min(n)
        };
        p.credit -= taken as u32;
        if taken > 0 {
            self.faults_mut().holds.push(CreditHold {
                tile,
                port,
                taken,
                until,
            });
        }
        taken
    }

    /// Messages destroyed by injected ejection drops (0 when no fault
    /// API has been used).
    #[must_use]
    pub fn lost_messages(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.lost_messages)
    }

    /// Local credits leaked by injected ejection drops.
    #[must_use]
    pub fn leaked_credits(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.leaked_credits)
    }

    /// Messages destroyed by injected ejection drops, attributed to
    /// `tenant` via the message's tenant tag (0 when no fault API has
    /// been used or the tenant never lost a message).
    #[must_use]
    pub fn lost_of(&self, tenant: TenantId) -> u64 {
        self.faults
            .as_ref()
            .map_or(0, |f| f.lost_by_tenant.get(&tenant).copied().unwrap_or(0))
    }

    /// Applies time-varying fault state for this cycle: expires and
    /// applies link slowdowns, returns credits whose hold elapsed.
    /// Called at the top of [`MeshNetwork::tick`] when faults exist.
    fn drive_faults(&mut self, now: Cycle) {
        let Some(mut faults) = self.faults.take() else {
            return;
        };
        // Expired slowdowns unmask their port; active ones mask it on
        // off-period cycles.
        faults.slow.retain(|s| {
            if now >= s.until {
                self.ports[s.tile * PORTS + s.port.index()].blocked = false;
                false
            } else {
                true
            }
        });
        for s in &faults.slow {
            self.ports[s.tile * PORTS + s.port.index()].blocked = !now.0.is_multiple_of(s.period);
        }
        // Elapsed credit holds hand their credits back.
        faults.holds.retain(|h| {
            if now >= h.until {
                let p = &mut self.ports[h.tile * PORTS + h.port.index()];
                assert!(p.credit_init > 0, "credit return on a port with no link");
                assert!(
                    p.credit + h.taken as u32 <= p.credit_init,
                    "credit overflow: refill beyond initial {}",
                    p.credit_init
                );
                p.credit += h.taken as u32;
                false
            } else {
                true
            }
        });
        self.faults = Some(faults);
    }

    #[inline]
    fn tile_of(&self, engine: EngineId) -> usize {
        self.lut
            .tile_of(engine)
            .unwrap_or_else(|| panic!("engine {engine} not placed"))
    }

    /// Queues `msg` for transmission from `from` toward `to`. Segments
    /// into flits at the configured channel width.
    ///
    /// # Panics
    /// Panics if either engine is not placed.
    pub fn send(&mut self, from: EngineId, to: EngineId, msg: Message, now: Cycle) {
        let tile = self.tile_of(from);
        // Resolve the destination at send time, where an unplaced
        // engine is attributable to the sender.
        let dest = self.coords[self.tile_of(to)];
        self.stats.injected_messages += 1;
        let flits = Flit::segment(&msg, to, self.config.width_bits);
        self.resident_flits += flits.len() as u64;
        let slot = self.park(msg, now);
        self.source[tile].extend(flits.map(|f| FlitRef {
            slot,
            dest,
            kind: f.kind,
        }));
        self.source_pending[tile / 64] |= 1 << (tile % 64);
    }

    /// Stores `msg` in a free slab slot.
    fn park(&mut self, msg: Message, sent: Cycle) -> u32 {
        let parked = Some(Parked { msg, sent });
        match self.free_slots.pop() {
            Some(slot) => {
                self.slab[slot as usize] = parked;
                slot
            }
            None => {
                self.slab.push(parked);
                (self.slab.len() - 1) as u32
            }
        }
    }

    /// Takes the message out of `slot` and frees the slot.
    fn unpark(&mut self, slot: u32) -> Parked {
        let parked = self.slab[slot as usize]
            .take()
            .expect("flit names a parked message");
        self.free_slots.push(slot);
        parked
    }

    /// Flits waiting in `engine`'s source queue (growth here means the
    /// network is saturated for this sender).
    #[must_use]
    pub fn source_depth(&self, engine: EngineId) -> usize {
        self.source[self.tile_of(engine)].len()
    }

    /// Flits waiting in `engine`'s ejection buffer.
    #[must_use]
    pub fn ejection_depth(&self, engine: EngineId) -> usize {
        self.ejection[self.tile_of(engine)].len()
    }

    /// One word of the non-empty-ejection-buffer bitmask (bit `t % 64`
    /// of word `t / 64` is set while tile `t` holds an ejected flit).
    /// The NIC's ejection pass iterates set bits instead of polling
    /// every tile every cycle.
    #[inline]
    #[must_use]
    pub fn ejection_pending_word(&self, word: usize) -> u64 {
        self.ejection_pending[word]
    }

    /// Number of words in the ejection-pending bitmask.
    #[inline]
    #[must_use]
    pub fn ejection_pending_words(&self) -> usize {
        self.ejection_pending.len()
    }

    /// Consumes one armed ejection drop at `tile`, if any.
    fn take_armed_drop(&mut self, tile: usize) -> bool {
        let Some(armed) = self
            .faults
            .as_deref_mut()
            .and_then(|f| f.drop_armed.get_mut(&tile))
        else {
            return false;
        };
        if *armed == 0 {
            return false;
        }
        *armed -= 1;
        true
    }

    /// Drains one flit from `engine`'s ejection buffer (the tile's
    /// one-flit-per-cycle RX interface). Returns the assembled message
    /// when the drained flit is a tail.
    pub fn poll_ejected(&mut self, engine: EngineId, now: Cycle) -> Option<Message> {
        let tile = self.tile_of(engine);
        let flit = self.ejection[tile].pop_front()?;
        self.resident_flits -= 1;
        if self.ejection[tile].is_empty() {
            self.ejection_pending[tile / 64] &= !(1 << (tile % 64));
        }
        // Injected ejection drop: destroy the message at the tail (the
        // earlier flits of the message were drained and credited
        // normally) and leak the tail's Local credit — the canonical
        // lost-packet-plus-leaked-credit failure.
        if flit.kind.is_tail() && self.take_armed_drop(tile) {
            let msg = self.unpark(flit.slot).msg;
            let faults = self.faults.as_deref_mut().expect("drop was armed");
            faults.lost_messages += 1;
            faults.leaked_credits += 1;
            *faults.lost_by_tenant.entry(msg.tenant).or_insert(0) += 1;
            if self.tracer.enabled() {
                self.tracer
                    .instant_arg(self.tracks[tile], "fault.drop", now, "msg", msg.id.0);
            }
            return None;
        }
        self.refill_credit(tile, LOCAL);
        if !flit.kind.is_tail() {
            return None;
        }
        let Parked { msg, sent } = self.unpark(flit.slot);
        let dur = now.since(sent);
        self.stats.latency.record(dur.count());
        if self.tracer.enabled() {
            self.tracer
                .complete_arg(self.tracks[tile], "noc.msg", sent, dur, "msg", msg.id.0);
        }
        self.stats.delivered_messages += 1;
        Some(msg)
    }

    /// Drains everything already in `engine`'s ejection buffer,
    /// ignoring the per-cycle RX limit. Test/measurement helper — NIC
    /// models must use [`Self::poll_ejected`].
    pub fn drain_ejected(&mut self, engine: EngineId, now: Cycle) -> Vec<Message> {
        let mut out = Vec::new();
        while self.ejection_depth(engine) > 0 {
            if let Some(m) = self.poll_ejected(engine, now) {
                out.push(m);
            }
        }
        out
    }

    /// Returns one credit to output `port` of `tile` (its downstream
    /// buffer drained a flit).
    ///
    /// # Panics
    /// Panics if the port has no link, or if the refill would exceed
    /// the downstream buffer's capacity — a phantom credit means the
    /// flow control protocol double-counted a drain.
    #[inline]
    fn refill_credit(&mut self, tile: usize, port: usize) {
        let p = &mut self.ports[tile * PORTS + port];
        assert!(p.credit_init > 0, "credit refill on a port with no link");
        assert!(
            p.credit < p.credit_init,
            "credit overflow: refill beyond initial {}",
            p.credit_init
        );
        p.credit += 1;
    }

    /// Records that the front of input (`tile`, `port`) is a head flit
    /// bound for `dest`: computes its XY output once and flags the
    /// input for arbitration.
    #[inline]
    fn mark_head_front(&mut self, tile: usize, port: usize, dest: Coord) {
        let route = match self.config.topology.route_xy(self.coords[tile], dest) {
            Some(d) => PortDir::from_direction(d).index(),
            None => LOCAL,
        };
        self.ports[tile * PORTS + port].route = route as u8;
        self.head_inputs[tile] |= 1 << port;
        self.head_tiles[tile / 64] |= 1 << (tile % 64);
    }

    /// Clears the head-front flag of input (`tile`, `port`).
    #[inline]
    fn clear_head_front(&mut self, tile: usize, port: usize) {
        self.head_inputs[tile] &= !(1 << port);
        if self.head_inputs[tile] == 0 {
            self.head_tiles[tile / 64] &= !(1 << (tile % 64));
        }
    }

    /// Delivers `flit` into the input FIFO of (`tile`, `port`).
    ///
    /// # Panics
    /// Panics if the FIFO is full — with credit flow control a delivery
    /// into a full buffer is a protocol violation, not backpressure.
    #[inline]
    pub(crate) fn push_input(&mut self, tile: usize, port: usize, flit: FlitRef) {
        let tp = tile * PORTS + port;
        let cap = self.cap;
        let p = &mut self.ports[tp];
        if p.len >= cap {
            panic!(
                "router {}: input overrun on {:?} (credit protocol violated)",
                self.coords[tile],
                PortDir::ALL[port]
            );
        }
        let mut off = p.head + p.len;
        if off >= cap {
            off -= cap;
        }
        p.len += 1;
        let front = p.len == 1;
        self.fifo[tp * cap as usize + off as usize] = flit;
        if front && flit.kind.is_head() {
            self.mark_head_front(tile, port, flit.dest);
        }
    }

    /// Pops the front flit of input (`tile`, `port`), which must be
    /// non-empty, and refreshes the input's head-front flag.
    #[inline]
    fn pop_input(&mut self, tile: usize, port: usize) -> FlitRef {
        let tp = tile * PORTS + port;
        let base = tp * self.cap as usize;
        let p = &mut self.ports[tp];
        debug_assert!(p.len > 0, "pop from an empty input FIFO");
        let flit = self.fifo[base + p.head as usize];
        // Conditional wrap instead of `%`: `cap` is a runtime value, so
        // a modulo here would be a hardware divide on the hottest path.
        p.head = if p.head + 1 == self.cap {
            0
        } else {
            p.head + 1
        };
        p.len -= 1;
        let next = (p.len > 0).then(|| self.fifo[base + p.head as usize]);
        match next {
            Some(next) if next.kind.is_head() => self.mark_head_front(tile, port, next.dest),
            _ if flit.kind.is_head() => self.clear_head_front(tile, port),
            _ => {}
        }
        flit
    }

    /// Kind of the front flit of input `tp`.
    #[inline]
    fn front_kind(&self, tp: usize) -> FlitKind {
        self.fifo[tp * self.cap as usize + self.ports[tp].head as usize].kind
    }

    /// Advances the network one cycle.
    pub fn tick(&mut self, now: Cycle) {
        if self.faults.is_some() {
            self.drive_faults(now);
        }
        if self.resident_flits == 0 {
            return;
        }
        self.active_cycles += 1;
        let traced = self.tracer.enabled();

        // Injection: each tile's Local input accepts at most one flit
        // per cycle from the source queue (the local channel is one
        // flit wide, like every other channel). The pending bitmask
        // visits only tiles that actually hold queued traffic.
        for word in 0..self.source_pending.len() {
            let mut bits = self.source_pending[word];
            while bits != 0 {
                let tile = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.ports[tile * PORTS + LOCAL].len < self.cap {
                    let flit = self.source[tile].pop_front().expect("non-empty");
                    self.push_input(tile, LOCAL, flit);
                    if self.source[tile].is_empty() {
                        self.source_pending[word] &= !(1 << (tile % 64));
                    }
                }
            }
        }

        // Decide every move from pre-tick state. Arbitration only sees
        // outputs that no wormhole held at the start of the cycle;
        // wormholes it opens join the list after the ones continuation
        // walks.
        let open = self.wormholes.len();
        self.arbitrate(traced);
        self.continue_wormholes(open, traced);
        self.commit(now, traced);
    }

    /// Step 2: round-robin switch allocation at every tile with a head
    /// flit at an input front, for outputs no wormhole holds.
    fn arbitrate(&mut self, traced: bool) {
        for word in 0..self.head_tiles.len() {
            let mut bits = self.head_tiles[word];
            while bits != 0 {
                let tile = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let base = tile * PORTS;
                // want[o]: inputs whose head flit routes to output o.
                let mut want = [0u32; PORTS];
                let mut heads = self.head_inputs[tile];
                while heads != 0 {
                    let i = heads.trailing_zeros() as usize;
                    heads &= heads - 1;
                    want[usize::from(self.ports[base + i].route)] |= 1 << i;
                }
                for (o, &b) in want.iter().enumerate() {
                    let tp = base + o;
                    let out = self.ports[tp];
                    // A held output carries its wormhole; heads wait
                    // for the tail. No link: the output idles.
                    if b == 0 || out.owner != NO_OWNER || out.credit_init == 0 {
                        continue;
                    }
                    if out.credit == 0 || out.blocked {
                        // Out of credits (or fault-masked) with traffic
                        // waiting: a credit stall, not an idle port.
                        if traced {
                            self.stalls.push(tp as u32);
                        }
                        continue;
                    }
                    // First candidate at or after rr[o]: a 5-bit rotate
                    // instead of a scan.
                    let r = u32::from(out.rr);
                    let rot = ((b >> r) | (b << (PORTS as u32 - r))) & ((1 << PORTS) - 1);
                    let i = (usize::from(out.rr) + rot.trailing_zeros() as usize) % PORTS;
                    let kind = self.front_kind(base + i);
                    let out = &mut self.ports[tp];
                    if kind.is_tail() {
                        out.rr = ((i + 1) % PORTS) as u8;
                    } else {
                        out.owner = i as u8;
                        self.wormholes.push(tp as u32);
                    }
                    out.credit -= 1;
                    self.moves.push((tp as u32) << 3 | i as u32);
                    self.flit_hops += 1;
                }
            }
        }
    }

    /// Step 3: each of the first `open` wormholes (those open at the
    /// start of the cycle) moves its owner input's next flit if the
    /// output has a credit; a tail closes the wormhole.
    fn continue_wormholes(&mut self, open: usize, traced: bool) {
        let mut kept = 0;
        for k in 0..open {
            let tp = self.wormholes[k] as usize;
            let i = usize::from(self.ports[tp].owner);
            let itp = tp - tp % PORTS + i;
            let mut closed = false;
            if self.ports[itp].len > 0 {
                let kind = self.front_kind(itp);
                let out = &mut self.ports[tp];
                if out.credit == 0 || out.blocked {
                    if traced {
                        self.stalls.push(tp as u32);
                    }
                } else {
                    out.credit -= 1;
                    if kind.is_tail() {
                        out.owner = NO_OWNER;
                        out.rr = ((i + 1) % PORTS) as u8;
                        closed = true;
                    }
                    self.moves.push((tp as u32) << 3 | i as u32);
                    self.flit_hops += 1;
                }
            }
            if !closed {
                self.wormholes[kept] = tp as u32;
                kept += 1;
            }
        }
        let len = self.wormholes.len();
        self.wormholes.copy_within(open..len, kept);
        self.wormholes.truncate(kept + len - open);
    }

    /// Step 4: applies the move list — each flit goes straight from its
    /// input FIFO to the downstream buffer, and one credit returns to
    /// the upstream router it vacated.
    fn commit(&mut self, now: Cycle, traced: bool) {
        let mut moves = std::mem::take(&mut self.moves);
        let mut stalls = std::mem::take(&mut self.stalls);
        if traced {
            moves.sort_unstable();
            stalls.sort_unstable();
        }
        let mut next_stall = 0;
        for &mv in &moves {
            let tp = (mv >> 3) as usize;
            let i = (mv & 7) as usize;
            let (tile, o) = (tp / PORTS, tp % PORTS);
            if traced {
                next_stall = self.emit_stalls(&stalls, next_stall, tile, now);
            }
            let flit = self.pop_input(tile, i);
            // Credit return to the upstream router the flit vacated
            // (Local input drains come from the source queue, which is
            // not credited).
            if i != LOCAL {
                let up = self.ports[tile * PORTS + i].down;
                debug_assert_ne!(up, NO_LINK, "credit from a port with no link");
                self.refill_credit(up as usize, OPPOSITE[i]);
            }
            if traced {
                let id = self.slab[flit.slot as usize]
                    .as_ref()
                    .map_or(u64::MAX, |p| p.msg.id.0);
                self.tracer
                    .instant_arg(self.tracks[tile], "noc.hop", now, "msg", id);
            }
            if o == LOCAL {
                self.stats.delivered_flits += 1;
                self.ejection[tile].push_back(flit);
                self.ejection_pending[tile / 64] |= 1 << (tile % 64);
            } else {
                let down = self.ports[tp].down;
                debug_assert_ne!(down, NO_LINK, "move toward a missing link");
                self.push_input(down as usize, OPPOSITE[o], flit);
            }
        }
        if traced {
            self.emit_stalls(&stalls, next_stall, usize::MAX, now);
        }
        moves.clear();
        stalls.clear();
        self.moves = moves;
        self.stalls = stalls;
    }

    /// Emits the `noc.credit_stall` instants of `stalls[next..]` at
    /// tiles up to `upto_tile`; returns the index of the first one not
    /// emitted.
    fn emit_stalls(&self, stalls: &[u32], mut next: usize, upto_tile: usize, now: Cycle) -> usize {
        while let Some(&tp) = stalls.get(next) {
            let (tile, port) = (tp as usize / PORTS, tp as usize % PORTS);
            if tile > upto_tile {
                break;
            }
            self.tracer.instant_arg(
                self.tracks[tile],
                "noc.credit_stall",
                now,
                "port",
                port as u64,
            );
            next += 1;
        }
        next
    }

    /// Fast-forward hint (see [`sim_core::Clocked::next_activity`] for
    /// the contract): `None` while the network is quiescent — with no
    /// flit anywhere, ticking is a pure no-op until the next
    /// [`MeshNetwork::send`] — otherwise `Some(now + 1)`, because an
    /// active network moves flits every cycle.
    ///
    /// Pending fault expirations (slow-link unmask, credit-hold return)
    /// do not pin the hint: they only matter once a flit wants the
    /// affected link, and [`MeshNetwork::tick`] re-derives their state
    /// from `now` on the next active cycle.
    #[must_use]
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if self.is_quiescent() {
            None
        } else {
            Some(now.next())
        }
    }

    /// True when no flit is anywhere in the network (sources, router
    /// buffers, or ejection buffers).
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        debug_assert_eq!(
            self.resident_flits,
            self.source.iter().map(|q| q.len() as u64).sum::<u64>()
                + self.ports.iter().map(|p| u64::from(p.len)).sum::<u64>()
                + self.ejection.iter().map(|q| q.len() as u64).sum::<u64>(),
            "resident-flit counter out of sync with buffer occupancy"
        );
        self.resident_flits == 0
    }

    /// Cycles on which [`MeshNetwork::tick`] found at least one flit
    /// resident anywhere in the network (sources, router buffers, or
    /// ejection buffers) — the NoC's share of simulated activity.
    #[must_use]
    pub fn active_cycles(&self) -> u64 {
        self.active_cycles
    }

    /// Total flits forwarded by all routers (≈ flit-hops).
    #[must_use]
    pub fn total_flit_hops(&self) -> u64 {
        self.flit_hops
    }

    /// Coordinate of `engine`'s tile.
    #[must_use]
    pub fn coord_of(&self, engine: EngineId) -> Coord {
        self.placement.coord_of(engine).expect("engine placed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use packet::{MessageBuilder, MessageId, MessageKind};
    use sim_core::rng::SimRng;

    fn msg(id: u64, payload: usize) -> Message {
        Message::builder(MessageId(id), MessageKind::EthernetFrame)
            .payload(Bytes::from(vec![0xAB; payload]))
            .build()
    }

    #[allow(dead_code)]
    fn builder_sanity(b: MessageBuilder) -> Message {
        b.build()
    }

    fn net_3x3() -> MeshNetwork {
        let topo = Topology::mesh(3, 3);
        let cfg = NetworkConfig {
            topology: topo,
            width_bits: 64,
            router: RouterConfig::default(),
        };
        MeshNetwork::new(cfg, Placement::row_major(topo))
    }

    fn run(net: &mut MeshNetwork, from: Cycle, cycles: u64) -> Cycle {
        let mut now = from;
        for _ in 0..cycles {
            net.tick(now);
            now = now.next();
        }
        now
    }

    #[test]
    fn single_message_crosses_the_mesh() {
        let mut net = net_3x3();
        // Engine 0 at (0,0) sends 64B to engine 8 at (2,2): 4 hops.
        net.send(EngineId(0), EngineId(8), msg(1, 64), Cycle(0));
        let mut now = Cycle(0);
        let mut got = None;
        for _ in 0..200 {
            net.tick(now);
            now = now.next();
            if let Some(m) = net.poll_ejected(EngineId(8), now) {
                got = Some(m);
                break;
            }
        }
        let m = got.expect("message delivered");
        assert_eq!(m.id, MessageId(1));
        assert_eq!(m.payload.len(), 64);
        assert_eq!(net.stats().delivered_messages, 1);
        assert_eq!(net.stats().injected_messages, 1);
        // 9 flits, 4 hops + ejection: serialization dominates. The tail
        // leaves the source after 9 injection cycles, then needs ~5 more
        // to arrive: latency must be at least flits + distance.
        let lat = net.stats().latency.max();
        assert!(lat >= 13, "latency {lat} too small to be physical");
        assert!(lat <= 40, "latency {lat} unexpectedly large");
    }

    #[test]
    fn message_to_self_tile_loops_through_local_port() {
        let mut net = net_3x3();
        net.send(EngineId(4), EngineId(4), msg(7, 16), Cycle(0));
        let mut now = Cycle(0);
        for _ in 0..50 {
            net.tick(now);
            now = now.next();
            if let Some(m) = net.poll_ejected(EngineId(4), now) {
                assert_eq!(m.id, MessageId(7));
                return;
            }
        }
        panic!("self-addressed message never delivered");
    }

    #[test]
    fn many_messages_all_arrive_exactly_once() {
        let mut net = net_3x3();
        let mut rng = SimRng::new(42);
        let mut sent = 0u64;
        let mut now = Cycle(0);
        let mut received: Vec<u64> = Vec::new();
        // Inject 60 random unicasts over 300 cycles, draining as we go.
        for step in 0..2000u64 {
            if step < 300 && step % 5 == 0 {
                let from = EngineId(rng.gen_range(9) as u16);
                let to = EngineId(rng.gen_range(9) as u16);
                net.send(from, to, msg(1000 + sent, 64), now);
                sent += 1;
            }
            net.tick(now);
            now = now.next();
            for e in 0..9u16 {
                if let Some(m) = net.poll_ejected(EngineId(e), now) {
                    received.push(m.id.0);
                }
            }
            if received.len() as u64 == sent && step > 300 {
                break;
            }
        }
        assert_eq!(received.len() as u64, sent, "lossless delivery");
        received.sort_unstable();
        received.dedup();
        assert_eq!(received.len() as u64, sent, "no duplicates");
        assert!(net.is_quiescent(), "network drained");
    }

    #[test]
    fn congestion_backpressures_into_source_queue_without_loss() {
        let mut net = net_3x3();
        // Everyone blasts engine 8: its single ejection port (1 flit
        // per cycle) is the bottleneck. Nothing may be lost.
        let mut now = Cycle(0);
        let mut sent = 0u64;
        for burst in 0..40u64 {
            for e in 0..8u16 {
                net.send(
                    EngineId(e),
                    EngineId(8),
                    msg(burst * 100 + u64::from(e), 64),
                    now,
                );
                sent += 1;
            }
        }
        let mut received = 0u64;
        for _ in 0..40_000 {
            net.tick(now);
            now = now.next();
            if net.poll_ejected(EngineId(8), now).is_some() {
                received += 1;
            }
            if received == sent {
                break;
            }
        }
        assert_eq!(received, sent, "all messages delivered despite congestion");
        assert!(net.is_quiescent());
    }

    #[test]
    fn ejection_is_one_flit_per_cycle() {
        let mut net = net_3x3();
        // Two 64B messages to engine 8 take 18 flits; receiving all of
        // them requires at least 18 poll cycles.
        net.send(EngineId(0), EngineId(8), msg(1, 64), Cycle(0));
        net.send(EngineId(1), EngineId(8), msg(2, 64), Cycle(0));
        let mut now = Cycle(0);
        let mut deliveries = 0;
        let mut polls = 0u64;
        while deliveries < 2 && polls < 1000 {
            net.tick(now);
            now = now.next();
            polls += 1;
            if net.poll_ejected(EngineId(8), now).is_some() {
                deliveries += 1;
            }
        }
        assert_eq!(deliveries, 2);
        assert!(
            polls >= 18,
            "9-flit messages cannot eject faster than 1 flit/cycle"
        );
    }

    #[test]
    fn source_depth_reports_backlog() {
        let mut net = net_3x3();
        for i in 0..10 {
            net.send(EngineId(0), EngineId(8), msg(i, 64), Cycle(0));
        }
        assert_eq!(net.source_depth(EngineId(0)), 90); // 10 msgs x 9 flits
        run(&mut net, Cycle(0), 5);
        assert!(net.source_depth(EngineId(0)) < 90, "injection is draining");
    }

    #[test]
    fn latency_scales_with_distance() {
        // Average delivery latency to a far corner exceeds latency to a
        // neighbor, all else equal.
        let mut near_net = net_3x3();
        let mut far_net = net_3x3();
        for i in 0..20 {
            near_net.send(EngineId(0), EngineId(1), msg(i, 64), Cycle(0));
            far_net.send(EngineId(0), EngineId(8), msg(i, 64), Cycle(0));
        }
        let mut now = Cycle(0);
        for _ in 0..3000 {
            near_net.tick(now);
            far_net.tick(now);
            now = now.next();
            let _ = near_net.poll_ejected(EngineId(1), now);
            let _ = far_net.poll_ejected(EngineId(8), now);
        }
        assert_eq!(near_net.stats().delivered_messages, 20);
        assert_eq!(far_net.stats().delivered_messages, 20);
        assert!(
            far_net.stats().latency.mean() > near_net.stats().latency.mean(),
            "far {} <= near {}",
            far_net.stats().latency.mean(),
            near_net.stats().latency.mean()
        );
    }

    #[test]
    fn drain_ejected_returns_complete_messages() {
        let mut net = net_3x3();
        net.send(EngineId(3), EngineId(4), msg(5, 32), Cycle(0));
        let now = run(&mut net, Cycle(0), 30);
        let msgs = net.drain_ejected(EngineId(4), now);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].id, MessageId(5));
    }

    #[test]
    #[should_panic(expected = "not placed")]
    fn send_to_unplaced_engine_panics() {
        let mut net = net_3x3();
        net.send(EngineId(0), EngineId(99), msg(1, 8), Cycle(0));
    }

    #[test]
    fn tracer_records_hops_stalls_and_message_spans() {
        use trace::EventKind;
        let mut net = net_3x3();
        let tracer = Tracer::ring(65536);
        net.attach_tracer(&tracer);
        // Everyone blasts engine 8: the single ejection port is the
        // bottleneck, so upstream credits must run dry at some point.
        let mut sent = 0u64;
        for burst in 0..10u64 {
            for e in 0..8u16 {
                net.send(
                    EngineId(e),
                    EngineId(8),
                    msg(burst * 100 + u64::from(e), 64),
                    Cycle(0),
                );
                sent += 1;
            }
        }
        let mut now = Cycle(0);
        let mut received = 0u64;
        for _ in 0..20_000 {
            net.tick(now);
            now = now.next();
            if net.poll_ejected(EngineId(8), now).is_some() {
                received += 1;
            }
            if received == sent {
                break;
            }
        }
        assert_eq!(received, sent);
        let events = tracer.ring_snapshot().unwrap();
        assert!(events.iter().any(|e| e.name == "noc.hop"));
        assert!(
            events.iter().any(|e| e.name == "noc.credit_stall"),
            "congestion toward one ejection port must stall credits"
        );
        let spans = events
            .iter()
            .filter(|e| e.name == "noc.msg" && matches!(e.kind, EventKind::Complete { .. }))
            .count() as u64;
        // The ring may have evicted early spans; at least the recent
        // deliveries must be present as spans.
        assert!(spans > 0, "no noc.msg spans recorded");

        let mut m = MetricsRegistry::new();
        net.export_metrics(&mut m, "noc");
        assert_eq!(m.counter("noc.injected_messages"), Some(sent));
        assert_eq!(m.counter("noc.delivered_messages"), Some(sent));
        assert!(m.counter("noc.flit_hops").unwrap() > 0);
        assert_eq!(m.histogram("noc.latency").unwrap().count(), sent);
    }

    #[test]
    fn ejection_drop_loses_message_and_leaks_exactly_one_credit() {
        let mut net = net_3x3();
        net.fault_drop_next_ejection(EngineId(8));
        // Two messages race to engine 8; whichever tail reassembles
        // first is the victim, the other must still arrive.
        net.send(EngineId(0), EngineId(8), msg(1, 64), Cycle(0));
        net.send(EngineId(1), EngineId(8), msg(2, 64), Cycle(0));
        let mut now = Cycle(0);
        let mut got = Vec::new();
        for _ in 0..2000 {
            net.tick(now);
            now = now.next();
            if let Some(m) = net.poll_ejected(EngineId(8), now) {
                got.push(m.id.0);
            }
            if net.is_quiescent() && net.ejection_depth(EngineId(8)) == 0 {
                break;
            }
        }
        assert_eq!(got.len(), 1, "exactly one victim, one survivor: {got:?}");
        assert_eq!(net.lost_messages(), 1);
        assert_eq!(net.leaked_credits(), 1);
        assert_eq!(net.stats().delivered_messages, 1);
        assert!(net.is_quiescent(), "drop must not wedge the mesh");
        // The shrunken credit pool still carries traffic.
        net.send(EngineId(0), EngineId(8), msg(3, 64), now);
        let mut ok = false;
        for _ in 0..2000 {
            net.tick(now);
            now = now.next();
            if net.poll_ejected(EngineId(8), now).is_some() {
                ok = true;
                break;
            }
        }
        assert!(ok, "tile must survive one leaked credit");
    }

    #[test]
    fn slow_link_delays_but_delivers() {
        let mut slow = net_3x3();
        let mut fast = net_3x3();
        // Throttle the East output of engine 0's tile to 1/4 rate for
        // the whole experiment window.
        slow.fault_link_slow(EngineId(0), PortDir::East, Cycle(100_000), 4);
        for net in [&mut slow, &mut fast] {
            for i in 0..10 {
                net.send(EngineId(0), EngineId(2), msg(i, 64), Cycle(0));
            }
            let mut now = Cycle(0);
            for _ in 0..5000 {
                net.tick(now);
                now = now.next();
                let _ = net.poll_ejected(EngineId(2), now);
                if net.stats().delivered_messages == 10 {
                    break;
                }
            }
        }
        assert_eq!(slow.stats().delivered_messages, 10, "slowdown is lossless");
        assert_eq!(fast.stats().delivered_messages, 10);
        assert!(
            slow.stats().latency.mean() > 2.0 * fast.stats().latency.mean(),
            "1/4-rate link should at least double latency: slow {} fast {}",
            slow.stats().latency.mean(),
            fast.stats().latency.mean()
        );
    }

    #[test]
    fn credit_hold_throttles_then_recovers() {
        let mut net = net_3x3();
        // Confiscate the whole East credit pool at engine 0's tile...
        let taken = net.fault_hold_credits(EngineId(0), PortDir::East, 8, Cycle(50));
        assert_eq!(taken, 8);
        net.send(EngineId(0), EngineId(2), msg(1, 64), Cycle(0));
        let mut now = Cycle(0);
        let mut delivered_at = None;
        for _ in 0..1000 {
            net.tick(now);
            now = now.next();
            if net.poll_ejected(EngineId(2), now).is_some() {
                delivered_at = Some(now);
                break;
            }
        }
        let at = delivered_at.expect("hold expires and message flows");
        assert!(at >= Cycle(50), "nothing crossed the held link early");
        assert!(net.is_quiescent());
        // Metrics: fault counters only exist once faults were engaged.
        let mut m = MetricsRegistry::new();
        net.export_metrics(&mut m, "noc");
        assert_eq!(m.counter("noc.lost_messages"), Some(0));
        let mut clean = net_3x3();
        clean.send(EngineId(0), EngineId(1), msg(1, 8), Cycle(0));
        let mut m2 = MetricsRegistry::new();
        clean.export_metrics(&mut m2, "noc");
        assert_eq!(m2.counter("noc.lost_messages"), None, "zero-cost when off");
    }

    #[test]
    fn disabled_tracer_changes_nothing() {
        let mut traced = net_3x3();
        traced.attach_tracer(&Tracer::disabled());
        let mut plain = net_3x3();
        for net in [&mut traced, &mut plain] {
            net.send(EngineId(0), EngineId(8), msg(1, 64), Cycle(0));
            run(net, Cycle(0), 60);
        }
        assert_eq!(
            traced.stats().delivered_flits,
            plain.stats().delivered_flits
        );
        assert_eq!(traced.total_flit_hops(), plain.total_flit_hops());
    }

    #[test]
    fn slab_reuses_slots_and_preserves_messages() {
        let mut net = net_3x3();
        let mut now = Cycle(0);
        for id in 0..20 {
            let payload = Bytes::from(vec![id as u8; 40 + id as usize]);
            let m = Message::builder(MessageId(id), MessageKind::EthernetFrame)
                .payload(payload.clone())
                .build();
            net.send(EngineId(0), EngineId(8), m, now);
            let got = loop {
                net.tick(now);
                now = now.next();
                if let Some(m) = net.poll_ejected(EngineId(8), now) {
                    break m;
                }
            };
            assert_eq!((got.id, got.payload), (MessageId(id), payload));
            // One message in flight at a time: its slot is freed at
            // the tail and reused by the next send.
            assert_eq!(net.slab.len(), 1);
            assert_eq!(net.free_slots, vec![0]);
        }
    }
}
