//! The per-tile wormhole router model: its ports and buffer sizing.
//!
//! Figure 3a/3c: every engine tile contains a router; routers connect
//! to their four mesh neighbors plus the local engine. The model is a
//! classic input-buffered wormhole router:
//!
//! * one bounded flit FIFO per input port;
//! * XY dimension-ordered route computation (deadlock-free on a mesh);
//! * per-output round-robin arbitration among requesting inputs;
//! * wormhole ownership: once a head flit wins an output, that output
//!   is locked to its input until the tail flit passes;
//! * credit-based flow control toward each downstream buffer, making
//!   the network lossless (§3.1.2);
//! * one flit per output per cycle, one cycle per hop (§3.1.2: "the
//!   routers add one cycle of latency at each hop").
//!
//! The router state of every tile lives in flat per-(tile, port)
//! arrays inside [`MeshNetwork`](crate::network::MeshNetwork), which
//! steps all routers at once by open wormholes and commits each cycle
//! in two phases, preserving the discipline of [`sim_core::clock`].

use crate::topology::Direction;

/// A router port: four mesh directions plus the local engine port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Link toward row 0.
    North,
    /// Link toward the last row.
    South,
    /// Link toward the last column.
    East,
    /// Link toward column 0.
    West,
    /// The engine attached to this tile.
    Local,
}

impl PortDir {
    /// All five ports, in arbitration-scan order.
    pub const ALL: [PortDir; 5] = [
        PortDir::North,
        PortDir::South,
        PortDir::East,
        PortDir::West,
        PortDir::Local,
    ];

    /// Number of ports.
    pub const COUNT: usize = 5;

    /// Dense index for per-port arrays.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            PortDir::North => 0,
            PortDir::South => 1,
            PortDir::East => 2,
            PortDir::West => 3,
            PortDir::Local => 4,
        }
    }

    /// The mesh direction of a non-local port.
    #[must_use]
    pub fn direction(self) -> Option<Direction> {
        match self {
            PortDir::North => Some(Direction::North),
            PortDir::South => Some(Direction::South),
            PortDir::East => Some(Direction::East),
            PortDir::West => Some(Direction::West),
            PortDir::Local => None,
        }
    }

    /// The port for a mesh direction.
    #[must_use]
    pub fn from_direction(d: Direction) -> PortDir {
        match d {
            Direction::North => PortDir::North,
            Direction::South => PortDir::South,
            Direction::East => PortDir::East,
            Direction::West => PortDir::West,
        }
    }

    /// The port on which a neighbor receives a flit sent out of this
    /// port (the opposite side).
    #[must_use]
    pub const fn opposite(self) -> PortDir {
        match self {
            PortDir::North => PortDir::South,
            PortDir::South => PortDir::North,
            PortDir::East => PortDir::West,
            PortDir::West => PortDir::East,
            PortDir::Local => PortDir::Local,
        }
    }
}

/// Router configuration.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Capacity of each input FIFO, in flits. Also the initial credit
    /// count a neighbor holds toward this router.
    pub input_buffer_flits: usize,
    /// Capacity of the tile's ejection buffer, in flits (credits held
    /// by this router's Local output).
    pub ejection_buffer_flits: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            // 8 flits: one minimal 64B packet at 64-bit channels.
            input_buffer_flits: 8,
            ejection_buffer_flits: 16,
        }
    }
}

/// Router behavior, checked through the assembled mesh: each test
/// drives a 3×3 row-major mesh (engine `3y + x` at tile `(x, y)`, the
/// center router at `(1,1)`) and reads per-router hops and stalls from
/// the trace.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{FlitRef, MeshNetwork, NetworkConfig};
    use crate::topology::{Coord, Placement, Topology};
    use bytes::Bytes;
    use packet::{EngineId, FlitKind, Message, MessageId, MessageKind};
    use sim_core::time::Cycle;
    use trace::Tracer;

    /// The center tile's engine.
    const CENTER: EngineId = EngineId(4);

    fn mesh(cfg: RouterConfig) -> (MeshNetwork, Tracer) {
        let topo = Topology::mesh(3, 3);
        let mut net = MeshNetwork::new(
            NetworkConfig {
                topology: topo,
                width_bits: 64,
                router: cfg,
            },
            Placement::row_major(topo),
        );
        let tracer = Tracer::ring(1 << 16);
        net.attach_tracer(&tracer);
        (net, tracer)
    }

    /// A message of `payload` bytes: 4 bytes make one 64-bit flit,
    /// 16 bytes make three.
    fn msg(id: u64, payload: usize) -> Message {
        Message::builder(MessageId(id), MessageKind::EthernetFrame)
            .payload(Bytes::from(vec![0u8; payload]))
            .build()
    }

    /// Ticks cycles `from..to`, polling `rx` after each.
    fn run(net: &mut MeshNetwork, from: u64, to: u64, rx: &[EngineId]) -> Vec<u64> {
        let mut got = Vec::new();
        for c in from..to {
            net.tick(Cycle(c));
            for &e in rx {
                if let Some(m) = net.poll_ejected(e, Cycle(c + 1)) {
                    got.push(m.id.0);
                }
            }
        }
        got
    }

    /// `(cycle, arg)` of every `name` event on router `(x, y)`.
    fn events(tracer: &Tracer, name: &str, x: u8, y: u8) -> Vec<(u64, u64)> {
        let track = tracer.track(&format!("noc.router{}", Coord::new(x, y)));
        tracer
            .ring_snapshot()
            .unwrap()
            .iter()
            .filter(|e| e.track == track && e.name == name)
            .map(|e| (e.ts, e.args[0].unwrap().1))
            .collect()
    }

    /// Message ids forwarded by router `(x, y)`, in order.
    fn hops(tracer: &Tracer, x: u8, y: u8) -> Vec<u64> {
        events(tracer, "noc.hop", x, y)
            .into_iter()
            .map(|(_, id)| id)
            .collect()
    }

    #[test]
    fn port_index_and_opposite() {
        for (i, p) in PortDir::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(p.opposite().opposite(), *p);
            assert_eq!(
                p.opposite().direction(),
                p.direction().map(Direction::opposite)
            );
        }
        assert_eq!(PortDir::North.opposite(), PortDir::South);
        assert_eq!(PortDir::East.opposite(), PortDir::West);
        assert_eq!(PortDir::Local.opposite(), PortDir::Local);
        assert_eq!(PortDir::Local.direction(), None);
    }

    #[test]
    fn routes_flit_toward_destination_x_first() {
        // Engine 3 at (0,1) to engine 8 at (2,2): XY routing goes East
        // through the center and (2,1), then South.
        let (mut net, tracer) = mesh(RouterConfig::default());
        net.send(EngineId(3), EngineId(8), msg(1, 4), Cycle(0));
        assert_eq!(run(&mut net, 0, 20, &[EngineId(8)]), vec![1]);
        for (x, y) in [(0, 1), (1, 1), (2, 1), (2, 2)] {
            assert_eq!(hops(&tracer, x, y), vec![1], "router ({x},{y})");
        }
        for (x, y) in [(0, 2), (1, 2)] {
            assert!(hops(&tracer, x, y).is_empty(), "Y-first hop at ({x},{y})");
        }
        assert_eq!(net.total_flit_hops(), 4);
    }

    #[test]
    fn local_delivery_when_at_destination() {
        // Engine 5 at (2,1) to engine 8 at (2,2): one hop South, then
        // router (2,2) delivers through its Local port.
        let (mut net, tracer) = mesh(RouterConfig::default());
        net.send(EngineId(5), EngineId(8), msg(1, 4), Cycle(0));
        net.tick(Cycle(0));
        net.tick(Cycle(1));
        assert_eq!(events(&tracer, "noc.hop", 2, 1), vec![(0, 1)]);
        assert_eq!(events(&tracer, "noc.hop", 2, 2), vec![(1, 1)]);
        assert_eq!(net.ejection_depth(EngineId(8)), 1);
        assert_eq!(net.stats().delivered_flits, 1);
        let m = net.poll_ejected(EngineId(8), Cycle(2)).expect("delivered");
        assert_eq!(m.id, MessageId(1));
    }

    #[test]
    fn wormhole_keeps_message_contiguous() {
        // A 3-flit message from engine 3 enters the center on West and
        // wins East; a 1-flit message from the center's own engine to
        // the same output arrives a cycle later and must not
        // interleave: three cycles of the long message, then the short.
        let (mut net, tracer) = mesh(RouterConfig::default());
        net.send(EngineId(3), EngineId(5), msg(1, 16), Cycle(0));
        net.tick(Cycle(0));
        net.send(CENTER, EngineId(5), msg(2, 4), Cycle(1));
        let got = run(&mut net, 1, 20, &[EngineId(5)]);
        assert_eq!(hops(&tracer, 1, 1), vec![1, 1, 1, 2]);
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn output_blocks_without_credit_and_resumes_on_refill() {
        let cfg = RouterConfig {
            input_buffer_flits: 2,
            ejection_buffer_flits: 2,
        };
        let (mut net, tracer) = mesh(cfg);
        // Three 1-flit messages from engine 5 to engine 8, never
        // polled: two fill the ejection buffer, the third stalls at
        // router (2,2) on its Local output.
        for id in 1..=3 {
            net.send(EngineId(5), EngineId(8), msg(id, 4), Cycle(0));
        }
        run(&mut net, 0, 10, &[]);
        assert_eq!(net.ejection_depth(EngineId(8)), 2);
        assert_eq!(net.stats().delivered_flits, 2);
        let stalls = events(&tracer, "noc.credit_stall", 2, 2);
        assert!(!stalls.is_empty(), "credit exhaustion is reported");
        assert!(
            stalls
                .iter()
                .all(|&(_, port)| port == PortDir::Local.index() as u64),
            "idle ports are not stalled: {stalls:?}"
        );
        // Draining one flit returns one credit: the stalled flit moves.
        assert_eq!(net.poll_ejected(EngineId(8), Cycle(10)).unwrap().id.0, 1);
        net.tick(Cycle(10));
        assert_eq!(net.stats().delivered_flits, 3);
        assert_eq!(net.ejection_depth(EngineId(8)), 2);
    }

    #[test]
    fn round_robin_shares_an_output() {
        // Engines 3 (West input of the center) and 5 (East input) each
        // send two 1-flit messages to engine 7 below the center: both
        // inputs request the center's South output every cycle.
        let (mut net, tracer) = mesh(RouterConfig::default());
        for id in [1u64, 3] {
            net.send(EngineId(3), EngineId(7), msg(id, 4), Cycle(0));
        }
        for id in [2u64, 4] {
            net.send(EngineId(5), EngineId(7), msg(id, 4), Cycle(0));
        }
        run(&mut net, 0, 20, &[EngineId(7)]);
        let order = hops(&tracer, 1, 1);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3, 4]);
        // Fairness: the pointer starts at North, so East wins first,
        // then the grant strictly alternates between the two inputs.
        assert_eq!(order, vec![2, 1, 4, 3]);
    }

    #[test]
    fn one_flit_per_input_per_cycle() {
        // Two 1-flit messages queue on the center's West input, bound
        // for different outputs (East to engine 5, South to engine 7)
        // while both outputs are held; once both free up, only one may
        // leave per cycle.
        let (mut net, tracer) = mesh(RouterConfig::default());
        assert_eq!(
            net.fault_hold_credits(CENTER, PortDir::East, 8, Cycle(10)),
            8
        );
        assert_eq!(
            net.fault_hold_credits(CENTER, PortDir::South, 8, Cycle(10)),
            8
        );
        net.send(EngineId(3), EngineId(5), msg(1, 4), Cycle(0));
        net.send(EngineId(3), EngineId(7), msg(2, 4), Cycle(0));
        run(&mut net, 0, 20, &[EngineId(5), EngineId(7)]);
        assert_eq!(events(&tracer, "noc.hop", 1, 1), vec![(10, 1), (11, 2)]);
    }

    #[test]
    #[should_panic(expected = "input overrun")]
    fn accept_into_full_buffer_panics() {
        let cfg = RouterConfig {
            input_buffer_flits: 1,
            ejection_buffer_flits: 1,
        };
        let (mut net, _) = mesh(cfg);
        let flit = FlitRef {
            slot: 0,
            dest: Coord::new(0, 0),
            kind: FlitKind::HeadTail,
        };
        net.push_input(0, PortDir::East.index(), flit);
        net.push_input(0, PortDir::East.index(), flit);
    }

    #[test]
    fn blocked_output_stalls_and_resumes() {
        // The center's East output is masked on every cycle until 10
        // except multiples of 1000; the flit from engine 3 reaches the
        // center at cycle 1 and must wait for the unmask.
        let (mut net, tracer) = mesh(RouterConfig::default());
        net.fault_link_slow(CENTER, PortDir::East, Cycle(10), 1000);
        net.send(EngineId(3), EngineId(5), msg(1, 4), Cycle(0));
        assert_eq!(run(&mut net, 0, 20, &[EngineId(5)]), vec![1]);
        let stalls = events(&tracer, "noc.credit_stall", 1, 1);
        let east = PortDir::East.index() as u64;
        assert_eq!(stalls, (1..10).map(|c| (c, east)).collect::<Vec<_>>());
        // Unmasked: the flit moves, credits were conserved throughout.
        assert_eq!(events(&tracer, "noc.hop", 1, 1), vec![(10, 1)]);
    }

    #[test]
    fn credit_confiscation_throttles_and_return_restores() {
        let cfg = RouterConfig {
            input_buffer_flits: 2,
            ejection_buffer_flits: 2,
        };
        let (mut net, tracer) = mesh(cfg);
        // Take both East credits; asking for more only gets what exists.
        assert_eq!(
            net.fault_hold_credits(CENTER, PortDir::East, 5, Cycle(20)),
            2
        );
        net.send(EngineId(3), EngineId(5), msg(1, 4), Cycle(0));
        let got = run(&mut net, 0, 30, &[EngineId(5)]);
        assert!(!events(&tracer, "noc.credit_stall", 1, 1).is_empty());
        // Return them at cycle 20: traffic flows again.
        assert_eq!(events(&tracer, "noc.hop", 1, 1), vec![(20, 1)]);
        assert_eq!(got, vec![1]);
        // A port with no link yields nothing to confiscate.
        assert_eq!(
            net.fault_hold_credits(EngineId(0), PortDir::North, 3, Cycle(40)),
            0
        );
    }

    #[test]
    fn edge_router_has_no_credits_off_mesh() {
        // Confiscating everything reads each output's credit capacity
        // at the corner (0,0): North and West links don't exist.
        let (mut net, _) = mesh(RouterConfig::default());
        let corner = EngineId(0);
        let mut cap = |p| net.fault_hold_credits(corner, p, usize::MAX, Cycle(0));
        assert_eq!(cap(PortDir::North), 0);
        assert_eq!(cap(PortDir::West), 0);
        assert_eq!(cap(PortDir::East), 8);
        assert_eq!(cap(PortDir::South), 8);
        assert_eq!(cap(PortDir::Local), 16);
    }
}
