//! # noc — the PANIC on-chip network
//!
//! §3.1.2: "Instead of using a single crossbar to connect engines, PANIC
//! uses a multi-hop on-chip network ... Every engine contains a router,
//! and the routers are connected in a 2D mesh topology ... the on-chip
//! network is lossless ... The routers add one cycle of latency at each
//! hop."
//!
//! This crate provides:
//!
//! * [`topology`] — mesh coordinates, XY dimension-ordered routing, and
//!   placement of logical [`EngineId`](packet::EngineId)s onto tiles.
//! * [`router`] — the cycle-accurate wormhole router model: ports and
//!   buffer sizing for per-input FIFOs, credit-based flow control
//!   (lossless), per-output round-robin arbitration, one hop per cycle.
//! * [`network`] — the assembled mesh: every router's state, stepped by
//!   open wormholes over 8-byte flit handles; injection/ejection
//!   interfaces for engine tiles, the two-phase clock driver, and
//!   traffic metrics.
//! * [`analytic`] — the closed-form models behind the paper's Table 2
//!   (line-rate packet rates) and Table 3 (bisection bandwidth, capacity,
//!   sustainable chain length), kept next to the simulator so the two
//!   can be cross-checked in tests and benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analytic;
pub mod network;
pub mod router;
pub mod topology;

pub use network::{MeshNetwork, NetworkConfig, NetworkStats};
pub use router::{PortDir, RouterConfig};
pub use topology::{Coord, Placement, Topology};
