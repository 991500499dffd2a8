//! Steady-state ticks perform **zero heap allocations** (workspace
//! root because the counting `#[global_allocator]` needs `unsafe`,
//! which the library crates forbid; see `docs/PERF.md`).
//!
//! The hot loop was de-allocated in layers — the mesh's reused move
//! and wormhole lists, its message slab (flits are 8-byte handles into
//! it), engine `process_into`, and the scenarios' reusable drain
//! buffers — and this test is what keeps it that way: after a warm-up
//! window, every `tick` (and wire drain) of a busy NIC must allocate
//! nothing.
//!
//! ## Warm-up allowlist
//!
//! Allocation during the warm-up window is expected and legitimate:
//!
//! * scratch buffers growing to their steady-state capacity (the
//!   mesh's move list, the NIC's wire/host drain buffers);
//! * the NoC message slab growing to its working set of in-flight
//!   messages (slots are reused, never freed, thereafter);
//! * per-tile queue and scheduler storage reaching peak occupancy;
//! * lazily built engine state (e.g. a MAC's first-use histograms);
//! * the event kernel's [`TimerWheel`] slot buckets and due buffer
//!   growing to their working set (buckets are taken and restored,
//!   never freed, thereafter).
//!
//! Frame *injection* allocates by design (fresh payload bytes per
//! frame — that is workload state, not simulator state) and is
//! excluded from the counted region, exactly as `docs/PERF.md`
//! documents.
//!
//! ## Isolation
//!
//! The counter is armed and tallied per thread, so the test harness's
//! own threads and sibling tests never land in a measured window; the
//! tests also take [`SERIAL`] so they never overlap at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use engines::engine::NullOffload;
use engines::mac::MacEngine;
use engines::tile::TileConfig;
use noc::router::RouterConfig;
use noc::topology::Topology;
use packet::chain::{EngineClass, EngineId};
use packet::message::{Message, Priority, TenantId};
use packet::phv::Field;
use panic_core::nic::{NicConfig, PanicNic};
use rmt::action::{Action, Primitive, SlackExpr};
use rmt::parse::ParseGraph;
use rmt::pipeline::PipelineConfig;
use rmt::program::ProgramBuilder;
use rmt::table::{MatchKind, Table};
use sim_core::time::{Bandwidth, Cycle, Cycles, Freq};
use sim_core::wheel::TimerWheel;
use workloads::frames::FrameFactory;

/// Counts allocations (and reallocations) made by a thread while that
/// thread has the counter armed; forwards everything to the system
/// allocator.
struct CountingAlloc;

thread_local! {
    // `const` initializers without destructors: touching these never
    // allocates, so the allocator itself can read them.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}
/// Debug aid: set `ZERO_ALLOC_PANIC=1` to panic (with a backtrace) at
/// the first counted allocation instead of tallying. Latched once in
/// [`counted`] — reading the environment inside `alloc` would itself
/// allocate.
static PANIC_ON_ALLOC: AtomicBool = AtomicBool::new(false);

/// The one-at-a-time lock every test in this file holds.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`], surviving a sibling test's failure.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Whether the current thread's counter is armed (false while the
/// thread is being torn down).
fn armed() -> bool {
    ARMED.try_with(Cell::get).unwrap_or(false)
}

/// Arms or disarms the current thread's counter; returns the previous
/// state.
fn set_armed(on: bool) -> bool {
    ARMED.with(|a| a.replace(on))
}

/// Tallies one counted (re)allocation of `bytes` on this thread.
fn tally(bytes: usize) {
    ALLOCS.with(|a| a.set(a.get() + 1));
    BYTES.with(|b| b.set(b.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            tally(layout.size());
            if PANIC_ON_ALLOC.load(Ordering::Relaxed) {
                set_armed(false);
                panic!("counted allocation of {} bytes", layout.size());
            }
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            tally(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's counter armed; returns (result,
/// allocations, bytes requested) made by this thread inside `f`.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    PANIC_ON_ALLOC.store(
        std::env::var_os("ZERO_ALLOC_PANIC").is_some(),
        Ordering::SeqCst,
    );
    ALLOCS.with(|a| a.set(0));
    BYTES.with(|b| b.set(0));
    set_armed(true);
    let r = f();
    set_armed(false);
    (r, ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// A busy little NIC: two offload hops then back out the port, RMT
/// portal, everything the real scenarios exercise except the fault
/// plane (covered separately below).
fn chain_nic() -> (PanicNic, EngineId) {
    let freq = Freq::mhz(500);
    let mut b = PanicNic::builder(NicConfig {
        topology: Topology::mesh(3, 3),
        width_bits: 64,
        router: RouterConfig::default(),
        pipeline: PipelineConfig {
            parallel: 1,
            depth: 3,
            freq,
        },
        pcie_flush_interval: 0,
    });
    let eth = b.engine(
        Box::new(MacEngine::new("eth0", Bandwidth::gbps(100), freq)),
        TileConfig::default(),
    );
    let off0 = b.engine(
        Box::new(NullOffload::new("off0", EngineClass::Asic, Cycles(2))),
        TileConfig::default(),
    );
    let off1 = b.engine(
        Box::new(NullOffload::new("off1", EngineClass::Asic, Cycles(3))),
        TileConfig::default(),
    );
    let _ = b.rmt_portal();
    b.program(
        ProgramBuilder::new("zero-alloc-chain", ParseGraph::standard(6379))
            .stage(Table::new(
                "route",
                MatchKind::Exact(vec![Field::EthType]),
                Action::named(
                    "chain",
                    vec![
                        Primitive::PushHop {
                            engine: off0,
                            slack: SlackExpr::Const(400),
                        },
                        Primitive::PushHop {
                            engine: off1,
                            slack: SlackExpr::Const(400),
                        },
                        Primitive::PushHop {
                            engine: eth,
                            slack: SlackExpr::Const(800),
                        },
                    ],
                ),
            ))
            .build(),
    );
    (b.build(), eth)
}

/// One simulated cycle of the measured loop: inject (uncounted —
/// workload-side allocation), then tick and drain the wire (counted
/// when armed).
fn step(
    nic: &mut PanicNic,
    eth: EngineId,
    factory: &mut FrameFactory,
    scratch: &mut Vec<Message>,
    now: Cycle,
    inject_every: u64,
) -> u64 {
    let mut delivered = 0;
    if now.0.is_multiple_of(inject_every) {
        let was = set_armed(false);
        nic.rx_frame(
            eth,
            factory.min_frame((now.0 % 4096) as u16, 80),
            TenantId(1),
            Priority::Normal,
            now,
        );
        set_armed(was);
    }
    nic.tick(now);
    scratch.clear();
    nic.drain_wire_tx_into(scratch);
    delivered += scratch.len() as u64;
    delivered
}

/// The headline claim: once warm, a busy steady-state cycle — frames
/// in flight through the mesh, the RMT pipeline, three engines, and
/// the wire drain — performs zero heap allocations.
#[test]
fn steady_state_tick_allocates_nothing() {
    const INJECT_EVERY: u64 = 24;
    const WARMUP: u64 = 6_000;
    const MEASURE: u64 = 6_000;

    let _serial = serial();
    let (mut nic, eth) = chain_nic();
    let mut factory = FrameFactory::for_nic_port(0);
    let mut scratch: Vec<Message> = Vec::new();
    let mut delivered = 0u64;

    // Warm-up: scratch buffers, pools, and queues reach steady state
    // (see the module-level allowlist).
    for c in 0..WARMUP {
        delivered += step(
            &mut nic,
            eth,
            &mut factory,
            &mut scratch,
            Cycle(c),
            INJECT_EVERY,
        );
    }
    assert!(delivered > 0, "warm-up must reach the wire");

    // Measurement: the same loop, counted.
    let (delivered, allocs, bytes) = counted(|| {
        let mut d = 0u64;
        for c in WARMUP..WARMUP + MEASURE {
            d += step(
                &mut nic,
                eth,
                &mut factory,
                &mut scratch,
                Cycle(c),
                INJECT_EVERY,
            );
        }
        d
    });
    assert!(
        delivered > MEASURE / INJECT_EVERY / 2,
        "measured window must stay busy (delivered {delivered})"
    );
    assert_eq!(
        allocs, 0,
        "steady-state ticks allocated {allocs} times ({bytes} bytes) over \
         {MEASURE} cycles — the zero-alloc hot path has regressed"
    );
}

/// One turn of the wake-on-event loop, mirroring
/// `PanicNic::run_event`: tick at `now` (via [`step`], so injection
/// stays uncounted), re-arm the NIC's `next_activity` wake plus the
/// workload's injection clock in the wheel, retire due wakes, then
/// jump straight to the next wake, replaying idle bookkeeping with
/// `skip_idle`.
#[allow(clippy::too_many_arguments)]
fn event_turn(
    nic: &mut PanicNic,
    eth: EngineId,
    factory: &mut FrameFactory,
    scratch: &mut Vec<Message>,
    wheel: &mut TimerWheel<()>,
    now: &mut Cycle,
    end: Cycle,
    inject_every: u64,
) -> u64 {
    let delivered = step(nic, eth, factory, scratch, *now, inject_every);
    if let Some(t) = nic.next_activity(*now) {
        wheel.schedule(t.max(now.next()), ());
    }
    // The injection clock is a wake source the NIC can't see. Armed
    // once per period (at injection time) so the wheel isn't flooded
    // with duplicate wakes while the NIC ticks every cycle.
    if now.0.is_multiple_of(inject_every) {
        wheel.schedule(Cycle(now.0 + inject_every), ());
    }
    while wheel.pop_due(*now).is_some() {}
    let next = now.next();
    let target = wheel.next_event_time(end).unwrap_or(end).max(next).min(end);
    if target > next {
        nic.skip_idle(next, target);
    }
    *now = target;
    delivered
}

/// The event kernel's steady state is allocation-free too: the same
/// busy chain driven through timer-wheel schedule/pop, exact
/// `next_event_time` jumps, and `skip_idle` replay allocates nothing
/// once warm. (`TimerWheel::new` and first-touch bucket growth are
/// warm-up, like every scratch buffer in the allowlist above.)
///
/// Call-site audit for this test: **no** production
/// `EventQueue::drain_due` call sites remain — every hot path drains
/// through `drain_due_into`; the only `drain_due` uses left are the
/// wheel/queue unit tests themselves.
#[test]
fn event_kernel_steady_state_allocates_nothing() {
    const INJECT_EVERY: u64 = 24;
    const WARMUP: u64 = 6_000;
    const MEASURE: u64 = 6_000;

    let _serial = serial();
    let (mut nic, eth) = chain_nic();
    let mut factory = FrameFactory::for_nic_port(0);
    let mut scratch: Vec<Message> = Vec::new();
    let mut wheel: TimerWheel<()> = TimerWheel::new();
    // Bucket capacity is part of the warm-up allowlist; `reserve`
    // front-loads it so cursor-position-dependent bucket growth can't
    // leak into the measured window.
    wheel.reserve(8);
    let mut now = Cycle(0);
    let mut delivered = 0u64;

    while now < Cycle(WARMUP) {
        delivered += event_turn(
            &mut nic,
            eth,
            &mut factory,
            &mut scratch,
            &mut wheel,
            &mut now,
            Cycle(WARMUP),
            INJECT_EVERY,
        );
    }
    assert!(delivered > 0, "warm-up must reach the wire");

    let (delivered, allocs, bytes) = counted(|| {
        let mut d = 0u64;
        while now < Cycle(WARMUP + MEASURE) {
            d += event_turn(
                &mut nic,
                eth,
                &mut factory,
                &mut scratch,
                &mut wheel,
                &mut now,
                Cycle(WARMUP + MEASURE),
                INJECT_EVERY,
            );
        }
        d
    });
    assert!(
        delivered > MEASURE / INJECT_EVERY / 2,
        "measured window must stay busy (delivered {delivered})"
    );
    assert_eq!(
        allocs, 0,
        "event-kernel steady state allocated {allocs} times ({bytes} bytes) \
         over {MEASURE} cycles — the zero-alloc wake-on-event path has \
         regressed"
    );
}

/// Idle ticks are trivially allocation-free too (the cheap case the
/// fast-forward hint machinery usually skips entirely).
#[test]
fn idle_tick_allocates_nothing() {
    let _serial = serial();
    let (mut nic, _eth) = chain_nic();
    // Settle construction-time lazies.
    for c in 0..64 {
        nic.tick(Cycle(c));
    }
    let ((), allocs, bytes) = counted(|| {
        for c in 64..1_064 {
            nic.tick(Cycle(c));
        }
    });
    assert_eq!(allocs, 0, "idle ticks allocated {allocs}x / {bytes}B");
}
