//! The event log's contract: off, it costs no allocation per event; on,
//! it costs only its own `Vec` growth (so no event owns heap data); and
//! either way it observes the run without changing it.
//!
//! A counting global allocator tallies allocations per thread, so the
//! other tests in this binary running alongside do not disturb the
//! counts.

use qn_hardware::device::QubitId;
use qn_hardware::params::{FibreParams, HardwareParams};
use qn_link::{EntanglementId, LinkLabel, RejectReason};
use qn_net::wire::DecodeError;
use qn_net::{Address, CircuitId, Demand, RequestId, RequestType, UserRequest};
use qn_netsim::app::Payload;
use qn_netsim::build::{NetSim, NetworkBuilder};
use qn_netsim::log::{emit, EventLog, FramePlane, NetEvent, Site};
use qn_netsim::ClassicalFaults;
use qn_quantum::{BellState, Pauli};
use qn_routing::{chain, CutoffPolicy};
use qn_sim::{NodeId, SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations made by this thread while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const EMITS: u64 = 1_000_000;

/// A mix of events touching every kind of field: ids, correlators,
/// Bell states, payloads, error values, static names.
fn sample(i: u64) -> NetEvent {
    let node = NodeId((i % 7) as u32);
    let pair = EntanglementId {
        node_a: NodeId(0),
        node_b: NodeId(1),
        seq: i,
    };
    match i % 8 {
        0 => NetEvent::MsgSent {
            from: node,
            to: NodeId(1),
            kind: "TRACK",
            downstream: i % 2 == 0,
        },
        1 => NetEvent::LinkPair {
            a: NodeId(0),
            b: NodeId(1),
            pair,
            announced: BellState::default(),
            attempts: i,
        },
        2 => NetEvent::SwapStart {
            node,
            up: pair,
            down: pair,
        },
        3 => NetEvent::Deliver {
            node,
            request: RequestId(i),
            sequence: i,
            payload: Payload::Measurement {
                outcome: true,
                basis: Pauli::X,
                state: BellState::default(),
            },
        },
        4 => NetEvent::FrameUndecodable {
            node,
            plane: FramePlane::Link,
            err: DecodeError::BadTag {
                field: "basis",
                value: 9,
            },
        },
        5 => NetEvent::LinkRequestRejected {
            node,
            label: LinkLabel(3),
            reason: RejectReason::LinkDown,
        },
        6 => NetEvent::LinkRequestDone {
            site: Site::Link(NodeId(0), NodeId(1)),
            label: LinkLabel(3),
        },
        _ => NetEvent::Move {
            node,
            storage: QubitId(2),
        },
    }
}

fn emit_all(log: &mut Option<EventLog>) {
    for i in 0..EMITS {
        emit(black_box(log), SimTime::from_ps(i), black_box(sample(i)));
    }
}

#[test]
fn a_disabled_log_never_allocates() {
    let mut log = None;
    let allocations = allocations_during(|| emit_all(&mut log));
    assert_eq!(allocations, 0, "{EMITS} emits with the log off");
    assert!(log.is_none());
}

#[test]
fn an_enabled_log_allocates_only_to_grow() {
    let mut log = Some(EventLog::new());
    let allocations = allocations_during(|| emit_all(&mut log));
    // Amortised doubling from empty: one allocation plus one `realloc`
    // per doubling up to `EMITS` slots. A per-event `String` would add
    // one per emit.
    let bound = (EMITS as f64).log2().ceil() as u64 + 1;
    assert!(
        allocations <= bound,
        "{allocations} allocations for {EMITS} emits (bound {bound})"
    );
    assert_eq!(log.unwrap().events().len() as u64, EMITS);
}

fn keep(id: u64, n: u64) -> UserRequest {
    UserRequest {
        id: RequestId(id),
        head: Address {
            node: NodeId(0),
            identifier: 0,
        },
        tail: Address {
            node: NodeId(3),
            identifier: 0,
        },
        min_fidelity: 0.8,
        demand: Demand::Pairs { n, deadline: None },
        request_type: RequestType::Keep,
        final_state: None,
    }
}

/// The wired 4-chain with 5% of classical frames lost: frames, loss,
/// retransmission, orphan reclaim and discards all fire.
fn lossy_chain(logged: bool) -> NetSim {
    let topology = chain(4, HardwareParams::simulation(), FibreParams::lab_2m());
    let mut b = NetworkBuilder::new(topology)
        .seed(1313)
        .signalling_on_wire()
        .classical_faults(ClassicalFaults {
            drop: 0.05,
            ..ClassicalFaults::OFF
        })
        .track_timeout(SimDuration::from_secs(2));
    if logged {
        b = b.with_trace();
    }
    let mut sim = b.build();
    let vc: CircuitId = sim
        .open_circuit(NodeId(0), NodeId(3), 0.8, CutoffPolicy::short())
        .unwrap();
    for i in 0..20u64 {
        let at = SimTime::ZERO + SimDuration::from_millis(600 * i);
        sim.submit_at(at, vc, keep(i + 1, 2));
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
    sim
}

#[allow(clippy::type_complexity)]
fn deliveries(sim: &NetSim) -> Vec<(u64, u32, u64, u64, Option<u64>, Option<bool>)> {
    sim.app()
        .deliveries
        .iter()
        .map(|d| {
            (
                d.time.as_ps(),
                d.node.0,
                d.request.0,
                d.sequence,
                d.oracle_fidelity.map(f64::to_bits),
                d.state_consistent,
            )
        })
        .collect()
}

#[test]
fn the_log_changes_nothing_it_observes() {
    let off = lossy_chain(false);
    let on = lossy_chain(true);
    assert!(off.log().is_none());
    let log = on.log().expect("the log is on");
    let kinds = |k: &str| log.events().iter().filter(|(_, e)| e.kind() == k).count();
    assert!(kinds("MsgSent") > 0 && kinds("LinkPair") > 0 && kinds("Deliver") > 0);
    assert!(off.classical_stats().dropped > 0, "the loss must bite");
    assert!(!deliveries(&off).is_empty(), "the chain must deliver");

    assert_eq!(on.events_processed(), off.events_processed());
    assert_eq!(deliveries(&on), deliveries(&off));
    assert_eq!(on.discarded_pairs(), off.discarded_pairs());
    assert_eq!(on.classical_stats(), off.classical_stats());
    assert_eq!(on.node_stats(), off.node_stats());
    assert_eq!(on.state_mismatches(), off.state_mismatches());
}
