//! Reproduce the paper's **Figure 6** — the example message sequence of
//! the QNP — as a rendering of the protocol event log of a live run on
//! a 4-node chain.
//!
//! Expected flow (paper): REQUEST → FORWARD cascade → link-pair
//! generation on each link → immediate SWAPs at the repeaters → TRACK
//! messages in both directions collecting swap records → PAIR delivered
//! at both ends → COMPLETE cascade.
//!
//! ```sh
//! cargo run --release --example sequence_trace
//! ```

use qnp::netsim::{EventLog, NetEvent};
use qnp::prelude::*;
use qnp::routing::chain;

/// The Fig 6 run: one single-pair KEEP request from Alice to Bob.
pub fn fig6() -> NetSim {
    // Four nodes: Alice(0) — R1(1) — R2(2) — Bob(3), lab links.
    let topology = chain(4, HardwareParams::simulation(), FibreParams::lab_2m());
    let mut sim = NetworkBuilder::new(topology).seed(11).with_trace().build();
    let vc = sim
        .open_circuit(NodeId(0), NodeId(3), 0.8, CutoffPolicy::short())
        .expect("plan");

    sim.submit_at(
        SimTime::ZERO,
        vc,
        UserRequest {
            id: RequestId(1),
            head: Address {
                node: NodeId(0),
                identifier: 1,
            },
            tail: Address {
                node: NodeId(3),
                identifier: 1,
            },
            min_fidelity: 0.8,
            demand: Demand::Pairs {
                n: 1,
                deadline: None,
            },
            request_type: RequestType::Keep,
            final_state: None,
        },
    );
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
    sim
}

fn is_msg(e: &NetEvent, name: &str) -> bool {
    matches!(e, NetEvent::MsgSent { kind, .. } if *kind == name)
}

/// The printed figure: the rendered log, after checking that it shows
/// the canonical ordering of Fig 6.
pub fn report(log: &EventLog) -> String {
    let events = log.events();
    let first = |want: &dyn Fn(&NetEvent) -> bool| {
        events
            .iter()
            .position(|(_, e)| want(e))
            .unwrap_or(usize::MAX)
    };
    let forward = first(&|e| is_msg(e, "FORWARD"));
    let pair = first(&|e| matches!(e, NetEvent::LinkPair { .. }));
    let swap = first(&|e| matches!(e, NetEvent::SwapStart { .. }));
    let track = first(&|e| is_msg(e, "TRACK"));
    let deliver = first(&|e| matches!(e, NetEvent::Deliver { .. }));
    let complete = first(&|e| is_msg(e, "COMPLETE"));
    assert!(forward < pair, "FORWARD precedes link generation");
    assert!(pair < swap, "link pairs precede swaps");
    assert!(track != usize::MAX && swap != usize::MAX);
    assert!(deliver > swap, "delivery follows the swaps");
    assert!(complete > deliver, "COMPLETE closes the request");
    format!(
        "# Figure 6 — QNP message sequence (4-node circuit, 1 pair)\n#\n{}\n\
         # sequence order check: FORWARD → pairs → SWAP → TRACK → PAIR → COMPLETE  ✓\n",
        log.render()
    )
}

#[allow(dead_code)] // the golden test includes this file as a module
fn main() {
    let sim = fig6();
    print!(
        "{}",
        report(sim.log().expect("the run records its event log"))
    );
}
