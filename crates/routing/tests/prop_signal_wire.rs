//! Fuzz the routing-signalling wire frames (INSTALL / TEARDOWN and
//! their acks) against their encoder: exact round-trips over the full
//! entry space, total and canonical decoding on arbitrary bytes, typed
//! truncation, plane separation from the QNP data plane.

use proptest::collection::vec;
use proptest::prelude::*;
use qn_link::LinkLabel;
use qn_net::ids::CircuitId;
use qn_net::routing_table::{DownstreamHop, RoutingEntry, UpstreamHop};
use qn_net::wire::DecodeError;
use qn_routing::wire::SignalMessage;
use qn_sim::{NodeId, SimDuration};

fn arb_entry() -> BoxedStrategy<RoutingEntry> {
    (
        any::<u64>(),
        prop_oneof![
            Just(None),
            (any::<u32>(), any::<u32>()).prop_map(|(n, l)| Some(UpstreamHop {
                node: NodeId(n),
                label: LinkLabel(l),
            }))
        ],
        prop_oneof![
            Just(None),
            ((any::<u32>(), any::<u32>()), (any::<u64>(), any::<u64>()),).prop_map(
                |((n, l), (f, r))| Some(DownstreamHop {
                    node: NodeId(n),
                    label: LinkLabel(l),
                    min_fidelity: f64::from_bits(f),
                    max_lpr: f64::from_bits(r),
                })
            )
        ],
        any::<u64>().prop_map(f64::from_bits),
        any::<u64>().prop_map(SimDuration::from_ps),
    )
        .prop_map(|(c, upstream, downstream, max_eer, cutoff)| RoutingEntry {
            circuit: CircuitId(c),
            upstream,
            downstream,
            max_eer,
            cutoff,
        })
        .boxed()
}

fn arb_signal() -> BoxedStrategy<SignalMessage> {
    prop_oneof![
        arb_entry().prop_map(|entry| SignalMessage::Install { entry }),
        any::<u64>().prop_map(|c| SignalMessage::Teardown {
            circuit: CircuitId(c)
        }),
        any::<u64>().prop_map(|c| SignalMessage::InstallAck {
            circuit: CircuitId(c)
        }),
        any::<u64>().prop_map(|c| SignalMessage::TeardownAck {
            circuit: CircuitId(c)
        }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Exact byte-level round-trip (re-encode comparison covers NaN
    /// fidelity/rate bit patterns).
    #[test]
    fn signal_round_trip(msg in arb_signal()) {
        let bytes = msg.wire_bytes();
        let back = SignalMessage::decode(&bytes);
        prop_assert!(back.is_ok(), "decode failed: {:?}", back);
        prop_assert_eq!(back.unwrap().wire_bytes(), bytes);
    }

    /// Total decoding on arbitrary bytes; whatever decodes re-encodes
    /// identically (canonical representation).
    #[test]
    fn signal_decode_total(bytes in vec(any::<u8>(), 0..96)) {
        match SignalMessage::decode(&bytes) {
            Ok(m) => prop_assert_eq!(m.wire_bytes(), bytes),
            Err(e) => { let _ = format!("{e}"); }
        }
    }

    /// Strict prefixes fail with `Truncated`, at an offset inside the
    /// prefix; a signalling frame is a foreign kind for the data-plane
    /// decoder and vice versa.
    #[test]
    fn signal_framing(msg in arb_signal(), cut in any::<u16>()) {
        let bytes = msg.wire_bytes();
        let len = (cut as usize) % bytes.len();
        let err = SignalMessage::decode(&bytes[..len]);
        prop_assert!(
            matches!(err, Err(DecodeError::Truncated { at }) if at <= len),
            "prefix {} gave {:?}", len, err
        );
        prop_assert!(matches!(
            qn_net::MessageView::parse(&bytes),
            Err(DecodeError::UnknownKind(_))
        ));
        let data = qn_net::Message::Expire(qn_net::Expire {
            circuit: CircuitId(len as u64),
            origin: qn_net::Correlator {
                node_a: NodeId(0),
                node_b: NodeId(1),
                seq: 2,
            },
        })
        .wire_bytes();
        prop_assert!(matches!(
            SignalMessage::decode(&data),
            Err(DecodeError::UnknownKind(_))
        ));
    }
}
