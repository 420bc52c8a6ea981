//! Codec fuzz suites: the wire format must round-trip every message
//! exactly, and decoding must be *total* — arbitrary, truncated or
//! bit-flipped byte strings produce typed errors, never panics. The
//! encoder is the specification: the data plane's one decoder
//! (`MessageView`) is checked against it, field by field and byte for
//! byte. Failing inputs shrink to minimal byte vectors / messages.

use proptest::collection::vec;
use proptest::prelude::*;
use qn_link::{EntanglementId, LinkEvent, LinkLabel, LinkPair, RejectReason};
use qn_net::ids::{CircuitId, Epoch, RequestId};
use qn_net::messages::{Complete, Expire, Forward, Message, Track, TrackAck};
use qn_net::request::RequestType;
use qn_net::wire::{decode_link_event, encode_link_event, DecodeError, MessageView, WIRE_VERSION};
use qn_quantum::bell::BellState;
use qn_quantum::gates::Pauli;
use qn_sim::NodeId;

/// The data plane's one decoder, materialised.
fn decode(bytes: &[u8]) -> Result<Message, DecodeError> {
    MessageView::parse(bytes).map(|v| v.to_message())
}

fn arb_bell() -> BoxedStrategy<BellState> {
    (any::<bool>(), any::<bool>())
        .prop_map(|(x, z)| BellState::from_bits(x, z))
        .boxed()
}

fn arb_pauli() -> BoxedStrategy<Pauli> {
    prop_oneof![
        Just(Pauli::I),
        Just(Pauli::X),
        Just(Pauli::Y),
        Just(Pauli::Z)
    ]
    .boxed()
}

fn arb_corr() -> BoxedStrategy<EntanglementId> {
    (any::<u32>(), any::<u32>(), any::<u64>())
        .prop_map(|(a, b, seq)| EntanglementId {
            node_a: NodeId(a),
            node_b: NodeId(b),
            seq,
        })
        .boxed()
}

fn arb_request_type() -> BoxedStrategy<RequestType> {
    prop_oneof![
        Just(RequestType::Keep),
        Just(RequestType::Early),
        arb_pauli().prop_map(RequestType::Measure)
    ]
    .boxed()
}

/// Any bit pattern, including NaNs, infinities and signed zeros: the
/// codec must preserve all of them bit-exactly.
fn arb_f64_bits() -> BoxedStrategy<f64> {
    any::<u64>().prop_map(f64::from_bits).boxed()
}

fn arb_forward() -> BoxedStrategy<Message> {
    (
        (any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>()),
        arb_request_type(),
        prop_oneof![Just(None), any::<u64>().prop_map(Some)],
        prop_oneof![Just(None), arb_bell().prop_map(Some)],
        arb_f64_bits(),
    )
        .prop_map(|((c, r, h, t), rt, n, fs, rate)| {
            Message::Forward(Forward {
                circuit: CircuitId(c),
                request: RequestId(r),
                head_identifier: h,
                tail_identifier: t,
                request_type: rt,
                number_of_pairs: n,
                final_state: fs,
                rate,
            })
        })
        .boxed()
}

fn arb_complete() -> BoxedStrategy<Message> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
        arb_f64_bits(),
    )
        .prop_map(|(c, r, h, t, rate)| {
            Message::Complete(Complete {
                circuit: CircuitId(c),
                request: RequestId(r),
                head_identifier: h,
                tail_identifier: t,
                rate,
            })
        })
        .boxed()
}

fn arb_track() -> BoxedStrategy<Message> {
    (
        (any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>()),
        arb_corr(),
        arb_corr(),
        arb_bell(),
        prop_oneof![Just(None), any::<u64>().prop_map(|e| Some(Epoch(e)))],
    )
        .prop_map(|((c, r, h, t), origin, link, state, epoch)| {
            Message::Track(Track {
                circuit: CircuitId(c),
                request: RequestId(r),
                head_identifier: h,
                tail_identifier: t,
                origin,
                link,
                outcome_state: state,
                epoch,
            })
        })
        .boxed()
}

fn arb_expire() -> BoxedStrategy<Message> {
    (any::<u64>(), arb_corr())
        .prop_map(|(c, origin)| {
            Message::Expire(Expire {
                circuit: CircuitId(c),
                origin,
            })
        })
        .boxed()
}

fn arb_track_ack() -> BoxedStrategy<Message> {
    (any::<u64>(), arb_corr())
        .prop_map(|(c, origin)| {
            Message::TrackAck(TrackAck {
                circuit: CircuitId(c),
                origin,
            })
        })
        .boxed()
}

fn arb_message() -> BoxedStrategy<Message> {
    prop_oneof![
        arb_forward(),
        arb_complete(),
        arb_track(),
        arb_expire(),
        arb_track_ack()
    ]
    .boxed()
}

fn arb_link_event() -> BoxedStrategy<LinkEvent> {
    prop_oneof![
        (
            arb_corr(),
            any::<u32>(),
            arb_bell(),
            (arb_f64_bits(), arb_f64_bits()),
            any::<u64>(),
        )
            .prop_map(|(id, label, announced, (alpha, goodness), attempts)| {
                LinkEvent::PairReady(LinkPair {
                    id,
                    label: LinkLabel(label),
                    announced,
                    alpha,
                    goodness,
                    attempts,
                })
            }),
        any::<u32>().prop_map(|l| LinkEvent::RequestDone(LinkLabel(l))),
        (
            any::<u32>(),
            prop_oneof![
                Just(RejectReason::FidelityUnattainable),
                Just(RejectReason::DuplicateLabel),
                Just(RejectReason::InvalidWeight),
                Just(RejectReason::LinkDown)
            ]
        )
            .prop_map(|(l, r)| LinkEvent::Rejected(LinkLabel(l), r)),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Exact round-trip for every message type over the full value
    /// space, including NaN rates (compared by re-encoding: the byte
    /// representation is the identity that matters on the wire).
    #[test]
    fn message_encode_decode_round_trip(msg in arb_message()) {
        let bytes = msg.wire_bytes();
        let back = decode(&bytes);
        prop_assert!(back.is_ok(), "decode failed: {:?}", back);
        let back = back.unwrap();
        prop_assert_eq!(back.wire_bytes(), bytes);
        // For non-NaN payloads structural equality must hold too.
        let nan_rate = match &msg {
            Message::Forward(f) => f.rate.is_nan(),
            Message::Complete(c) => c.rate.is_nan(),
            _ => false,
        };
        if !nan_rate {
            prop_assert_eq!(back, msg);
        }
    }

    /// Decoding is total on arbitrary byte strings: typed error or valid
    /// message, never a panic. A panicking input shrinks to a minimal
    /// byte vector.
    #[test]
    fn decode_never_panics_on_arbitrary_bytes(bytes in vec(any::<u8>(), 0..128)) {
        match decode(&bytes) {
            Ok(msg) => {
                // Whatever decoded must re-encode to the same bytes
                // (the codec is a bijection on its valid range).
                prop_assert_eq!(msg.wire_bytes(), bytes);
            }
            Err(e) => {
                // Errors are typed and displayable.
                let _ = format!("{e}");
            }
        }
        let _ = decode_link_event(&bytes);
    }

    /// Every strict prefix of a valid frame fails with `Truncated`, at
    /// an offset inside the prefix.
    #[test]
    fn truncated_frames_error(msg in arb_message(), cut in any::<u16>()) {
        let bytes = msg.wire_bytes();
        let len = (cut as usize) % bytes.len();
        let err = decode(&bytes[..len]).unwrap_err();
        prop_assert!(
            matches!(err, DecodeError::Truncated { at } if at <= len),
            "prefix {} of {} gave {:?}", len, bytes.len(), err
        );
    }

    /// A single flipped bit never panics the decoder; it either yields a
    /// typed error or a different-but-valid frame that re-encodes
    /// consistently.
    #[test]
    fn bit_flips_are_absorbed(msg in arb_message(), flip in any::<u32>()) {
        let mut bytes = msg.wire_bytes();
        let bit = (flip as usize) % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        match decode(&bytes) {
            Ok(m) => prop_assert_eq!(m.wire_bytes(), bytes),
            Err(e) => {
                if bit / 8 == 0 {
                    // Version byte flipped: the error must say so.
                    prop_assert_eq!(e, DecodeError::BadVersion(WIRE_VERSION ^ (1 << (bit % 8))));
                }
            }
        }
    }

    /// Link-layer lifecycle frames round-trip exactly and share the
    /// kind-byte registry: a link frame is a foreign kind for the
    /// data-plane decoder and vice versa.
    #[test]
    fn link_event_round_trip_and_plane_separation(ev in arb_link_event()) {
        let mut bytes = Vec::new();
        encode_link_event(&ev, &mut bytes);
        let back = decode_link_event(&bytes);
        prop_assert!(back.is_ok(), "decode failed: {:?}", back);
        let mut again = Vec::new();
        encode_link_event(&back.unwrap(), &mut again);
        prop_assert_eq!(again, bytes.clone());
        prop_assert!(matches!(decode(&bytes), Err(DecodeError::UnknownKind(_))));
        let data = Message::TrackAck(TrackAck {
            circuit: CircuitId(bytes.len() as u64),
            origin: EntanglementId {
                node_a: NodeId(0),
                node_b: NodeId(1),
                seq: 2,
            },
        })
        .wire_bytes();
        prop_assert!(matches!(
            decode_link_event(&data),
            Err(DecodeError::UnknownKind(_))
        ));
    }

    /// Appending any extra bytes to a valid frame is rejected as
    /// trailing garbage.
    #[test]
    fn trailing_bytes_rejected(msg in arb_message(), extra in vec(any::<u8>(), 1..16)) {
        let mut bytes = msg.wire_bytes();
        let n = extra.len();
        bytes.extend_from_slice(&extra);
        prop_assert_eq!(decode(&bytes), Err(DecodeError::TrailingBytes { extra: n }));
    }

    /// The view decodes every valid frame to the message that was
    /// encoded: it materialises the same bytes, and every field accessor
    /// equals the encoded message's field.
    #[test]
    fn view_decode_equivalent_on_valid_frames(msg in arb_message()) {
        let bytes = msg.wire_bytes();
        let view = MessageView::parse(&bytes);
        prop_assert!(view.is_ok(), "view parse failed: {:?}", view.err());
        let view = view.unwrap();
        // Re-encode comparison covers NaN rate bit patterns.
        prop_assert_eq!(view.to_message().wire_bytes(), bytes.clone());
        prop_assert_eq!(view.circuit(), msg.circuit());
        match (&view, &msg) {
            (MessageView::Forward(v), Message::Forward(m)) => {
                prop_assert_eq!(v.circuit(), m.circuit);
                prop_assert_eq!(v.request(), m.request);
                prop_assert_eq!((v.head_identifier(), v.tail_identifier()),
                    (m.head_identifier, m.tail_identifier));
                prop_assert_eq!(v.request_type(), m.request_type);
                prop_assert_eq!(v.number_of_pairs(), m.number_of_pairs);
                prop_assert_eq!(v.final_state(), m.final_state);
                prop_assert_eq!(v.rate().to_bits(), m.rate.to_bits());
            }
            (MessageView::Complete(v), Message::Complete(m)) => {
                prop_assert_eq!(v.circuit(), m.circuit);
                prop_assert_eq!(v.request(), m.request);
                prop_assert_eq!((v.head_identifier(), v.tail_identifier()),
                    (m.head_identifier, m.tail_identifier));
                prop_assert_eq!(v.rate().to_bits(), m.rate.to_bits());
            }
            (MessageView::Track(v), Message::Track(m)) => {
                prop_assert_eq!(v.circuit(), m.circuit);
                prop_assert_eq!(v.request(), m.request);
                prop_assert_eq!((v.head_identifier(), v.tail_identifier()),
                    (m.head_identifier, m.tail_identifier));
                prop_assert_eq!(v.origin(), m.origin);
                prop_assert_eq!(v.link(), m.link);
                prop_assert_eq!(v.outcome_state(), m.outcome_state);
                prop_assert_eq!(v.epoch(), m.epoch);
            }
            (MessageView::Expire(v), Message::Expire(m)) => {
                prop_assert_eq!(v.circuit(), m.circuit);
                prop_assert_eq!(v.origin(), m.origin);
            }
            (MessageView::TrackAck(v), Message::TrackAck(m)) => {
                prop_assert_eq!(v.circuit(), m.circuit);
                prop_assert_eq!(v.origin(), m.origin);
            }
            (v, m) => prop_assert!(false, "kind mismatch: {:?} vs {:?}", v, m),
        }
    }

    /// Header-valid frames with arbitrary payloads. Small byte values
    /// make the tag fields valid often, and the length often hits one
    /// of the exact payload lengths (EXPIRE/TRACK_ACK 24, COMPLETE 32,
    /// FORWARD 35..=45, TRACK 58 or 66), so the view accepts a good
    /// share of the cases. What it accepts re-encodes byte for byte,
    /// and what it rejects fails inside the payload, never at the
    /// header.
    #[test]
    fn view_decode_equivalent_on_arbitrary_bytes(
        kind in 1u8..=5,
        len in prop_oneof![
            0usize..72,
            Just(24usize),
            Just(32usize),
            35usize..=45,
            Just(58usize),
            Just(66usize)
        ],
        payload in vec(0u8..=4, 72),
    ) {
        let mut bytes = vec![WIRE_VERSION, kind];
        bytes.extend_from_slice(&payload[..len]);
        match MessageView::parse(&bytes) {
            Ok(view) => {
                let msg = view.to_message();
                prop_assert_eq!(msg.wire_bytes(), bytes.clone());
                prop_assert_eq!(view.circuit(), msg.circuit());
            }
            Err(e) => prop_assert!(
                matches!(
                    e,
                    DecodeError::Truncated { .. }
                        | DecodeError::BadTag { .. }
                        | DecodeError::TrailingBytes { .. }
                ),
                "header-valid frame failed at the header: {:?}", e
            ),
        }
    }

    /// Damaged frames: one byte of a valid frame overwritten with an
    /// arbitrary value. What the view accepts re-encodes to the damaged
    /// bytes (an unchanged frame is always accepted), a damaged version
    /// byte fails as `BadVersion` and a kind byte outside the data
    /// plane as `UnknownKind`.
    #[test]
    fn view_decode_equivalent_on_damaged_frames(
        msg in arb_message(),
        at in any::<u16>(),
        value in any::<u8>(),
    ) {
        let mut bytes = msg.wire_bytes();
        let i = (at as usize) % bytes.len();
        let unchanged = bytes[i] == value;
        bytes[i] = value;
        match decode(&bytes) {
            Ok(m) => prop_assert_eq!(m.wire_bytes(), bytes),
            Err(e) => {
                prop_assert!(!unchanged, "intact frame rejected: {:?}", e);
                if i == 0 {
                    prop_assert_eq!(e, DecodeError::BadVersion(value));
                } else if i == 1 && !(1..=5).contains(&value) {
                    prop_assert_eq!(e, DecodeError::UnknownKind(value));
                }
            }
        }
    }
}
