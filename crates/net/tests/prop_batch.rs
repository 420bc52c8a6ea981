//! Fuzz the BATCH transport frame: exact round-trips of arbitrary inner
//! frames, total decoding on arbitrary/corrupted/truncated envelopes,
//! and agreement of the parse path (`BatchView`, the one batch decoder)
//! with the build path (`batch_begin`/`batch_append`, the spec) —
//! including batches whose inner length prefixes were corrupted in
//! flight.

use proptest::collection::vec;
use proptest::prelude::*;
use qn_net::wire::{batch_append, batch_begin, BatchView, DecodeError, MessageView};
use qn_net::Message;

fn build_batch<F: AsRef<[u8]>>(frames: &[F]) -> Vec<u8> {
    let mut buf = Vec::new();
    batch_begin(&mut buf);
    for f in frames {
        batch_append(&mut buf, f.as_ref());
    }
    buf
}

/// The parse and build paths agree on one input: whatever `BatchView`
/// accepts has `count` frames and rebuilds to exactly the same bytes;
/// anything else is a typed, displayable error.
fn assert_paths_agree(bytes: &[u8]) -> Result<(), TestCaseError> {
    match BatchView::parse(bytes) {
        Ok(view) => {
            let frames: Vec<&[u8]> = view.frames().collect();
            prop_assert_eq!(frames.len(), view.count() as usize);
            prop_assert_eq!(build_batch(&frames), bytes.to_vec());
        }
        Err(e) => {
            let _ = format!("{e}");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary inner frames (opaque byte strings at this layer) round
    /// trip exactly, in append order.
    #[test]
    fn batch_round_trips_arbitrary_frames(frames in vec(vec(any::<u8>(), 0..40), 0..12)) {
        let buf = build_batch(&frames);
        let view = BatchView::parse(&buf);
        prop_assert!(view.is_ok(), "parse failed: {:?}", view.err());
        let view = view.unwrap();
        prop_assert_eq!(view.count() as usize, frames.len());
        let got: Vec<&[u8]> = view.frames().collect();
        prop_assert_eq!(got, frames.iter().map(Vec::as_slice).collect::<Vec<_>>());
    }

    /// Envelope decoding is total on arbitrary bytes, and the parse
    /// and build paths agree everywhere.
    #[test]
    fn batch_decode_total_and_paths_agree(bytes in vec(any::<u8>(), 0..160)) {
        assert_paths_agree(&bytes)?;
    }

    /// A single flipped bit anywhere in a valid batch — header, count,
    /// an inner *length prefix*, or an inner frame — never panics the
    /// parse, and whatever it accepts rebuilds to the same bytes.
    #[test]
    fn corrupted_batches_keep_paths_equivalent(
        frames in vec(vec(any::<u8>(), 0..24), 1..8),
        flip in any::<u32>(),
    ) {
        let mut buf = build_batch(&frames);
        let bit = (flip as usize) % (buf.len() * 8);
        buf[bit / 8] ^= 1 << (bit % 8);
        assert_paths_agree(&buf)?;
    }

    /// Every strict prefix of a valid batch fails identically: with
    /// `Truncated`, at an offset inside the prefix.
    #[test]
    fn truncated_batches_error_identically(
        frames in vec(vec(any::<u8>(), 0..24), 1..8),
        cut in any::<u16>(),
    ) {
        let buf = build_batch(&frames);
        let len = (cut as usize) % buf.len();
        let err = BatchView::parse(&buf[..len]).map(|v| v.count()).unwrap_err();
        prop_assert!(
            matches!(err, DecodeError::Truncated { at } if at <= len),
            "prefix {} gave {:?}", len, err
        );
    }

    /// End to end through the data plane: a batch of encoded messages
    /// drains through `MessageView` to exactly the owned messages that
    /// were encoded, in order.
    #[test]
    fn batched_messages_view_decode_like_owned(circuits in vec(any::<u64>(), 1..8)) {
        let msgs: Vec<Message> = circuits
            .iter()
            .map(|&c| Message::Expire(qn_net::Expire {
                circuit: qn_net::CircuitId(c),
                origin: qn_net::Correlator {
                    node_a: qn_sim::NodeId(0),
                    node_b: qn_sim::NodeId(1),
                    seq: c,
                },
            }))
            .collect();
        let frames: Vec<Vec<u8>> = msgs.iter().map(Message::wire_bytes).collect();
        let buf = build_batch(&frames);
        let view = BatchView::parse(&buf).unwrap();
        let drained: Vec<Message> = view
            .frames()
            .map(|f| MessageView::parse(f).unwrap().to_message())
            .collect();
        prop_assert_eq!(drained, msgs);
    }
}
