//! Wire format of the routing signalling plane.
//!
//! The signalling protocol (§3.3, RSVP-TE style) installs and tears down
//! virtual circuits by messaging every node on the path. This module
//! pins the byte representation of those per-node messages on top of
//! the shared codec primitives of [`qn_net::wire`], in the same
//! versioned kind-byte registry (`0x20..=0x23`): a corrupted kind byte
//! cannot cross-decode a signalling frame as a data-plane message or
//! vice versa. The two acks exist for runtimes that carry signalling
//! over a lossy plane and retransmit unacknowledged hops.
//!
//! With signalling on the wire the runtime carries every install and
//! teardown through this codec (see `qn_netsim::runtime`), so the bytes
//! — not the Rust structs — are the authoritative interface there,
//! exactly as for FORWARD/TRACK.
//!
//! One decoder per frame kind: [`SignalMessage::decode`] walks the frame
//! once through the shared field codecs. Signalling frames are rare (a
//! few per circuit install or teardown) and every receiver materialises
//! the message at once, so unlike the data plane (`qn_net::MessageView`,
//! about 2x cheaper per frame than a cursor walk) they gain nothing from
//! a borrowed view.

use qn_net::ids::CircuitId;
use qn_net::routing_table::RoutingEntry;
use qn_net::wire::{
    put_header, read_header, DecodeError, Wire, WireReader, WireWriter, KIND_SIGNAL_INSTALL,
    KIND_SIGNAL_INSTALL_ACK, KIND_SIGNAL_TEARDOWN, KIND_SIGNAL_TEARDOWN_ACK,
};

/// A routing-signalling message to one node on a circuit's path.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum SignalMessage {
    /// Install the circuit's routing entry at the receiving node.
    Install {
        /// The entry to install.
        entry: RoutingEntry,
    },
    /// Remove the circuit at the receiving node.
    Teardown {
        /// The circuit to remove.
        circuit: CircuitId,
    },
    /// Hop-by-hop acknowledgement of an INSTALL, sent back to the node
    /// the INSTALL came from. Installed (or already-installed) nodes
    /// always re-ack, so a lost ack is recovered by the retransmission.
    InstallAck {
        /// The acknowledged circuit.
        circuit: CircuitId,
    },
    /// Hop-by-hop acknowledgement of a TEARDOWN.
    TeardownAck {
        /// The acknowledged circuit.
        circuit: CircuitId,
    },
}

impl SignalMessage {
    /// Append this message's complete frame (header + payload) to `buf`.
    pub fn encode_to(&self, buf: &mut Vec<u8>) {
        let mut w = WireWriter::new(buf);
        match self {
            SignalMessage::Install { entry } => {
                put_header(&mut w, KIND_SIGNAL_INSTALL);
                entry.encode(&mut w);
            }
            SignalMessage::Teardown { circuit } => {
                put_header(&mut w, KIND_SIGNAL_TEARDOWN);
                circuit.encode(&mut w);
            }
            SignalMessage::InstallAck { circuit } => {
                put_header(&mut w, KIND_SIGNAL_INSTALL_ACK);
                circuit.encode(&mut w);
            }
            SignalMessage::TeardownAck { circuit } => {
                put_header(&mut w, KIND_SIGNAL_TEARDOWN_ACK);
                circuit.encode(&mut w);
            }
        }
    }

    /// This message's complete wire frame.
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        self.encode_to(&mut buf);
        buf
    }

    /// Decode a complete frame — the signalling plane's one decoder
    /// (total; typed errors; rejects data-plane and link-layer kind bytes
    /// as [`DecodeError::UnknownKind`]).
    pub fn decode(bytes: &[u8]) -> Result<SignalMessage, DecodeError> {
        let mut r = WireReader::new(bytes);
        let msg = match read_header(&mut r)? {
            KIND_SIGNAL_INSTALL => SignalMessage::Install {
                entry: Wire::decode(&mut r)?,
            },
            KIND_SIGNAL_TEARDOWN => SignalMessage::Teardown {
                circuit: Wire::decode(&mut r)?,
            },
            KIND_SIGNAL_INSTALL_ACK => SignalMessage::InstallAck {
                circuit: Wire::decode(&mut r)?,
            },
            KIND_SIGNAL_TEARDOWN_ACK => SignalMessage::TeardownAck {
                circuit: Wire::decode(&mut r)?,
            },
            kind => return Err(DecodeError::UnknownKind(kind)),
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_link::LinkLabel;
    use qn_net::routing_table::{DownstreamHop, UpstreamHop};
    use qn_sim::{NodeId, SimDuration};

    fn entry() -> RoutingEntry {
        RoutingEntry {
            circuit: CircuitId(5),
            upstream: Some(UpstreamHop {
                node: NodeId(1),
                label: LinkLabel(9),
            }),
            downstream: Some(DownstreamHop {
                node: NodeId(3),
                label: LinkLabel(2),
                min_fidelity: 0.93,
                max_lpr: 41.5,
            }),
            max_eer: 10.25,
            cutoff: SimDuration::from_millis(120),
        }
    }

    #[test]
    fn install_round_trip() {
        for e in [
            entry(),
            RoutingEntry {
                upstream: None,
                cutoff: SimDuration::MAX,
                ..entry()
            },
            RoutingEntry {
                downstream: None,
                ..entry()
            },
        ] {
            let m = SignalMessage::Install { entry: e };
            assert_eq!(SignalMessage::decode(&m.wire_bytes()), Ok(m));
        }
    }

    #[test]
    fn install_bit_flips_are_rejected_or_canonical() {
        // Each single-bit corruption either fails with a typed error or
        // decodes to a message that re-encodes to exactly the corrupted
        // bytes: no tag check can be skipped.
        for entry in [
            entry(),
            RoutingEntry {
                upstream: None,
                downstream: None,
                ..entry()
            },
        ] {
            let bytes = SignalMessage::Install { entry }.wire_bytes();
            for bit in 0..bytes.len() * 8 {
                let mut bad = bytes.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                if let Ok(m) = SignalMessage::decode(&bad) {
                    assert_eq!(m.wire_bytes(), bad, "bit {bit} of {entry:?}");
                }
            }
        }
    }

    #[test]
    fn teardown_round_trip_and_framing() {
        let circuit = CircuitId(77);
        for m in [
            SignalMessage::Teardown { circuit },
            SignalMessage::InstallAck { circuit },
            SignalMessage::TeardownAck { circuit },
            SignalMessage::Install { entry: entry() },
        ] {
            let bytes = m.wire_bytes();
            assert_eq!(SignalMessage::decode(&bytes), Ok(m));
            // Every strict prefix is a typed truncation, never a panic.
            for len in 0..bytes.len() {
                let err = SignalMessage::decode(&bytes[..len]).unwrap_err();
                assert!(
                    matches!(err, DecodeError::Truncated { at } if at <= len),
                    "prefix of {len} bytes of {m:?} gave {err:?}"
                );
            }
        }
        // A data-plane frame is a foreign kind for this plane.
        let fwd = qn_net::Message::Expire(qn_net::Expire {
            circuit: CircuitId(1),
            origin: qn_net::Correlator {
                node_a: NodeId(0),
                node_b: NodeId(1),
                seq: 0,
            },
        })
        .wire_bytes();
        assert!(matches!(
            SignalMessage::decode(&fwd),
            Err(DecodeError::UnknownKind(_))
        ));
    }
}
