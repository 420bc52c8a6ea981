//! The QNP signalling wire format — a hand-rolled, versioned binary
//! codec for every message that crosses a classical channel.
//!
//! The paper specifies the protocol in terms of its messages (Appendix
//! C.2); this module pins their byte-level representation so the
//! simulated classical plane can transport *bytes* (and corrupt, drop,
//! duplicate or reorder them) instead of passing Rust values by magic.
//!
//! ## Frame layout
//!
//! Every frame starts with a fixed two-byte header:
//!
//! ```text
//! +---------+---------+----------------------+
//! | version |  kind   |  payload (fixed by   |
//! |  (u8)   |  (u8)   |  kind, little-endian)|
//! +---------+---------+----------------------+
//! ```
//!
//! One kind-byte registry covers all three signalling planes, so a
//! corrupted kind byte can never cross decode into the wrong plane:
//!
//! | range | plane | kinds |
//! |---|---|---|
//! | `0x01..=0x05` | QNP data plane ([`Message`]) | FORWARD, COMPLETE, TRACK, EXPIRE, TRACK_ACK |
//! | `0x10..=0x12` | link layer lifecycle ([`LinkEvent`]) | PAIR_READY, REQUEST_DONE, REJECTED |
//! | `0x20..=0x23` | routing signalling (`qn_routing::wire`) | INSTALL, TEARDOWN, INSTALL_ACK, TEARDOWN_ACK |
//! | `0x30` | transport framing | BATCH (coalesced length-prefixed frames) |
//!
//! ## One decoder per frame kind
//!
//! Each frame kind has exactly one decoder, and the encoder is the
//! specification it is tested against:
//!
//! * data-plane frames: [`MessageView::parse`], a borrowed view that
//!   validates the full layout up front and reads fields straight out
//!   of the bytes; `to_message()` materialises the owned [`Message`].
//!   Even when it materialises, the view is about 2x cheaper than a
//!   cursor walk through the field codecs (26 vs 57 ns per frame on the
//!   19-frame message mix of the `micro` bench, 2-vCPU Xeon), so the
//!   data plane keeps it and has no second decoder;
//! * link-layer frames: [`decode_link_event`];
//! * routing-signalling frames: `qn_routing::wire::SignalMessage::decode`;
//! * BATCH frames: [`BatchView::parse`].
//!
//! The classical plane coalesces frames headed to the same `(hop, lane,
//! delivery tick)` into a BATCH frame — header, `count: u32`, then
//! `count` length-prefixed inner frames — built with
//! [`batch_begin`]/[`batch_append`]. The encode side reuses a per-plane
//! [`ScratchEncoder`] instead of allocating a fresh `Vec` per frame.
//!
//! ## Guarantees
//!
//! * **Exact round-trip**: decoding `encode(m)` yields `m`, including
//!   `f64` fields (encoded as IEEE-754 bit patterns, so NaN payloads and
//!   signed zeros survive byte-for-byte).
//! * **Canonical encoding**: whatever a decoder accepts re-encodes to
//!   the same bytes.
//! * **Total decoding**: no decoder panics, whatever the input bytes —
//!   every failure is a typed [`DecodeError`]. The property suites in
//!   `crates/net/tests/prop_wire.rs` and `prop_batch.rs` fuzz this on
//!   arbitrary, truncated and bit-flipped inputs.
//! * **Exact consumption**: a top-level decode rejects trailing bytes
//!   ([`DecodeError::TrailingBytes`]), so frames cannot silently smuggle
//!   extra payload.

use crate::ids::{CircuitId, Epoch, RequestId};
use crate::messages::{Complete, Expire, Forward, Message, Track, TrackAck};
use crate::request::RequestType;
use crate::routing_table::{DownstreamHop, RoutingEntry, UpstreamHop};
use qn_link::{EntanglementId, LinkEvent, LinkLabel, LinkPair, RejectReason};
use qn_quantum::bell::BellState;
use qn_quantum::gates::Pauli;
use qn_sim::NodeId;
use qn_sim::SimDuration;
use std::fmt;

/// Wire format version; bumped on any incompatible layout change.
pub const WIRE_VERSION: u8 = 1;

/// Kind byte of a FORWARD frame.
pub const KIND_FORWARD: u8 = 0x01;
/// Kind byte of a COMPLETE frame.
pub const KIND_COMPLETE: u8 = 0x02;
/// Kind byte of a TRACK frame.
pub const KIND_TRACK: u8 = 0x03;
/// Kind byte of an EXPIRE frame.
pub const KIND_EXPIRE: u8 = 0x04;
/// Kind byte of a TRACK_ACK frame (retransmitting runtimes only).
pub const KIND_TRACK_ACK: u8 = 0x05;
/// Kind byte of a link-layer PAIR_READY frame.
pub const KIND_LINK_PAIR_READY: u8 = 0x10;
/// Kind byte of a link-layer REQUEST_DONE frame.
pub const KIND_LINK_REQUEST_DONE: u8 = 0x11;
/// Kind byte of a link-layer REJECTED frame.
pub const KIND_LINK_REJECTED: u8 = 0x12;
/// Kind byte of a routing-signalling INSTALL frame (`qn_routing::wire`).
pub const KIND_SIGNAL_INSTALL: u8 = 0x20;
/// Kind byte of a routing-signalling TEARDOWN frame (`qn_routing::wire`).
pub const KIND_SIGNAL_TEARDOWN: u8 = 0x21;
/// Kind byte of a routing-signalling INSTALL_ACK frame (`qn_routing::wire`).
pub const KIND_SIGNAL_INSTALL_ACK: u8 = 0x22;
/// Kind byte of a routing-signalling TEARDOWN_ACK frame (`qn_routing::wire`).
pub const KIND_SIGNAL_TEARDOWN_ACK: u8 = 0x23;
/// Kind byte of a transport BATCH frame (coalesced inner frames).
pub const KIND_BATCH: u8 = 0x30;

/// A typed decoding failure. Decoding is *total*: arbitrary input bytes
/// produce one of these, never a panic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// The input ended before the field at byte offset `at` could be
    /// read in full.
    Truncated {
        /// Byte offset at which more input was needed.
        at: usize,
    },
    /// The version byte does not match [`WIRE_VERSION`].
    BadVersion(u8),
    /// The kind byte is not assigned (or belongs to a different
    /// signalling plane than the one being decoded).
    UnknownKind(u8),
    /// A tag byte held a value outside its enum's range.
    BadTag {
        /// The field whose tag was invalid.
        field: &'static str,
        /// The offending byte.
        value: u8,
    },
    /// The frame decoded successfully but input bytes remain.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { at } => write!(f, "input truncated at byte {at}"),
            DecodeError::BadVersion(v) => {
                write!(f, "unsupported wire version {v} (expected {WIRE_VERSION})")
            }
            DecodeError::UnknownKind(k) => write!(f, "unknown message kind byte {k:#04x}"),
            DecodeError::BadTag { field, value } => {
                write!(f, "invalid tag byte {value:#04x} for field `{field}`")
            }
            DecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after a complete frame")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------
// Low-level primitives
// ---------------------------------------------------------------------

/// Append-only encoder over a byte buffer. All integers are
/// little-endian.
pub struct WireWriter<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> WireWriter<'a> {
    /// Write into `buf` (appending).
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        WireWriter { buf }
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (exact, including
    /// NaN payloads).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append an option: tag byte `0`/`1`, then the value if present.
    pub fn put_opt<T>(&mut self, v: &Option<T>, f: impl FnOnce(&mut Self, &T)) {
        match v {
            None => self.put_u8(0),
            Some(x) => {
                self.put_u8(1);
                f(self, x);
            }
        }
    }
}

/// Cursor-based decoder over a byte slice. Every read is total; failures
/// are reported as [`DecodeError`] with the byte offset.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Unconsumed bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless the whole input was consumed.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes {
                extra: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated { at: self.pos });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Advance past `n` bytes without reading them.
    pub fn skip(&mut self, n: usize) -> Result<(), DecodeError> {
        self.take(n).map(|_| ())
    }

    /// Advance past a run of fixed-size fields with one fused bounds
    /// check. On truncation the reported offset is the start of the
    /// *first field that does not fit* — identical to reading the fields
    /// one by one.
    pub fn skip_fields(&mut self, sizes: &[usize]) -> Result<(), DecodeError> {
        let total: usize = sizes.iter().sum();
        if self.remaining() >= total {
            self.pos += total;
            return Ok(());
        }
        for &n in sizes {
            self.skip(n)?;
        }
        unreachable!("skip_fields: slow path must have failed");
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    /// Read an `f64` from its bit pattern (total: every bit pattern is a
    /// valid `f64`).
    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read an option written by [`WireWriter::put_opt`].
    pub fn get_opt<T>(
        &mut self,
        field: &'static str,
        f: impl FnOnce(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            value => Err(DecodeError::BadTag { field, value }),
        }
    }
}

// ---------------------------------------------------------------------
// Field codecs shared by the three planes
// ---------------------------------------------------------------------

/// A type with a fixed wire representation.
pub trait Wire: Sized {
    /// Append this value's encoding.
    fn encode(&self, w: &mut WireWriter<'_>);
    /// Decode one value from the cursor.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError>;
}

impl Wire for CircuitId {
    fn encode(&self, w: &mut WireWriter<'_>) {
        w.put_u64(self.0);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(CircuitId(r.get_u64()?))
    }
}

impl Wire for NodeId {
    fn encode(&self, w: &mut WireWriter<'_>) {
        w.put_u32(self.0);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(NodeId(r.get_u32()?))
    }
}

impl Wire for LinkLabel {
    fn encode(&self, w: &mut WireWriter<'_>) {
        w.put_u32(self.0);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(LinkLabel(r.get_u32()?))
    }
}

impl Wire for EntanglementId {
    fn encode(&self, w: &mut WireWriter<'_>) {
        self.node_a.encode(w);
        self.node_b.encode(w);
        w.put_u64(self.seq);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(EntanglementId {
            node_a: NodeId::decode(r)?,
            node_b: NodeId::decode(r)?,
            seq: r.get_u64()?,
        })
    }
}

impl Wire for BellState {
    fn encode(&self, w: &mut WireWriter<'_>) {
        w.put_u8(self.index() as u8);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            idx @ 0..=3 => Ok(BellState::from_index(idx as usize)),
            value => Err(DecodeError::BadTag {
                field: "bell_state",
                value,
            }),
        }
    }
}

impl Wire for RejectReason {
    fn encode(&self, w: &mut WireWriter<'_>) {
        w.put_u8(match self {
            RejectReason::FidelityUnattainable => 0,
            RejectReason::DuplicateLabel => 1,
            RejectReason::InvalidWeight => 2,
            RejectReason::LinkDown => 3,
        });
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(RejectReason::FidelityUnattainable),
            1 => Ok(RejectReason::DuplicateLabel),
            2 => Ok(RejectReason::InvalidWeight),
            3 => Ok(RejectReason::LinkDown),
            value => Err(DecodeError::BadTag {
                field: "reject_reason",
                value,
            }),
        }
    }
}

impl Wire for LinkPair {
    fn encode(&self, w: &mut WireWriter<'_>) {
        self.id.encode(w);
        self.label.encode(w);
        self.announced.encode(w);
        w.put_f64(self.alpha);
        w.put_f64(self.goodness);
        w.put_u64(self.attempts);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(LinkPair {
            id: EntanglementId::decode(r)?,
            label: LinkLabel::decode(r)?,
            announced: BellState::decode(r)?,
            alpha: r.get_f64()?,
            goodness: r.get_f64()?,
            attempts: r.get_u64()?,
        })
    }
}

impl Wire for UpstreamHop {
    fn encode(&self, w: &mut WireWriter<'_>) {
        self.node.encode(w);
        self.label.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(UpstreamHop {
            node: NodeId::decode(r)?,
            label: LinkLabel::decode(r)?,
        })
    }
}

impl Wire for DownstreamHop {
    fn encode(&self, w: &mut WireWriter<'_>) {
        self.node.encode(w);
        self.label.encode(w);
        w.put_f64(self.min_fidelity);
        w.put_f64(self.max_lpr);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(DownstreamHop {
            node: NodeId::decode(r)?,
            label: LinkLabel::decode(r)?,
            min_fidelity: r.get_f64()?,
            max_lpr: r.get_f64()?,
        })
    }
}

impl Wire for RoutingEntry {
    fn encode(&self, w: &mut WireWriter<'_>) {
        self.circuit.encode(w);
        w.put_opt(&self.upstream, |w, h| h.encode(w));
        w.put_opt(&self.downstream, |w, h| h.encode(w));
        w.put_f64(self.max_eer);
        // Cutoffs are picosecond ticks; `SimDuration::MAX` (= "no
        // cutoff", the Fig 10 oracle baseline) round-trips exactly.
        w.put_u64(self.cutoff.as_ps());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(RoutingEntry {
            circuit: CircuitId::decode(r)?,
            upstream: r.get_opt("upstream", UpstreamHop::decode)?,
            downstream: r.get_opt("downstream", DownstreamHop::decode)?,
            max_eer: r.get_f64()?,
            cutoff: SimDuration::from_ps(r.get_u64()?),
        })
    }
}

// ---------------------------------------------------------------------
// Frame helpers
// ---------------------------------------------------------------------

/// Append the two-byte frame header (version + kind).
pub fn put_header(w: &mut WireWriter<'_>, kind: u8) {
    w.put_u8(WIRE_VERSION);
    w.put_u8(kind);
}

/// Read and check the version byte, then return the kind byte.
pub fn read_header(r: &mut WireReader<'_>) -> Result<u8, DecodeError> {
    let version = r.get_u8()?;
    if version != WIRE_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    r.get_u8()
}

// ---------------------------------------------------------------------
// QNP data-plane messages
// ---------------------------------------------------------------------

fn encode_forward(m: &Forward, w: &mut WireWriter<'_>) {
    m.circuit.encode(w);
    w.put_u64(m.request.0);
    w.put_u32(m.head_identifier);
    w.put_u32(m.tail_identifier);
    match m.request_type {
        RequestType::Keep => w.put_u8(0),
        RequestType::Early => w.put_u8(1),
        RequestType::Measure(basis) => {
            w.put_u8(2);
            w.put_u8(match basis {
                Pauli::I => 0,
                Pauli::X => 1,
                Pauli::Y => 2,
                Pauli::Z => 3,
            });
        }
    }
    w.put_opt(&m.number_of_pairs, |w, n| w.put_u64(*n));
    w.put_opt(&m.final_state, |w, s| s.encode(w));
    w.put_f64(m.rate);
}

fn encode_complete(m: &Complete, w: &mut WireWriter<'_>) {
    m.circuit.encode(w);
    w.put_u64(m.request.0);
    w.put_u32(m.head_identifier);
    w.put_u32(m.tail_identifier);
    w.put_f64(m.rate);
}

fn encode_track(m: &Track, w: &mut WireWriter<'_>) {
    m.circuit.encode(w);
    w.put_u64(m.request.0);
    w.put_u32(m.head_identifier);
    w.put_u32(m.tail_identifier);
    m.origin.encode(w);
    m.link.encode(w);
    m.outcome_state.encode(w);
    w.put_opt(&m.epoch, |w, e| w.put_u64(e.0));
}

fn encode_expire(m: &Expire, w: &mut WireWriter<'_>) {
    m.circuit.encode(w);
    m.origin.encode(w);
}

fn encode_track_ack(m: &TrackAck, w: &mut WireWriter<'_>) {
    m.circuit.encode(w);
    m.origin.encode(w);
}

impl Message {
    /// Append this message's complete frame (header + payload) to `buf`.
    pub fn encode_to(&self, buf: &mut Vec<u8>) {
        let mut w = WireWriter::new(buf);
        match self {
            Message::Forward(m) => {
                put_header(&mut w, KIND_FORWARD);
                encode_forward(m, &mut w);
            }
            Message::Complete(m) => {
                put_header(&mut w, KIND_COMPLETE);
                encode_complete(m, &mut w);
            }
            Message::Track(m) => {
                put_header(&mut w, KIND_TRACK);
                encode_track(m, &mut w);
            }
            Message::Expire(m) => {
                put_header(&mut w, KIND_EXPIRE);
                encode_expire(m, &mut w);
            }
            Message::TrackAck(m) => {
                put_header(&mut w, KIND_TRACK_ACK);
                encode_track_ack(m, &mut w);
            }
        }
    }

    /// This message's complete wire frame.
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        self.encode_to(&mut buf);
        buf
    }
}

// ---------------------------------------------------------------------
// Link-layer lifecycle events
// ---------------------------------------------------------------------

/// Encode a link-layer lifecycle event as a complete frame.
pub fn encode_link_event(ev: &LinkEvent, buf: &mut Vec<u8>) {
    let mut w = WireWriter::new(buf);
    match ev {
        LinkEvent::PairReady(pair) => {
            put_header(&mut w, KIND_LINK_PAIR_READY);
            pair.encode(&mut w);
        }
        LinkEvent::RequestDone(label) => {
            put_header(&mut w, KIND_LINK_REQUEST_DONE);
            label.encode(&mut w);
        }
        LinkEvent::Rejected(label, reason) => {
            put_header(&mut w, KIND_LINK_REJECTED);
            label.encode(&mut w);
            reason.encode(&mut w);
        }
    }
}

/// Decode a link-layer lifecycle event frame (total; typed errors).
pub fn decode_link_event(bytes: &[u8]) -> Result<LinkEvent, DecodeError> {
    let mut r = WireReader::new(bytes);
    let ev = match read_header(&mut r)? {
        KIND_LINK_PAIR_READY => LinkEvent::PairReady(LinkPair::decode(&mut r)?),
        KIND_LINK_REQUEST_DONE => LinkEvent::RequestDone(LinkLabel::decode(&mut r)?),
        KIND_LINK_REJECTED => {
            LinkEvent::Rejected(LinkLabel::decode(&mut r)?, RejectReason::decode(&mut r)?)
        }
        kind => return Err(DecodeError::UnknownKind(kind)),
    };
    r.finish()?;
    Ok(ev)
}

// ---------------------------------------------------------------------
// Zero-copy message views
// ---------------------------------------------------------------------
//
// The data plane's only decoder. A view validates the complete frame
// layout once (typed `DecodeError`s with the byte offset of the first
// field that does not fit) and then reads fields straight out of the
// borrowed bytes; `to_message` materialises the owned `Message`.

#[inline]
fn le_u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("validated at parse"))
}

#[inline]
fn le_u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("validated at parse"))
}

#[inline]
fn pauli_at(b: &[u8], at: usize) -> Pauli {
    match b[at] {
        0 => Pauli::I,
        1 => Pauli::X,
        2 => Pauli::Y,
        3 => Pauli::Z,
        _ => unreachable!("validated at parse"),
    }
}

/// Borrowed view of a FORWARD frame. Field offsets past the variable
/// tail (`request_type` may carry a basis; two option fields) are
/// recorded at parse time; every accessor is total.
#[derive(Clone, Copy, Debug)]
pub struct ForwardView<'a> {
    frame: &'a [u8],
    number_of_pairs_at: usize,
    final_state_at: usize,
    rate_at: usize,
}

impl<'a> ForwardView<'a> {
    fn parse_payload(frame: &'a [u8], r: &mut WireReader<'a>) -> Result<Self, DecodeError> {
        r.skip_fields(&[8, 8, 4, 4])?;
        match r.get_u8()? {
            0 | 1 => {}
            2 => match r.get_u8()? {
                0..=3 => {}
                value => {
                    return Err(DecodeError::BadTag {
                        field: "pauli",
                        value,
                    })
                }
            },
            value => {
                return Err(DecodeError::BadTag {
                    field: "request_type",
                    value,
                })
            }
        }
        let number_of_pairs_at = r.position();
        match r.get_u8()? {
            0 => {}
            1 => r.skip(8)?,
            value => {
                return Err(DecodeError::BadTag {
                    field: "number_of_pairs",
                    value,
                })
            }
        }
        let final_state_at = r.position();
        match r.get_u8()? {
            0 => {}
            1 => match r.get_u8()? {
                0..=3 => {}
                value => {
                    return Err(DecodeError::BadTag {
                        field: "bell_state",
                        value,
                    })
                }
            },
            value => {
                return Err(DecodeError::BadTag {
                    field: "final_state",
                    value,
                })
            }
        }
        let rate_at = r.position();
        r.skip(8)?;
        Ok(ForwardView {
            frame,
            number_of_pairs_at,
            final_state_at,
            rate_at,
        })
    }

    /// The circuit this message belongs to.
    pub fn circuit(&self) -> CircuitId {
        CircuitId(le_u64_at(self.frame, 2))
    }

    /// The request being forwarded.
    pub fn request(&self) -> RequestId {
        RequestId(le_u64_at(self.frame, 10))
    }

    /// Head-end identifier.
    pub fn head_identifier(&self) -> u32 {
        le_u32_at(self.frame, 18)
    }

    /// Tail-end identifier.
    pub fn tail_identifier(&self) -> u32 {
        le_u32_at(self.frame, 22)
    }

    /// The requested delivery mode.
    pub fn request_type(&self) -> RequestType {
        match self.frame[26] {
            0 => RequestType::Keep,
            1 => RequestType::Early,
            2 => RequestType::Measure(pauli_at(self.frame, 27)),
            _ => unreachable!("validated at parse"),
        }
    }

    /// Requested pair count, if bounded.
    pub fn number_of_pairs(&self) -> Option<u64> {
        match self.frame[self.number_of_pairs_at] {
            0 => None,
            _ => Some(le_u64_at(self.frame, self.number_of_pairs_at + 1)),
        }
    }

    /// Requested final Bell state, if pinned.
    pub fn final_state(&self) -> Option<BellState> {
        match self.frame[self.final_state_at] {
            0 => None,
            _ => Some(BellState::from_index(
                self.frame[self.final_state_at + 1] as usize,
            )),
        }
    }

    /// Requested pair rate.
    pub fn rate(&self) -> f64 {
        f64::from_bits(le_u64_at(self.frame, self.rate_at))
    }

    /// Materialise the owned message.
    pub fn to_forward(&self) -> Forward {
        Forward {
            circuit: self.circuit(),
            request: self.request(),
            head_identifier: self.head_identifier(),
            tail_identifier: self.tail_identifier(),
            request_type: self.request_type(),
            number_of_pairs: self.number_of_pairs(),
            final_state: self.final_state(),
            rate: self.rate(),
        }
    }
}

/// Borrowed view of a COMPLETE frame (fixed 32-byte payload).
#[derive(Clone, Copy, Debug)]
pub struct CompleteView<'a> {
    frame: &'a [u8],
}

impl<'a> CompleteView<'a> {
    fn parse_payload(frame: &'a [u8], r: &mut WireReader<'a>) -> Result<Self, DecodeError> {
        r.skip_fields(&[8, 8, 4, 4, 8])?;
        Ok(CompleteView { frame })
    }

    /// The circuit this message belongs to.
    pub fn circuit(&self) -> CircuitId {
        CircuitId(le_u64_at(self.frame, 2))
    }

    /// The completed request.
    pub fn request(&self) -> RequestId {
        RequestId(le_u64_at(self.frame, 10))
    }

    /// Head-end identifier.
    pub fn head_identifier(&self) -> u32 {
        le_u32_at(self.frame, 18)
    }

    /// Tail-end identifier.
    pub fn tail_identifier(&self) -> u32 {
        le_u32_at(self.frame, 22)
    }

    /// Delivered pair rate.
    pub fn rate(&self) -> f64 {
        f64::from_bits(le_u64_at(self.frame, 26))
    }

    /// Materialise the owned message.
    pub fn to_complete(&self) -> Complete {
        Complete {
            circuit: self.circuit(),
            request: self.request(),
            head_identifier: self.head_identifier(),
            tail_identifier: self.tail_identifier(),
            rate: self.rate(),
        }
    }
}

/// Borrowed view of a TRACK frame.
#[derive(Clone, Copy, Debug)]
pub struct TrackView<'a> {
    frame: &'a [u8],
}

impl<'a> TrackView<'a> {
    fn parse_payload(frame: &'a [u8], r: &mut WireReader<'a>) -> Result<Self, DecodeError> {
        r.skip_fields(&[8, 8, 4, 4, 4, 4, 8, 4, 4, 8])?;
        match r.get_u8()? {
            0..=3 => {}
            value => {
                return Err(DecodeError::BadTag {
                    field: "bell_state",
                    value,
                })
            }
        }
        match r.get_u8()? {
            0 => {}
            1 => r.skip(8)?,
            value => {
                return Err(DecodeError::BadTag {
                    field: "epoch",
                    value,
                })
            }
        }
        Ok(TrackView { frame })
    }

    /// The circuit this message belongs to.
    pub fn circuit(&self) -> CircuitId {
        CircuitId(le_u64_at(self.frame, 2))
    }

    /// The tracked request.
    pub fn request(&self) -> RequestId {
        RequestId(le_u64_at(self.frame, 10))
    }

    /// Head-end identifier.
    pub fn head_identifier(&self) -> u32 {
        le_u32_at(self.frame, 18)
    }

    /// Tail-end identifier.
    pub fn tail_identifier(&self) -> u32 {
        le_u32_at(self.frame, 22)
    }

    /// Correlator of the origin pair being tracked.
    pub fn origin(&self) -> EntanglementId {
        EntanglementId {
            node_a: NodeId(le_u32_at(self.frame, 26)),
            node_b: NodeId(le_u32_at(self.frame, 30)),
            seq: le_u64_at(self.frame, 34),
        }
    }

    /// Correlator of the link pair consumed by the swap.
    pub fn link(&self) -> EntanglementId {
        EntanglementId {
            node_a: NodeId(le_u32_at(self.frame, 42)),
            node_b: NodeId(le_u32_at(self.frame, 46)),
            seq: le_u64_at(self.frame, 50),
        }
    }

    /// Bell state implied by the swap outcome.
    pub fn outcome_state(&self) -> BellState {
        BellState::from_index(self.frame[58] as usize)
    }

    /// Distillation epoch, if epochs are in use.
    pub fn epoch(&self) -> Option<Epoch> {
        match self.frame[59] {
            0 => None,
            _ => Some(Epoch(le_u64_at(self.frame, 60))),
        }
    }

    /// Materialise the owned message.
    pub fn to_track(&self) -> Track {
        Track {
            circuit: self.circuit(),
            request: self.request(),
            head_identifier: self.head_identifier(),
            tail_identifier: self.tail_identifier(),
            origin: self.origin(),
            link: self.link(),
            outcome_state: self.outcome_state(),
            epoch: self.epoch(),
        }
    }
}

/// Borrowed view of an EXPIRE frame (fixed 24-byte payload).
#[derive(Clone, Copy, Debug)]
pub struct ExpireView<'a> {
    frame: &'a [u8],
}

impl<'a> ExpireView<'a> {
    fn parse_payload(frame: &'a [u8], r: &mut WireReader<'a>) -> Result<Self, DecodeError> {
        r.skip_fields(&[8, 4, 4, 8])?;
        Ok(ExpireView { frame })
    }

    /// The circuit this message belongs to.
    pub fn circuit(&self) -> CircuitId {
        CircuitId(le_u64_at(self.frame, 2))
    }

    /// Correlator of the expired pair.
    pub fn origin(&self) -> EntanglementId {
        EntanglementId {
            node_a: NodeId(le_u32_at(self.frame, 10)),
            node_b: NodeId(le_u32_at(self.frame, 14)),
            seq: le_u64_at(self.frame, 18),
        }
    }

    /// Materialise the owned message.
    pub fn to_expire(&self) -> Expire {
        Expire {
            circuit: self.circuit(),
            origin: self.origin(),
        }
    }
}

/// Borrowed view of a TRACK_ACK frame (fixed 24-byte payload).
#[derive(Clone, Copy, Debug)]
pub struct TrackAckView<'a> {
    frame: &'a [u8],
}

impl<'a> TrackAckView<'a> {
    fn parse_payload(frame: &'a [u8], r: &mut WireReader<'a>) -> Result<Self, DecodeError> {
        r.skip_fields(&[8, 4, 4, 8])?;
        Ok(TrackAckView { frame })
    }

    /// The circuit this message belongs to.
    pub fn circuit(&self) -> CircuitId {
        CircuitId(le_u64_at(self.frame, 2))
    }

    /// Correlator of the acknowledged pair at the TRACK's origin.
    pub fn origin(&self) -> EntanglementId {
        EntanglementId {
            node_a: NodeId(le_u32_at(self.frame, 10)),
            node_b: NodeId(le_u32_at(self.frame, 14)),
            seq: le_u64_at(self.frame, 18),
        }
    }

    /// Materialise the owned message.
    pub fn to_track_ack(&self) -> TrackAck {
        TrackAck {
            circuit: self.circuit(),
            origin: self.origin(),
        }
    }
}

/// A borrowed, fully validated view of one data-plane frame — the one
/// decoder of the data plane.
///
/// `parse` is total: it accepts exactly the frames [`Message::encode_to`]
/// can produce, and anything else fails with a typed [`DecodeError`]
/// (a strict prefix of a valid frame with [`DecodeError::Truncated`]).
/// The property suite in `crates/net/tests/prop_wire.rs` pins every
/// accessor to the encoder on arbitrary, truncated and bit-flipped
/// inputs.
#[derive(Clone, Copy, Debug)]
pub enum MessageView<'a> {
    /// A FORWARD frame.
    Forward(ForwardView<'a>),
    /// A COMPLETE frame.
    Complete(CompleteView<'a>),
    /// A TRACK frame.
    Track(TrackView<'a>),
    /// An EXPIRE frame.
    Expire(ExpireView<'a>),
    /// A TRACK_ACK frame.
    TrackAck(TrackAckView<'a>),
}

impl<'a> MessageView<'a> {
    /// Validate a complete frame and borrow it as a view.
    pub fn parse(bytes: &'a [u8]) -> Result<MessageView<'a>, DecodeError> {
        let mut r = WireReader::new(bytes);
        let view = match read_header(&mut r)? {
            KIND_FORWARD => MessageView::Forward(ForwardView::parse_payload(bytes, &mut r)?),
            KIND_COMPLETE => MessageView::Complete(CompleteView::parse_payload(bytes, &mut r)?),
            KIND_TRACK => MessageView::Track(TrackView::parse_payload(bytes, &mut r)?),
            KIND_EXPIRE => MessageView::Expire(ExpireView::parse_payload(bytes, &mut r)?),
            KIND_TRACK_ACK => MessageView::TrackAck(TrackAckView::parse_payload(bytes, &mut r)?),
            kind => return Err(DecodeError::UnknownKind(kind)),
        };
        r.finish()?;
        Ok(view)
    }

    /// The circuit this frame belongs to — the demux key, read without
    /// materialising the message (every payload starts with it).
    pub fn circuit(&self) -> CircuitId {
        match self {
            MessageView::Forward(v) => v.circuit(),
            MessageView::Complete(v) => v.circuit(),
            MessageView::Track(v) => v.circuit(),
            MessageView::Expire(v) => v.circuit(),
            MessageView::TrackAck(v) => v.circuit(),
        }
    }

    /// Materialise the owned message (the one place the receive path
    /// copies out of the frame buffer).
    pub fn to_message(&self) -> Message {
        match self {
            MessageView::Forward(v) => Message::Forward(v.to_forward()),
            MessageView::Complete(v) => Message::Complete(v.to_complete()),
            MessageView::Track(v) => Message::Track(v.to_track()),
            MessageView::Expire(v) => Message::Expire(v.to_expire()),
            MessageView::TrackAck(v) => Message::TrackAck(v.to_track_ack()),
        }
    }
}

// ---------------------------------------------------------------------
// Batch frames (transport coalescing)
// ---------------------------------------------------------------------
//
// Layout: `version | KIND_BATCH | count: u32 | count × (len: u32 | frame)`.
// The classical plane coalesces frames crossing the same hop toward the
// same delivery tick into one batch, so the runtime schedules (and
// drains) one event per batch instead of one per message.

/// Start a BATCH frame in `buf` (clearing it): header plus a zero count.
pub fn batch_begin(buf: &mut Vec<u8>) {
    buf.clear();
    buf.push(WIRE_VERSION);
    buf.push(KIND_BATCH);
    buf.extend_from_slice(&0u32.to_le_bytes());
}

/// Append one length-prefixed inner frame to a batch started by
/// [`batch_begin`], bumping the count in place.
pub fn batch_append(buf: &mut Vec<u8>, frame: &[u8]) {
    debug_assert!(
        buf.len() >= 6 && buf[1] == KIND_BATCH,
        "batch_append on a buffer not started by batch_begin"
    );
    buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    buf.extend_from_slice(frame);
    let count = u32::from_le_bytes(buf[2..6].try_into().expect("4 bytes")) + 1;
    buf[2..6].copy_from_slice(&count.to_le_bytes());
}

/// Iterator over the inner frames of a validated [`BatchView`].
pub struct BatchFrames<'a> {
    rest: &'a [u8],
    remaining: u32,
}

impl<'a> Iterator for BatchFrames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let len =
            u32::from_le_bytes(self.rest[..4].try_into().expect("validated at parse")) as usize;
        let frame = &self.rest[4..4 + len];
        self.rest = &self.rest[4 + len..];
        Some(frame)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for BatchFrames<'_> {}

/// A borrowed, eagerly validated view of a BATCH frame.
///
/// `parse` walks every length prefix up front (typed errors on a bad
/// header, a truncating inner length or trailing bytes), so [`frames`]
/// iterates infallibly afterwards. Inner frames are *opaque* byte
/// strings at this layer — a frame corrupted in flight still travels
/// inside a well-formed envelope and fails only its own decode.
///
/// [`frames`]: BatchView::frames
#[derive(Clone, Copy, Debug)]
pub struct BatchView<'a> {
    body: &'a [u8],
    count: u32,
}

impl<'a> BatchView<'a> {
    /// Validate a complete batch frame and borrow it as a view.
    pub fn parse(bytes: &'a [u8]) -> Result<BatchView<'a>, DecodeError> {
        let mut r = WireReader::new(bytes);
        match read_header(&mut r)? {
            KIND_BATCH => {}
            kind => return Err(DecodeError::UnknownKind(kind)),
        }
        let count = r.get_u32()?;
        let body_start = r.position();
        for _ in 0..count {
            let len = r.get_u32()? as usize;
            r.skip(len)?;
        }
        r.finish()?;
        Ok(BatchView {
            body: &bytes[body_start..],
            count,
        })
    }

    /// Number of inner frames.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Iterate the inner frames in append order, borrowing each.
    pub fn frames(&self) -> BatchFrames<'a> {
        BatchFrames {
            rest: self.body,
            remaining: self.count,
        }
    }
}

// ---------------------------------------------------------------------
// Scratch encoding
// ---------------------------------------------------------------------

/// A reusable encode buffer: steady-state senders encode every outgoing
/// frame into the same backing allocation instead of a fresh `Vec` per
/// message. The borrowed frame is valid until the next encode.
pub struct ScratchEncoder {
    buf: Vec<u8>,
}

impl ScratchEncoder {
    /// An empty scratch with a small upfront capacity.
    pub fn new() -> Self {
        ScratchEncoder {
            buf: Vec::with_capacity(128),
        }
    }

    /// Clear the scratch, let `fill` append one frame, borrow the bytes.
    pub fn frame(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> &[u8] {
        self.buf.clear();
        fill(&mut self.buf);
        &self.buf
    }
}

impl Default for ScratchEncoder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corr(a: u32, b: u32, seq: u64) -> EntanglementId {
        EntanglementId {
            node_a: NodeId(a),
            node_b: NodeId(b),
            seq,
        }
    }

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Forward(Forward {
                circuit: CircuitId(3),
                request: RequestId(9),
                head_identifier: 1,
                tail_identifier: 2,
                request_type: RequestType::Measure(Pauli::Y),
                number_of_pairs: Some(17),
                final_state: Some(BellState::PSI_MINUS),
                rate: 12.5,
            }),
            Message::Complete(Complete {
                circuit: CircuitId(u64::MAX),
                request: RequestId(0),
                head_identifier: u32::MAX,
                tail_identifier: 0,
                rate: -0.0,
            }),
            Message::Track(Track {
                circuit: CircuitId(1),
                request: RequestId(2),
                head_identifier: 7,
                tail_identifier: 8,
                origin: corr(0, 1, 42),
                link: corr(2, 3, 7),
                outcome_state: BellState::PHI_MINUS,
                epoch: None,
            }),
            Message::Expire(Expire {
                circuit: CircuitId(6),
                origin: corr(4, 5, u64::MAX),
            }),
            Message::TrackAck(TrackAck {
                circuit: CircuitId(11),
                origin: corr(6, 7, 3),
            }),
            Message::Track(Track {
                circuit: CircuitId(12),
                request: RequestId(13),
                head_identifier: 0,
                tail_identifier: 1,
                origin: corr(8, 9, 10),
                link: corr(9, 10, 11),
                outcome_state: BellState::PSI_MINUS,
                epoch: Some(Epoch(u64::MAX - 1)),
            }),
        ]
    }

    /// The data plane's one decoder, materialised.
    fn decode(bytes: &[u8]) -> Result<Message, DecodeError> {
        MessageView::parse(bytes).map(|v| v.to_message())
    }

    #[test]
    fn message_round_trip() {
        for m in sample_messages() {
            let bytes = m.wire_bytes();
            assert_eq!(decode(&bytes), Ok(m), "round trip of {m:?}");
            assert_eq!(MessageView::parse(&bytes).unwrap().circuit(), m.circuit());
        }
    }

    #[test]
    fn nan_rate_round_trips_bit_exactly() {
        let m = Message::Complete(Complete {
            circuit: CircuitId(1),
            request: RequestId(1),
            head_identifier: 0,
            tail_identifier: 0,
            rate: f64::from_bits(0x7ff8_dead_beef_0001),
        });
        let bytes = m.wire_bytes();
        let back = decode(&bytes).unwrap();
        // NaN != NaN, so compare via re-encoding.
        assert_eq!(back.wire_bytes(), bytes);
    }

    #[test]
    fn truncation_is_a_typed_error() {
        for m in sample_messages() {
            let bytes = m.wire_bytes();
            for len in 0..bytes.len() {
                let err = decode(&bytes[..len]).unwrap_err();
                assert!(
                    matches!(err, DecodeError::Truncated { at } if at <= len),
                    "prefix of {} bytes gave {err:?}",
                    len
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample_messages()[3].wire_bytes();
        bytes.push(0);
        assert_eq!(decode(&bytes), Err(DecodeError::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn bad_version_and_kind() {
        let mut bytes = sample_messages()[0].wire_bytes();
        bytes[0] = 9;
        assert_eq!(decode(&bytes), Err(DecodeError::BadVersion(9)));
        bytes[0] = WIRE_VERSION;
        bytes[1] = 0xEE;
        assert_eq!(decode(&bytes), Err(DecodeError::UnknownKind(0xEE)));
        // Link-layer kinds are a *foreign* plane for the data-plane view.
        bytes[1] = KIND_LINK_PAIR_READY;
        assert_eq!(
            decode(&bytes),
            Err(DecodeError::UnknownKind(KIND_LINK_PAIR_READY))
        );
    }

    #[test]
    fn link_event_round_trip() {
        let events = vec![
            LinkEvent::PairReady(LinkPair {
                id: corr(0, 1, 5),
                label: LinkLabel(3),
                announced: BellState::PSI_PLUS,
                alpha: 0.125,
                goodness: 0.987,
                attempts: 1 << 40,
            }),
            LinkEvent::RequestDone(LinkLabel(7)),
            LinkEvent::Rejected(LinkLabel(1), RejectReason::DuplicateLabel),
        ];
        for ev in &events {
            let mut bytes = Vec::new();
            encode_link_event(ev, &mut bytes);
            let back = decode_link_event(&bytes).unwrap();
            let mut again = Vec::new();
            encode_link_event(&back, &mut again);
            assert_eq!(again, bytes, "round trip of {ev:?}");
        }
    }

    #[test]
    fn every_bit_flip_is_rejected_or_canonical() {
        // Each single-bit corruption of each sample either fails with a
        // typed error or decodes to a message that re-encodes to exactly
        // the corrupted bytes — so no tag check can be skipped and no
        // field read from the wrong offset.
        for m in sample_messages() {
            let bytes = m.wire_bytes();
            for bit in 0..bytes.len() * 8 {
                let mut bad = bytes.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                if let Ok(back) = decode(&bad) {
                    assert_eq!(back.wire_bytes(), bad, "bit {bit} of {m:?}");
                }
            }
        }
    }

    #[test]
    fn batch_round_trip() {
        let frames: Vec<Vec<u8>> = sample_messages().iter().map(Message::wire_bytes).collect();
        let mut buf = Vec::new();
        batch_begin(&mut buf);
        for f in &frames {
            batch_append(&mut buf, f);
        }
        let view = BatchView::parse(&buf).unwrap();
        assert_eq!(view.count() as usize, frames.len());
        let got: Vec<&[u8]> = view.frames().collect();
        assert_eq!(got, frames.iter().map(Vec::as_slice).collect::<Vec<_>>());
        // Empty batches are legal frames too.
        let mut empty = Vec::new();
        batch_begin(&mut empty);
        let view = BatchView::parse(&empty).unwrap();
        assert_eq!((view.count(), view.frames().count()), (0, 0));
    }

    #[test]
    fn batch_decode_is_total_and_paths_agree() {
        // The parse path and the build path agree: whatever `BatchView`
        // accepts rebuilds to the same bytes with `batch_begin` /
        // `batch_append`, and every other input is a typed error.
        let mut buf = Vec::new();
        batch_begin(&mut buf);
        batch_append(&mut buf, &sample_messages()[1].wire_bytes());
        // Corrupt every byte in turn, the inner length prefix (bytes
        // 6..10) included.
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            if let Ok(view) = BatchView::parse(&bad) {
                let mut rebuilt = Vec::new();
                batch_begin(&mut rebuilt);
                for f in view.frames() {
                    batch_append(&mut rebuilt, f);
                }
                assert_eq!(rebuilt, bad, "corrupt byte {i}");
            }
        }
        for len in 0..buf.len() {
            let err = BatchView::parse(&buf[..len]).unwrap_err();
            assert!(
                matches!(err, DecodeError::Truncated { at } if at <= len),
                "prefix of {len} bytes gave {err:?}"
            );
        }
        buf.push(0);
        assert_eq!(
            BatchView::parse(&buf).map(|v| v.count()),
            Err(DecodeError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn scratch_encoder_matches_wire_bytes() {
        let mut scratch = ScratchEncoder::new();
        for m in sample_messages() {
            assert_eq!(scratch.frame(|b| m.encode_to(b)), m.wire_bytes().as_slice());
        }
        let ev = LinkEvent::RequestDone(LinkLabel(7));
        let mut owned = Vec::new();
        encode_link_event(&ev, &mut owned);
        assert_eq!(
            scratch.frame(|b| encode_link_event(&ev, b)),
            owned.as_slice()
        );
    }

    #[test]
    fn display_messages_are_informative() {
        assert!(format!("{}", DecodeError::BadVersion(7)).contains("version 7"));
        assert!(format!(
            "{}",
            DecodeError::BadTag {
                field: "pauli",
                value: 9
            }
        )
        .contains("pauli"));
    }
}
