//! The typed protocol event log.
//!
//! The runtime reports what it does — messages sent, link pairs made,
//! swaps, measurements, deliveries, discards, faults — as [`NetEvent`]s:
//! plain `Copy` values of ids, numbers and small enums, never text. A
//! run with logging on appends `(SimTime, NetEvent)` rows to an
//! [`EventLog`]; a run with logging off holds `None`, and [`emit`] is a
//! single branch with no formatting and no allocation. Text is built
//! only on request: [`EventLog::render`] prints the aligned sequence log
//! (`examples/sequence_trace` renders the paper's Fig 6 from it), and
//! [`EventLog::write_jsonl`] dumps one JSON object per event for
//! post-hoc analysis.

use crate::app::Payload;
use qn_hardware::device::QubitId;
use qn_link::{LinkLabel, RejectReason};
use qn_net::ids::{CircuitId, Correlator, RequestId};
use qn_net::wire::DecodeError;
use qn_quantum::{BellState, Pauli};
use qn_sim::{NodeId, SimTime};
use std::fmt::{self, Write as _};
use std::io::{self, Write};

/// Which signalling plane a dropped frame was addressed to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FramePlane {
    /// QNP data-plane messages (FORWARD, TRACK, ...).
    Qnp,
    /// Link-layer lifecycle events (PAIR_READY, ...).
    Link,
    /// Routing signalling (INSTALL, TEARDOWN).
    Signalling,
}

impl FramePlane {
    fn name(self) -> &'static str {
        match self {
            FramePlane::Qnp => "qnp",
            FramePlane::Link => "link",
            FramePlane::Signalling => "signalling",
        }
    }
}

/// Where an event happened: the source column of the rendered log.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Site {
    /// A node.
    Node(NodeId),
    /// A link, by its two endpoints.
    Link(NodeId, NodeId),
    /// The routing signaller.
    Signalling,
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Site::Node(n) => write!(f, "{n}"),
            Site::Link(a, b) => write!(f, "{a}-{b}"),
            Site::Signalling => f.write_str("signalling"),
        }
    }
}

/// One protocol event.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum NetEvent {
    /// A QNP control message left `from` for its neighbour `to`.
    MsgSent {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Message name (`FORWARD`, `TRACK`, ...).
        kind: &'static str,
        /// Travelling head → tail.
        downstream: bool,
    },
    /// The link between `a` and `b` heralded a pair.
    LinkPair {
        /// One link endpoint.
        a: NodeId,
        /// The other link endpoint.
        b: NodeId,
        /// The pair's correlator.
        pair: Correlator,
        /// Announced Bell state.
        announced: BellState,
        /// Heralding attempts it took.
        attempts: u64,
    },
    /// A near-term node moved a pair end into carbon storage.
    Move {
        /// The node.
        node: NodeId,
        /// Storage qubit now holding the end.
        storage: QubitId,
    },
    /// A repeater started swapping two pairs.
    SwapStart {
        /// The swapping node.
        node: NodeId,
        /// Upstream pair.
        up: Correlator,
        /// Downstream pair.
        down: Correlator,
    },
    /// A swap finished.
    SwapDone {
        /// The swapping node.
        node: NodeId,
        /// Announced Bell-measurement outcome.
        outcome: BellState,
    },
    /// A pair end was measured.
    Measure {
        /// The measuring node.
        node: NodeId,
        /// The measured pair.
        pair: Correlator,
        /// Measurement basis.
        basis: Pauli,
        /// Reported outcome bit.
        outcome: bool,
    },
    /// A Pauli correction was applied to a pair end.
    Pauli {
        /// The correcting node.
        node: NodeId,
        /// The correction.
        pauli: Pauli,
        /// The corrected pair.
        pair: Correlator,
    },
    /// A pair (or measurement) was delivered to an application.
    Deliver {
        /// The end node.
        node: NodeId,
        /// The request served.
        request: RequestId,
        /// Delivery sequence number within the request.
        sequence: u64,
        /// What was delivered.
        payload: Payload,
    },
    /// The QNP discarded a pair end (cutoff or expiry).
    Discard {
        /// The node holding the end.
        node: NodeId,
        /// The discarded pair.
        pair: Correlator,
    },
    /// A pair end whose announcement never arrived was reclaimed.
    OrphanReclaimed {
        /// The node holding the end.
        node: NodeId,
        /// The reclaimed pair.
        pair: Correlator,
    },
    /// A link failed.
    LinkDown {
        /// One link endpoint.
        a: NodeId,
        /// The other link endpoint.
        b: NodeId,
    },
    /// A failed link was repaired.
    LinkUp {
        /// One link endpoint.
        a: NodeId,
        /// The other link endpoint.
        b: NodeId,
    },
    /// A node crashed.
    NodeCrash {
        /// The node.
        node: NodeId,
    },
    /// A crashed node restarted.
    NodeRestart {
        /// The node.
        node: NodeId,
    },
    /// A link-layer request completed.
    LinkRequestDone {
        /// The link (local plane) or the node told (on the wire).
        site: Site,
        /// The request's label.
        label: LinkLabel,
    },
    /// A link-layer request was refused.
    LinkRequestRejected {
        /// The node told.
        node: NodeId,
        /// The request's label.
        label: LinkLabel,
        /// Why.
        reason: RejectReason,
    },
    /// A frame failed to decode at its receiver and was dropped.
    FrameUndecodable {
        /// The receiving node.
        node: NodeId,
        /// The plane the frame was demultiplexed to.
        plane: FramePlane,
        /// The decode error.
        err: DecodeError,
    },
    /// The head end signalled a circuit's teardown.
    TeardownSignalled {
        /// The circuit.
        circuit: CircuitId,
    },
    /// Every hop of a circuit has been torn down.
    TornDown {
        /// The circuit.
        circuit: CircuitId,
    },
}

impl NetEvent {
    /// The variant name: the `kind` field of the JSONL dump.
    pub fn kind(&self) -> &'static str {
        match self {
            NetEvent::MsgSent { .. } => "MsgSent",
            NetEvent::LinkPair { .. } => "LinkPair",
            NetEvent::Move { .. } => "Move",
            NetEvent::SwapStart { .. } => "SwapStart",
            NetEvent::SwapDone { .. } => "SwapDone",
            NetEvent::Measure { .. } => "Measure",
            NetEvent::Pauli { .. } => "Pauli",
            NetEvent::Deliver { .. } => "Deliver",
            NetEvent::Discard { .. } => "Discard",
            NetEvent::OrphanReclaimed { .. } => "OrphanReclaimed",
            NetEvent::LinkDown { .. } => "LinkDown",
            NetEvent::LinkUp { .. } => "LinkUp",
            NetEvent::NodeCrash { .. } => "NodeCrash",
            NetEvent::NodeRestart { .. } => "NodeRestart",
            NetEvent::LinkRequestDone { .. } => "LinkRequestDone",
            NetEvent::LinkRequestRejected { .. } => "LinkRequestRejected",
            NetEvent::FrameUndecodable { .. } => "FrameUndecodable",
            NetEvent::TeardownSignalled { .. } => "TeardownSignalled",
            NetEvent::TornDown { .. } => "TornDown",
        }
    }

    /// Three-letter category of the rendered log.
    fn tag(&self) -> &'static str {
        match self {
            NetEvent::MsgSent { .. } => "MSG",
            NetEvent::LinkPair { .. } => "LNK",
            NetEvent::Move { .. }
            | NetEvent::SwapStart { .. }
            | NetEvent::SwapDone { .. }
            | NetEvent::Measure { .. }
            | NetEvent::Pauli { .. } => "QOP",
            NetEvent::Deliver { .. } => "DLV",
            NetEvent::Discard { .. } | NetEvent::OrphanReclaimed { .. } => "DSC",
            _ => "INF",
        }
    }

    /// Where the event happened.
    fn site(&self) -> Site {
        match *self {
            NetEvent::MsgSent { from: node, .. }
            | NetEvent::Move { node, .. }
            | NetEvent::SwapStart { node, .. }
            | NetEvent::SwapDone { node, .. }
            | NetEvent::Measure { node, .. }
            | NetEvent::Pauli { node, .. }
            | NetEvent::Deliver { node, .. }
            | NetEvent::Discard { node, .. }
            | NetEvent::OrphanReclaimed { node, .. }
            | NetEvent::LinkDown { a: node, .. }
            | NetEvent::LinkUp { a: node, .. }
            | NetEvent::NodeCrash { node }
            | NetEvent::NodeRestart { node }
            | NetEvent::LinkRequestRejected { node, .. }
            | NetEvent::FrameUndecodable { node, .. } => Site::Node(node),
            NetEvent::LinkPair { a, b, .. } => Site::Link(a, b),
            NetEvent::LinkRequestDone { site, .. } => site,
            NetEvent::TeardownSignalled { .. } | NetEvent::TornDown { .. } => Site::Signalling,
        }
    }

    /// The event's fields as JSON members, each preceded by a comma.
    fn write_json_fields(&self, w: &mut impl Write) -> io::Result<()> {
        match *self {
            NetEvent::MsgSent {
                from,
                to,
                kind,
                downstream,
            } => write!(
                w,
                r#","from":{},"to":{},"msg":"{kind}","downstream":{downstream}"#,
                from.0, to.0
            ),
            NetEvent::LinkPair {
                a,
                b,
                pair,
                announced,
                attempts,
            } => write!(
                w,
                r#","a":{},"b":{},"pair":{},"announced":"{announced}","attempts":{attempts}"#,
                a.0,
                b.0,
                Json(pair)
            ),
            NetEvent::Move { node, storage } => {
                write!(w, r#","node":{},"storage":{}"#, node.0, storage.0)
            }
            NetEvent::SwapStart { node, up, down } => write!(
                w,
                r#","node":{},"up":{},"down":{}"#,
                node.0,
                Json(up),
                Json(down)
            ),
            NetEvent::SwapDone { node, outcome } => {
                write!(w, r#","node":{},"outcome":"{outcome}""#, node.0)
            }
            NetEvent::Measure {
                node,
                pair,
                basis,
                outcome,
            } => write!(
                w,
                r#","node":{},"pair":{},"basis":"{basis:?}","outcome":{outcome}"#,
                node.0,
                Json(pair)
            ),
            NetEvent::Pauli { node, pauli, pair } => write!(
                w,
                r#","node":{},"pauli":"{pauli:?}","pair":{}"#,
                node.0,
                Json(pair)
            ),
            NetEvent::Deliver {
                node,
                request,
                sequence,
                payload,
            } => {
                write!(
                    w,
                    r#","node":{},"request":{},"sequence":{sequence},"#,
                    node.0, request.0
                )?;
                match payload {
                    Payload::Qubit { state } => write!(w, r#""payload":"Qubit","state":"{state}""#),
                    Payload::EarlyQubit { state } => {
                        write!(w, r#""payload":"EarlyQubit","state":"{state}""#)
                    }
                    Payload::EarlyTracking { state } => {
                        write!(w, r#""payload":"EarlyTracking","state":"{state}""#)
                    }
                    Payload::Measurement {
                        outcome,
                        basis,
                        state,
                    } => write!(
                        w,
                        r#""payload":"Measurement","outcome":{outcome},"basis":"{basis:?}","state":"{state}""#
                    ),
                }
            }
            NetEvent::Discard { node, pair } | NetEvent::OrphanReclaimed { node, pair } => {
                write!(w, r#","node":{},"pair":{}"#, node.0, Json(pair))
            }
            NetEvent::LinkDown { a, b } | NetEvent::LinkUp { a, b } => {
                write!(w, r#","a":{},"b":{}"#, a.0, b.0)
            }
            NetEvent::NodeCrash { node } | NetEvent::NodeRestart { node } => {
                write!(w, r#","node":{}"#, node.0)
            }
            NetEvent::LinkRequestDone { site, label } => {
                match site {
                    Site::Node(n) => write!(w, r#","node":{}"#, n.0)?,
                    Site::Link(a, b) => write!(w, r#","a":{},"b":{}"#, a.0, b.0)?,
                    Site::Signalling => {}
                }
                write!(w, r#","label":{}"#, label.0)
            }
            NetEvent::LinkRequestRejected {
                node,
                label,
                reason,
            } => write!(
                w,
                r#","node":{},"label":{},"reason":"{reason:?}""#,
                node.0, label.0
            ),
            NetEvent::FrameUndecodable { node, plane, err } => write!(
                w,
                r#","node":{},"plane":"{}","error":"{err}""#,
                node.0,
                plane.name()
            ),
            NetEvent::TeardownSignalled { circuit } | NetEvent::TornDown { circuit } => {
                write!(w, r#","circuit":{}"#, circuit.0)
            }
        }
    }
}

/// The text column of the rendered log.
impl fmt::Display for NetEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetEvent::MsgSent {
                to,
                kind,
                downstream,
                ..
            } => write!(
                f,
                "{kind} -> {to} ({})",
                if *downstream { "down" } else { "up" }
            ),
            NetEvent::LinkPair {
                pair,
                announced,
                attempts,
                ..
            } => write!(f, "pair {pair} ({announced}) after {attempts} attempts"),
            NetEvent::Move { storage, .. } => write!(f, "moved pair end to storage {storage}"),
            NetEvent::SwapStart { up, down, .. } => write!(f, "SWAP start ({up} x {down})"),
            NetEvent::SwapDone { outcome, .. } => write!(f, "SWAP done -> {outcome}"),
            NetEvent::Measure {
                pair,
                basis,
                outcome,
                ..
            } => write!(f, "measure {pair} in {basis:?} -> {outcome}"),
            NetEvent::Pauli { pauli, pair, .. } => {
                write!(f, "Pauli {pauli:?} correction on {pair}")
            }
            NetEvent::Deliver {
                request,
                sequence,
                payload,
                ..
            } => write!(f, "deliver req {request} seq {sequence} ({payload:?})"),
            NetEvent::Discard { pair, .. } => write!(f, "discard {pair}"),
            NetEvent::OrphanReclaimed { pair, .. } => write!(f, "orphaned pair {pair} reclaimed"),
            NetEvent::LinkDown { a, b } => write!(f, "link {a}-{b} DOWN"),
            NetEvent::LinkUp { a, b } => write!(f, "link {a}-{b} UP"),
            NetEvent::NodeCrash { node } => write!(f, "node {node} CRASH"),
            NetEvent::NodeRestart { node } => write!(f, "node {node} RESTART"),
            NetEvent::LinkRequestDone { label, .. } => write!(f, "link request {label} done"),
            NetEvent::LinkRequestRejected { label, reason, .. } => {
                write!(f, "link request {label} rejected: {reason}")
            }
            NetEvent::FrameUndecodable { plane, err, .. } => {
                let plane = match plane {
                    FramePlane::Qnp => "",
                    FramePlane::Link => "link ",
                    FramePlane::Signalling => "signalling ",
                };
                write!(f, "undecodable {plane}frame dropped: {err}")
            }
            NetEvent::TeardownSignalled { circuit } => write!(f, "{circuit} teardown signalled"),
            NetEvent::TornDown { circuit } => write!(f, "{circuit} torn down"),
        }
    }
}

/// A correlator as a JSON object.
struct Json(Correlator);

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.0;
        write!(
            f,
            r#"{{"a":{},"b":{},"seq":{}}}"#,
            c.node_a.0, c.node_b.0, c.seq
        )
    }
}

/// An in-memory, append-only log of timed [`NetEvent`]s.
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    events: Vec<(SimTime, NetEvent)>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one event.
    #[inline]
    pub fn push(&mut self, at: SimTime, event: NetEvent) {
        self.events.push((at, event));
    }

    /// Every event, in the order it happened.
    pub fn events(&self) -> &[(SimTime, NetEvent)] {
        &self.events
    }

    /// The log as an aligned text table, one row per event: time,
    /// category tag, site, description.
    pub fn render(&self) -> String {
        let sites: Vec<String> = self
            .events
            .iter()
            .map(|(_, e)| e.site().to_string())
            .collect();
        let w = sites.iter().map(String::len).max().unwrap_or(4).max(4);
        let mut out = String::new();
        for ((at, event), site) in self.events.iter().zip(&sites) {
            let at = at.to_string();
            let _ = writeln!(out, "{at:>14}  {}  {site:<w$}  {event}", event.tag());
        }
        out
    }

    /// Dump the log as JSON Lines: one object per event with `t_ps`
    /// (simulated time in picoseconds), `kind` (the variant name) and
    /// the event's fields.
    pub fn write_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        for (at, event) in &self.events {
            write!(w, r#"{{"t_ps":{},"kind":"{}""#, at.as_ps(), event.kind())?;
            event.write_json_fields(w)?;
            writeln!(w, "}}")?;
        }
        Ok(())
    }
}

/// Record `event` if logging is on. With `log == None` this is one
/// branch: no formatting, no allocation.
#[inline]
pub fn emit(log: &mut Option<EventLog>, at: SimTime, event: NetEvent) {
    if let Some(log) = log {
        log.push(at, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_sim::SimDuration;

    fn crash(n: u32) -> NetEvent {
        NetEvent::NodeCrash { node: NodeId(n) }
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = None;
        emit(&mut log, SimTime::ZERO, crash(0));
        assert!(log.is_none());
    }

    #[test]
    fn enabled_log_records_in_order() {
        let mut log = Some(EventLog::new());
        emit(&mut log, SimTime::ZERO, crash(0));
        emit(
            &mut log,
            SimTime::ZERO + SimDuration::from_micros(3),
            crash(1),
        );
        let log = log.unwrap();
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.events()[1].1, crash(1));
    }

    #[test]
    fn render_aligns_sites() {
        let mut log = EventLog::new();
        log.push(
            SimTime::ZERO,
            NetEvent::TornDown {
                circuit: CircuitId(4),
            },
        );
        log.push(SimTime::ZERO, crash(2));
        assert_eq!(
            log.render(),
            "           0ps  INF  signalling  vc4 torn down\n\
             \x20          0ps  INF  n2          node n2 CRASH\n"
        );
    }

    #[test]
    fn jsonl_writes_error_text() {
        let mut log = EventLog::new();
        let err = DecodeError::BadTag {
            field: "basis",
            value: 9,
        };
        log.push(
            SimTime::ZERO,
            NetEvent::FrameUndecodable {
                node: NodeId(1),
                plane: FramePlane::Link,
                err,
            },
        );
        let mut out = Vec::new();
        log.write_jsonl(&mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "{\"t_ps\":0,\"kind\":\"FrameUndecodable\",\"node\":1,\"plane\":\"link\",\
             \"error\":\"invalid tag byte 0x09 for field `basis`\"}\n"
        );
    }
}
