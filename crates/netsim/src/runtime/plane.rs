//! Classical messaging: the one send path from the runtime to the wire,
//! the batch drain at the receiver with its demux and end-to-end TRACK
//! acknowledgement, TRACK retransmission, and the redundant copies of
//! request-level messages on a lossy wire.

use super::*;

impl NetworkModel {
    /// Send a data-plane message to `from`'s neighbour on `circuit`,
    /// logging it when it enters the wire.
    pub(super) fn send_message(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        from: NodeId,
        circuit: CircuitId,
        downstream: bool,
        msg: Message,
    ) {
        let to = self.neighbour(circuit, from, downstream);
        if self.transmit_frame(ctx, from, to, downstream, |b| msg.encode_to(b)) {
            let event = NetEvent::MsgSent {
                from,
                to,
                kind: msg.kind_name(),
                downstream,
            };
            emit(&mut self.log, ctx.now(), event);
        }
    }

    /// Transmit one encoded frame between two adjacent nodes over the
    /// classical plane: the one send path from the runtime to the wire,
    /// for data-plane, link-layer and signalling frames alike. The frame
    /// crosses the hop as bytes that the plane may drop, duplicate,
    /// reorder or corrupt under the hop's fault model; the default
    /// config is a bit-identical pass-through of the reliable in-order
    /// transport. Encoding goes through the shared scratch buffer and the
    /// plane coalesces same-tick frames, so only newly opened batches
    /// cost an event. The lane (`downstream`) selects the batch the frame
    /// joins; data-plane receivers read it as the sender's orientation,
    /// the other planes demux by kind byte. Returns whether the frame
    /// entered the wire (`false` on a dead hop).
    pub(super) fn transmit_frame(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        from: NodeId,
        to: NodeId,
        downstream: bool,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> bool {
        let Some(link) = self.topology.link_between(from, to) else {
            return false;
        };
        if !self.hop_alive(link, from, to) {
            // The hop (or one of its endpoints) is down: the frame dies
            // on the dead wire. A plan-free run never takes this branch.
            self.plane.stats.sent += 1;
            self.plane.stats.dropped += 1;
            return false;
        }
        let channel = ChannelModel {
            propagation: self.links[link.0 as usize]
                .physics
                .fibre()
                .propagation_delay(),
            processing: self.cfg.processing_delay,
            extra: self.cfg.extra_message_delay,
            jitter: self.cfg.message_jitter,
        };
        let faults = self.link_faults[link.0 as usize];
        let frame = self.scratch.frame(encode);
        let opened = self.plane.transmit(
            faults,
            from,
            to,
            downstream,
            ctx.now(),
            &channel,
            &mut self.rng_msgs,
            frame,
        );
        for b in opened.into_iter().flatten() {
            ctx.schedule_at(
                b.at,
                Ev::BatchDeliver {
                    to,
                    from_upstream: downstream,
                    batch: b.id,
                    link,
                },
            );
        }
        true
    }

    /// Whether a hop can carry traffic right now: the link is up and so
    /// are both of its endpoints. Always true without a fault plan.
    fn hop_alive(&self, link: LinkId, from: NodeId, to: NodeId) -> bool {
        self.links[link.0 as usize].up
            && self.nodes[from.0 as usize].up
            && self.nodes[to.0 as usize].up
    }

    /// A coalesced batch reached `to`: drain it in order. One lane
    /// carries three planes; each frame's kind byte demuxes it.
    pub(super) fn batch_deliver(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        to: NodeId,
        from_upstream: bool,
        batch: BatchId,
        link: LinkId,
    ) {
        let buf = self
            .plane
            .take_batch(batch)
            .expect("BatchDeliver drains each open batch exactly once");
        // The envelope was built by the plane (faults corrupt inner
        // frames *before* batching), so it always parses; only the
        // per-frame decodes can fail.
        let view = BatchView::parse(&buf).expect("plane-built batch envelope is well-formed");
        // A component fault took the hop (or the receiver) down while
        // the batch was in flight: every frame in it dies on the wire.
        // Plan-free runs never take this branch.
        if !self.links[link.0 as usize].up || !self.nodes[to.0 as usize].up {
            let lost = view.frames().count() as u64;
            self.plane.stats.delivered -= lost;
            self.plane.stats.dropped += lost;
            self.plane.recycle(buf);
            return;
        }
        for frame in view.frames() {
            // Link-layer and signalling kinds only ever appear with
            // `signalling_on_wire` (their handlers are total regardless).
            match frame.get(1).copied() {
                Some(k)
                    if (qn_net::wire::KIND_LINK_PAIR_READY..=qn_net::wire::KIND_LINK_REJECTED)
                        .contains(&k) =>
                {
                    self.handle_link_frame(ctx, to, frame)
                }
                Some(k)
                    if (qn_net::wire::KIND_SIGNAL_INSTALL
                        ..=qn_net::wire::KIND_SIGNAL_TEARDOWN_ACK)
                        .contains(&k) =>
                {
                    self.handle_signal_frame(ctx, to, frame)
                }
                _ => self.qnp_frame(ctx, to, from_upstream, frame),
            }
        }
        self.plane.recycle(buf);
    }

    /// A data-plane frame reached `to`. Decode at the receiver: a frame
    /// corrupted in flight may fail here (counted, dropped — the message
    /// is simply lost) or decode into a different valid message the
    /// protocol rules must absorb.
    fn qnp_frame(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        to: NodeId,
        from_upstream: bool,
        frame: &[u8],
    ) {
        let msg = match MessageView::parse(frame) {
            Ok(view) => view.to_message(),
            Err(err) => {
                self.plane.stats.count_decode_failure(frame.get(1).copied());
                let event = NetEvent::FrameUndecodable {
                    node: to,
                    plane: FramePlane::Qnp,
                    err,
                };
                return emit(&mut self.log, ctx.now(), event);
            }
        };
        let circuit = msg.circuit();
        let track_origin = match &msg {
            Message::Track(t) => Some(t.origin),
            _ => None,
        };
        self.qnp_input(ctx, to, circuit, NetInput::Message { from_upstream, msg });
        // End-to-end TRACK acknowledgement: an end-node receiving a
        // TRACK (first copy or duplicate — re-acks recover lost acks)
        // answers towards its origin. Guarded structurally, not just by
        // role: a corrupted circuit id can name a circuit this node is
        // not an end of (or not on at all), and the ack can only go
        // where the named circuit actually has a hop.
        let Some(origin) = track_origin.filter(|_| self.cfg.signalling_on_wire) else {
            return;
        };
        let ack_down = !from_upstream;
        let Some(path) = self.path(circuit) else {
            return;
        };
        let can_ack = match path.iter().position(|n| *n == to) {
            Some(0) => ack_down && path.len() > 1,
            Some(i) => i + 1 == path.len() && !ack_down,
            None => false,
        };
        if can_ack {
            let ack = Message::TrackAck(TrackAck { circuit, origin });
            self.plane.stats.track_acks += 1;
            self.send_message(ctx, to, circuit, ack_down, ack);
        }
    }

    /// Send a message a QNP node emitted, first arming what keeps it
    /// alive on a faulty wire: the retransmission of a TRACK this
    /// end-node originated, and the redundant copies of a request-level
    /// message leaving the head.
    pub(super) fn send_output(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        downstream: bool,
        msg: Message,
    ) {
        if self.cfg.signalling_on_wire {
            self.arm_track_retry(ctx, node, circuit, downstream, &msg);
            self.schedule_request_resend(ctx, node, circuit, downstream, &msg);
        }
        self.send_message(ctx, node, circuit, downstream, msg);
    }

    /// If `msg` is a TRACK this end-node just *originated* (`origin ==
    /// link` — a repeater rewrite can never produce that), arm its
    /// retransmission timer. No RNG draws.
    fn arm_track_retry(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        downstream: bool,
        msg: &Message,
    ) {
        let Message::Track(t) = msg else { return };
        if t.origin != t.link {
            return;
        }
        let event = ctx.schedule_in(
            self.cfg.retransmit.base,
            Ev::TrackRetransmit {
                node,
                circuit,
                origin: t.origin,
            },
        );
        let retry = TrackRetry {
            attempt: 0,
            event,
            downstream,
            track: *t,
        };
        self.ends.arm_track_retry(node, t.origin, retry);
    }

    /// If `msg` is a request-level message (FORWARD/COMPLETE) leaving
    /// this node over a wire that can lose frames, schedule its first
    /// redundant copy. These messages are one-shot in the protocol —
    /// a lost FORWARD silently wedges the whole request, because link
    /// generation downstream never starts — but they are idempotent
    /// (receivers count and absorb duplicates) and per-request rare,
    /// so bounded blind redundancy is cheaper and simpler than an ack
    /// channel. No RNG draws.
    fn schedule_request_resend(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        downstream: bool,
        msg: &Message,
    ) {
        if !self.lossy_wire || !matches!(msg, Message::Forward(_) | Message::Complete(_)) {
            return;
        }
        // Only the head end-node (the fan-out's origin) arms copies.
        // Repeaters relay every copy they receive — including
        // duplicates — so origin redundancy already covers every hop;
        // arming at relays too would amplify each copy per hop.
        if self.path(circuit).and_then(<[NodeId]>::first) != Some(&node) {
            return;
        }
        ctx.schedule_in(
            self.cfg.retransmit.base,
            Ev::RequestResend {
                node,
                circuit,
                downstream,
                attempt: 1,
                msg: *msg,
            },
        );
    }

    /// A scheduled redundant request-level copy came due: re-send it
    /// and, within the retry budget, schedule the next copy. Copies are
    /// never acknowledged, so running out of budget is not counted as
    /// an abandonment.
    pub(super) fn request_resend_fire(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        downstream: bool,
        attempt: u32,
        msg: Message,
    ) {
        if self.path(circuit).is_none() {
            return; // torn down; the fan-out is moot
        }
        if let Some(next) = self.cfg.retransmit.next_attempt(attempt) {
            ctx.schedule_in(
                self.cfg.retransmit.backoff(attempt),
                Ev::RequestResend {
                    node,
                    circuit,
                    downstream,
                    attempt: next,
                    msg,
                },
            );
        }
        self.plane.stats.request_retransmits += 1;
        self.send_message(ctx, node, circuit, downstream, msg);
    }

    /// An armed TRACK retransmission timer fired.
    pub(super) fn track_retransmit_fire(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        origin: Correlator,
    ) {
        let Some(mut retry) = self.ends.take_track_retry(node, origin) else {
            return; // acknowledged meanwhile
        };
        if self.path(circuit).is_none() {
            return; // torn down; nothing left to confirm
        }
        let Some(attempt) = self.cfg.retransmit.next_attempt(retry.attempt) else {
            self.plane.stats.retransmits_abandoned += 1;
            return;
        };
        retry.attempt = attempt;
        retry.event = ctx.schedule_in(
            self.cfg.retransmit.backoff(attempt),
            Ev::TrackRetransmit {
                node,
                circuit,
                origin,
            },
        );
        self.plane.stats.track_retransmits += 1;
        self.ends.arm_track_retry(node, origin, retry);
        let track = Message::Track(retry.track);
        self.send_message(ctx, node, circuit, retry.downstream, track);
    }
}
