//! Link-pair generation: geometric fast-forward sampling of each link's
//! heralding process, qubit reservation at both ends, physical pair
//! creation with nuclear dephasing of stored qubits, the link-layer
//! frames of a wired run, and the label table that routes each heralded
//! pair to its circuit.

use super::*;

/// A heralding attempt in flight on a link, with the communication
/// qubit it reserved at each end.
struct Inflight {
    label: LinkLabel,
    alpha: f64,
    attempts: u64,
    started: SimTime,
    event: EventId,
    qubits: [(NodeId, QubitId); 2],
}

/// Runtime state of one link.
pub(super) struct LinkRt {
    proto: LinkProtocol,
    pub(super) physics: LinkPhysics,
    pub(super) a: NodeId,
    pub(super) b: NodeId,
    inflight: Option<Inflight>,
    /// False while the link itself is administratively/physically down
    /// (a [`crate::faults::ComponentEvent::LinkDown`]). Distinct from
    /// the protocol's paused flag, which also covers endpoint crashes:
    /// the link is only active when it is up *and* both endpoints are up.
    pub(super) up: bool,
}

impl LinkRt {
    pub(super) fn new(l: &LinkSpec) -> Self {
        LinkRt {
            proto: LinkProtocol::new((l.a, l.b), l.physics.clone()),
            physics: l.physics.clone(),
            a: l.a,
            b: l.b,
            inflight: None,
            up: true,
        }
    }
}

/// The circuit a link label belongs to.
#[derive(Clone, Copy)]
pub(super) struct LabelInfo {
    pub(super) circuit: CircuitId,
    /// The path-earlier node of this link (the circuit's upstream side).
    upstream_node: NodeId,
}

impl LabelInfo {
    /// Which of `node`'s links this one is on the circuit.
    pub(super) fn side(&self, node: NodeId) -> LinkSide {
        if node == self.upstream_node {
            LinkSide::Downstream
        } else {
            LinkSide::Upstream
        }
    }
}

/// The announcement of link pair `correlator`, held by `pid`.
fn pair_info(correlator: Correlator, pid: PairId, announced: BellState) -> PairInfo {
    let handle = PairHandle(pid.0);
    let pair = PairRef { correlator, handle };
    PairInfo { pair, announced }
}

impl NetworkModel {
    /// Map each link label of a freshly installed circuit to it.
    pub(super) fn register_labels(&mut self, installed: &InstalledCircuit) {
        for (i, (link, label)) in installed.labels.iter().enumerate() {
            let info = LabelInfo {
                circuit: installed.circuit,
                upstream_node: installed.path[i],
            };
            self.label_map[link.0 as usize].push((*label, info));
        }
    }

    /// Unmap every label of a torn-down circuit: generations still in
    /// flight for it are dropped at their herald.
    pub(super) fn forget_labels(&mut self, circuit: CircuitId) {
        for row in &mut self.label_map {
            row.retain(|(_, info)| info.circuit != circuit);
        }
    }

    fn label_info(&self, link: LinkId, label: LinkLabel) -> Option<LabelInfo> {
        self.label_map[link.0 as usize]
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, info)| *info)
    }

    /// The circuit on `link` whose protocol state at `node` knows the
    /// pair `correlator`.
    pub(super) fn label_knowing(
        &self,
        link: LinkId,
        node: NodeId,
        correlator: Correlator,
    ) -> Option<LabelInfo> {
        let qnp = &self.nodes[node.0 as usize].qnp;
        self.label_map[link.0 as usize]
            .iter()
            .find(|(_, info)| qnp.knows_pair(info.circuit, correlator))
            .map(|(_, info)| *info)
    }

    /// Re-examine every link attached to `node` (a qubit freed or a
    /// request changed).
    pub(super) fn poll_links_of(&mut self, ctx: &mut Context<'_, Ev>, node: NodeId) {
        for link in self.topology.links_of(node) {
            self.poll_link(ctx, link);
        }
    }

    /// Start the next generation on a link if the protocol has work and
    /// both endpoint devices can reserve a communication qubit.
    pub(super) fn poll_link(&mut self, ctx: &mut Context<'_, Ev>, link: LinkId) {
        let l = &mut self.links[link.0 as usize];
        if l.inflight.is_some() {
            return;
        }
        let Some(spec) = l.proto.next_action() else {
            return;
        };
        let (na, nb) = (l.a, l.b);
        // Reserve a communication qubit at each end, or stall.
        let Some(qa) = self.nodes[na.0 as usize].device.alloc_comm(link) else {
            return;
        };
        let Some(qb) = self.nodes[nb.0 as usize].device.alloc_comm(link) else {
            self.nodes[na.0 as usize].device.free(qa);
            return;
        };
        let l = &mut self.links[link.0 as usize];
        l.proto.on_generation_started(spec.label);
        let p = l.physics.success_prob(spec.alpha);
        let attempts = self.rng_links[link.0 as usize].geometric(p);
        let duration = l.physics.cycle_time().saturating_mul(attempts);
        let event = ctx.schedule_in(duration, Ev::GenDone { link });
        l.inflight = Some(Inflight {
            label: spec.label,
            alpha: spec.alpha,
            attempts,
            started: ctx.now(),
            event,
            qubits: [(na, qa), (nb, qb)],
        });
    }

    /// A link generation heralded success: create the physical pair,
    /// charge nuclear dephasing, notify the network layers.
    pub(super) fn gen_done(&mut self, ctx: &mut Context<'_, Ev>, link: LinkId) {
        let l = &mut self.links[link.0 as usize];
        let inflight = l.inflight.take().expect("GenDone without inflight");
        let elapsed = ctx.now().since(inflight.started);
        let announced = l
            .physics
            .sample_announced(&mut self.rng_links[link.0 as usize]);
        let (pair, events) = l
            .proto
            .on_generation_complete(announced, inflight.attempts, elapsed);
        let state = l
            .physics
            .heralded_pair(inflight.alpha, announced, self.pairs.rep());
        let [(na, qa), (nb, qb)] = inflight.qubits;
        let (t1a, t2a) = self.nodes[na.0 as usize].device.coherence_times(qa);
        let (t1b, t2b) = self.nodes[nb.0 as usize].device.coherence_times(qb);
        let pid = self.pairs.create_pair(
            ctx.now(),
            state,
            announced,
            [(na, qa, t1a, t2a), (nb, qb, t1b, t2b)],
        );
        let correlator = pair.id;
        self.ends.register_pair(pid, na, nb, correlator);
        let event = NetEvent::LinkPair {
            a: na,
            b: nb,
            pair: correlator,
            announced,
            attempts: inflight.attempts,
        };
        emit(&mut self.log, ctx.now(), event);

        // Nuclear dephasing: the attempts degrade carbon-stored qubits at
        // both endpoint devices (near-term mode).
        let lambda_per = self.nodes[na.0 as usize]
            .device
            .params()
            .nuclear_dephasing_per_attempt(inflight.alpha);
        if lambda_per > 0.0 {
            for node in [na, nb] {
                // Slot-ordered scan: the dephasing applications commute,
                // but observable order must never depend on hasher state.
                let victims = self.ends.pairs_at(node, pid);
                // Coherence decays per attempt: λ_total = (1−(1−2λ)^k)/2.
                let lambda_total = 0.5
                    * (1.0 - (1.0 - 2.0 * lambda_per).powi(inflight.attempts.min(1 << 30) as i32));
                for v in victims {
                    self.pairs.apply_dephasing(v, node, lambda_total);
                }
            }
        }

        // Route the pair to the two QNP instances.
        let Some(info) = self.label_info(link, pair.label) else {
            // Label no longer mapped (circuit torn down): free everything.
            self.release_end(ctx, na, correlator, false);
            self.release_end(ctx, nb, correlator, false);
            return;
        };
        let circuit = info.circuit;
        let pair_info = pair_info(correlator, pid, announced);
        for node in [na, nb] {
            let side = info.side(node);
            // On a faulty plane an end-node's chain can lose its
            // TRACK/EXPIRE forever; the optional track-timeout frees
            // the qubit instead of holding it until the heat death of
            // the run. Never armed by default. Armed *before* delivery
            // so an immediately rejected pair cancels it right back via
            // `release_end`.
            if let Some(timeout) = self.cfg.track_timeout {
                if !self.is_intermediate_on(circuit, node) {
                    let expiry = Ev::TrackExpiry {
                        node,
                        circuit,
                        correlator,
                    };
                    let event = ctx.schedule_in(timeout, expiry);
                    self.ends.arm_track_expiry(node, correlator, event);
                }
            }
            if self.cfg.signalling_on_wire {
                // With the announcement itself on the wire, PAIR_READY
                // can be lost — the receiver then holds a qubit the QNP
                // never hears about, outside every protocol timer. The
                // orphan check fires on the classical plane's response
                // timescale (the retransmit base), not the end-to-end
                // track-timeout: announcement delivery is one hop, so a
                // pair still unknown after it is gone for good. Never
                // cancelled — a resolved pair makes the check a no-op.
                ctx.schedule_in(
                    self.cfg.retransmit.base,
                    Ev::OrphanCheck {
                        node,
                        circuit,
                        correlator,
                        side,
                    },
                );
                // The announcement crosses the classical plane (latency,
                // batching, faults) and is decoded at the receiver.
                let peer = if node == na { nb } else { na };
                let downstream = side == LinkSide::Upstream;
                self.transmit_frame(ctx, peer, node, downstream, |b| {
                    qn_net::wire::encode_link_event(&LinkEvent::PairReady(pair), b)
                });
            } else {
                self.deliver_link_pair(ctx, node, pid, circuit, side, pair_info);
            }
        }

        // The link may start its next generation immediately (if qubits
        // remain free).
        for e in events {
            if let LinkEvent::RequestDone(label) = e {
                if self.cfg.signalling_on_wire {
                    for (from, to) in [(nb, na), (na, nb)] {
                        let downstream = info.side(from) == LinkSide::Downstream;
                        self.transmit_frame(ctx, from, to, downstream, |b| {
                            qn_net::wire::encode_link_event(&LinkEvent::RequestDone(label), b)
                        });
                    }
                } else {
                    let event = NetEvent::LinkRequestDone {
                        site: Site::Link(na, nb),
                        label,
                    };
                    emit(&mut self.log, ctx.now(), event);
                }
            }
        }
        self.poll_link(ctx, link);
    }

    /// A PAIR_READY frame reached `node` over the wire: resolve it
    /// against the runtime's current state (the pair may be long gone)
    /// and hand it to the local QNP exactly once.
    fn pair_ready_at(&mut self, ctx: &mut Context<'_, Ev>, node: NodeId, pair: qn_link::LinkPair) {
        let correlator = pair.id;
        // The physical qubit may already have been reclaimed (timeout,
        // teardown) by the time the announcement lands: stale, drop.
        let Some(pid) = self.ends.owner(node, correlator) else {
            return;
        };
        let Some(link) = self.topology.link_between(pair.id.node_a, pair.id.node_b) else {
            return;
        };
        // A duplication fault can deliver the same announcement twice; a
        // second LinkPair would occupy a second request slot downstream.
        if !self.ends.first_delivery(node, correlator) {
            return;
        }
        let Some(info) = self.label_info(link, pair.label) else {
            // Circuit torn down while the frame was in flight: free the
            // local end (the other end resolves on its own copy), which
            // also drops its delivery record.
            self.release_end(ctx, node, correlator, false);
            return;
        };
        let pair_info = pair_info(correlator, pid, pair.announced);
        self.deliver_link_pair(ctx, node, pid, info.circuit, info.side(node), pair_info);
    }

    /// Demuxed handler for link-layer frames (kinds `0x10..=0x12`)
    /// arriving over the wire.
    pub(super) fn handle_link_frame(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        to: NodeId,
        frame: &[u8],
    ) {
        let event = match qn_net::wire::decode_link_event(frame) {
            Ok(LinkEvent::PairReady(pair)) => return self.pair_ready_at(ctx, to, pair),
            Ok(LinkEvent::RequestDone(label)) => NetEvent::LinkRequestDone {
                site: Site::Node(to),
                label,
            },
            Ok(LinkEvent::Rejected(label, reason)) => NetEvent::LinkRequestRejected {
                node: to,
                label,
                reason,
            },
            Err(err) => {
                self.plane
                    .stats
                    .count_link_decode_failure(frame.get(1).copied());
                NetEvent::FrameUndecodable {
                    node: to,
                    plane: FramePlane::Link,
                    err,
                }
            }
        };
        emit(&mut self.log, ctx.now(), event);
    }

    /// Wire mode: the PAIR_READY of this pair had a hop's time to
    /// arrive. Announcement delivery is a single classical hop, so by
    /// now a pair the QNP has never heard of lost its PAIR_READY for
    /// good: reclaim the qubit and let the protocol bounce EXPIREs for
    /// any TRACK that references it. A resolved (delivered, swapped or
    /// discarded) pair makes this a no-op — the check is never
    /// cancelled.
    pub(super) fn orphan_check(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        correlator: Correlator,
        side: LinkSide,
    ) {
        if self.ends.owner(node, correlator).is_none()
            || self.nodes[node.0 as usize]
                .qnp
                .knows_pair(circuit, correlator)
        {
            return;
        }
        self.discarded_pairs += 1;
        let event = NetEvent::OrphanReclaimed {
            node,
            pair: correlator,
        };
        emit(&mut self.log, ctx.now(), event);
        self.release_end(ctx, node, correlator, true);
        let input = NetInput::LinkOrphaned {
            circuit,
            side,
            correlator,
        };
        self.qnp_input(ctx, node, circuit, input);
    }

    /// A QNP node asks its `side` link to generate pairs for `label`.
    #[allow(clippy::too_many_arguments)] // mirrors the LinkSubmit output fields
    pub(super) fn link_submit(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        side: LinkSide,
        label: LinkLabel,
        min_fidelity: f64,
        weight: f64,
    ) {
        let link = self.side_link(circuit, node, side);
        let evs = self.links[link.0 as usize].proto.submit(LinkRequest {
            label,
            min_fidelity,
            demand: PairDemand::Continuous,
            weight,
        });
        for e in evs {
            let LinkEvent::Rejected(l, reason) = e else {
                continue;
            };
            if self.cfg.signalling_on_wire {
                // The admission verdict comes back from the link over
                // the classical plane.
                let (la, lb) = self.links[link.0 as usize].proto.nodes();
                let peer = if la == node { lb } else { la };
                let downstream = side == LinkSide::Upstream;
                self.transmit_frame(ctx, peer, node, downstream, |b| {
                    qn_net::wire::encode_link_event(&LinkEvent::Rejected(l, reason), b)
                });
            } else {
                let event = NetEvent::LinkRequestRejected {
                    node,
                    label: l,
                    reason,
                };
                emit(&mut self.log, ctx.now(), event);
            }
        }
        self.poll_link(ctx, link);
    }

    pub(super) fn link_set_weight(
        &mut self,
        node: NodeId,
        circuit: CircuitId,
        side: LinkSide,
        label: LinkLabel,
        weight: f64,
    ) {
        let link = self.side_link(circuit, node, side);
        self.links[link.0 as usize].proto.set_weight(label, weight);
    }

    /// A QNP node withdraws `label` from its `side` link; an attempt in
    /// flight for it dies uncharged.
    pub(super) fn link_stop(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        side: LinkSide,
        label: LinkLabel,
    ) {
        let link = self.side_link(circuit, node, side);
        let proto = &mut self.links[link.0 as usize].proto;
        let was_generating = proto.generating() == Some(label);
        proto.stop(label);
        if was_generating {
            self.take_inflight(ctx, link);
        }
        self.poll_link(ctx, link);
    }

    /// Reconcile a link's generation activity with the up/down state of
    /// the link and its endpoints: pause (aborting any heralding attempt
    /// in flight) when any of the three is down; resume and re-poll when
    /// all are healthy again.
    pub(super) fn refresh_link_activity(&mut self, ctx: &mut Context<'_, Ev>, link: LinkId) {
        let l = &self.links[link.0 as usize];
        let alive = l.up && self.nodes[l.a.0 as usize].up && self.nodes[l.b.0 as usize].up;
        if alive {
            self.links[link.0 as usize].proto.resume();
            self.poll_link(ctx, link);
        } else {
            self.links[link.0 as usize].proto.pause();
            self.abort_link_inflight(ctx, link);
        }
    }

    /// Cancel a heralding attempt in flight on the link, charging the
    /// protocol the elapsed time.
    fn abort_link_inflight(&mut self, ctx: &mut Context<'_, Ev>, link: LinkId) {
        if let Some(inflight) = self.take_inflight(ctx, link) {
            let elapsed = ctx.now().since(inflight.started);
            let proto = &mut self.links[link.0 as usize].proto;
            proto.on_generation_aborted(inflight.label, elapsed);
        }
    }

    /// Take the link's attempt in flight, if any: its generation event
    /// is descheduled and the reserved communication qubits return to
    /// their devices.
    fn take_inflight(&mut self, ctx: &mut Context<'_, Ev>, link: LinkId) -> Option<Inflight> {
        let inflight = self.links[link.0 as usize].inflight.take()?;
        ctx.cancel(inflight.event);
        for (node, qubit) in inflight.qubits {
            self.nodes[node.0 as usize].device.free(qubit);
        }
        Some(inflight)
    }
}
