//! Routing signalling: circuit teardown and, with
//! `signalling_on_wire`, the hop-by-hop INSTALL/TEARDOWN chain, each
//! hop acked and retransmitted independently.

use super::*;

/// Retransmission timer for one unacknowledged signalling hop.
#[derive(Clone, Copy)]
struct SignalRetry {
    attempt: u32,
    event: EventId,
}

/// Wire-borne signalling state of one circuit. The struct outlives the
/// circuit so that late duplicates of already-processed frames still
/// draw a re-ack (which is what stops the sender's retransmission).
struct SignalRt {
    path: Vec<NodeId>,
    /// Routing entries aligned with `path` (cutoff overrides applied).
    entries: Vec<RoutingEntry>,
    /// Whether `path[i]` has processed its INSTALL.
    installed: Vec<bool>,
    /// Whether `path[i]` has processed its TEARDOWN.
    torn: Vec<bool>,
    /// Teardown supersedes installation (stale INSTALL acks are ignored
    /// once set, so they cannot cancel a TEARDOWN retransmit timer).
    tearing: bool,
    /// `pending[i]` guards the unacked frame from `path[i]` to
    /// `path[i + 1]`.
    pending: Vec<Option<SignalRetry>>,
}

impl SignalRt {
    /// The frame `path[hop]` sends to `path[hop + 1]`: INSTALL, or
    /// TEARDOWN once tearing.
    fn frame(&self, circuit: CircuitId, hop: usize) -> (SignalMessage, NodeId, NodeId) {
        let msg = if self.tearing {
            SignalMessage::Teardown { circuit }
        } else {
            SignalMessage::Install {
                entry: self.entries[hop + 1],
            }
        };
        (msg, self.path[hop], self.path[hop + 1])
    }

    /// Start tearing: every retransmission still pending is cancelled.
    fn start_tearing(&mut self, ctx: &mut Context<'_, Ev>) {
        self.tearing = true;
        for slot in &mut self.pending {
            if let Some(retry) = slot.take() {
                ctx.cancel(retry.event);
            }
        }
    }

    /// The hop-`i` ack arrived: stop its retransmission, unless the
    /// pending frame is of the other kind (a straggling INSTALL ack must
    /// not cancel a TEARDOWN, nor the reverse).
    fn acked(&mut self, ctx: &mut Context<'_, Ev>, i: usize, teardown: bool) {
        if self.tearing == teardown {
            if let Some(retry) = self.pending[i].take() {
                ctx.cancel(retry.event);
            }
        }
    }
}

/// The signalling chains, indexed like the runtime's circuits (slots
/// stay populated after teardown so late duplicates still draw
/// re-acks).
#[derive(Default)]
pub(super) struct SignalChains(Vec<Option<SignalRt>>);

impl SignalChains {
    fn get(&mut self, circuit: CircuitId) -> Option<&mut SignalRt> {
        self.0.get_mut(circuit.0 as usize).and_then(Option::as_mut)
    }

    /// Retransmit timers currently armed (leak introspection).
    pub(super) fn pending(&self) -> usize {
        let chains = self.0.iter().flatten();
        chains.map(|st| st.pending.iter().flatten().count()).sum()
    }
}

impl NetworkModel {
    /// The wire half of [`NetworkModel::install_circuit`]: record the
    /// chain that [`Ev::SignalKick`] starts down the path.
    pub(super) fn install_signal_chain(&mut self, installed: &InstalledCircuit) {
        // The signaller builds one entry per path node, in path order.
        // The cutoff override is applied here, so the bytes on the wire
        // are the entries the nodes install.
        let entries = installed.entries.iter();
        let entries = entries.map(|(_, entry)| self.node_entry(entry)).collect();
        let n = installed.path.len();
        let idx = installed.circuit.0 as usize;
        let chains = &mut self.signal_state.0;
        if chains.len() <= idx {
            chains.resize_with(idx + 1, || None);
        }
        chains[idx] = Some(SignalRt {
            path: installed.path.clone(),
            entries,
            installed: vec![false; n],
            torn: vec![false; n],
            tearing: false,
            pending: vec![None; n],
        });
    }

    /// Arm the retransmit timer guarding hop `hop`, returning the one it
    /// supersedes.
    fn arm_signal_retry(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        circuit: CircuitId,
        hop: usize,
        attempt: u32,
    ) -> Option<SignalRetry> {
        let delay = self.cfg.retransmit.backoff(attempt);
        let event = ctx.schedule_in(delay, Ev::SignalRetransmit { circuit, hop });
        let st = self.signal_state.get(circuit)?;
        st.pending[hop].replace(SignalRetry { attempt, event })
    }

    /// Send the signalling frame (INSTALL, or TEARDOWN once tearing)
    /// from `path[hop]` to `path[hop + 1]` and arm its retransmit timer.
    fn send_signal_hop(&mut self, ctx: &mut Context<'_, Ev>, circuit: CircuitId, hop: usize) {
        let Some(st) = self.signal_state.get(circuit) else {
            return;
        };
        let (msg, from, to) = st.frame(circuit, hop);
        self.transmit_frame(ctx, from, to, true, |b| msg.encode_to(b));
        // An unacked INSTALL's timer may still guard this hop when a
        // TEARDOWN overtakes it; the new frame supersedes it.
        if let Some(old) = self.arm_signal_retry(ctx, circuit, hop, 0) {
            ctx.cancel(old.event);
        }
    }

    /// A signalling retransmit timer fired for the frame from
    /// `path[hop]` to `path[hop + 1]`.
    pub(super) fn signal_retransmit_fire(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        circuit: CircuitId,
        hop: usize,
    ) {
        let Some(st) = self.signal_state.get(circuit) else {
            return;
        };
        let Some(retry) = st.pending[hop].take() else {
            return; // acknowledged meanwhile
        };
        let frame = st.frame(circuit, hop);
        let Some(attempt) = self.cfg.retransmit.next_attempt(retry.attempt) else {
            self.plane.stats.retransmits_abandoned += 1;
            return;
        };
        self.plane.stats.signal_retransmits += 1;
        self.arm_signal_retry(ctx, circuit, hop, attempt);
        let (msg, from, to) = frame;
        self.transmit_frame(ctx, from, to, true, |b| msg.encode_to(b));
    }

    /// Kick off a wire-borne installation: the head installs locally and
    /// the INSTALL chain starts down the path.
    pub(super) fn signal_kick(&mut self, ctx: &mut Context<'_, Ev>, circuit: CircuitId) {
        let Some(st) = self.signal_state.get(circuit) else {
            return;
        };
        if st.tearing || st.installed[0] {
            return;
        }
        st.installed[0] = true;
        let (head, entry, more) = (st.path[0], st.entries[0], st.path.len() > 1);
        self.qnp_input(ctx, head, circuit, NetInput::InstallCircuit { entry });
        if more {
            self.send_signal_hop(ctx, circuit, 0);
        }
    }

    /// Demuxed handler for routing-signalling frames (kinds
    /// `0x20..=0x23`) arriving over the wire.
    pub(super) fn handle_signal_frame(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        to: NodeId,
        frame: &[u8],
    ) {
        let msg = match SignalMessage::decode(frame) {
            Ok(msg) => msg,
            Err(err) => {
                self.plane.stats.signal_decode_failures += 1;
                let event = NetEvent::FrameUndecodable {
                    node: to,
                    plane: FramePlane::Signalling,
                    err,
                };
                return emit(&mut self.log, ctx.now(), event);
            }
        };
        use SignalMessage as Sm;
        let circuit = match msg {
            Sm::Install { entry } => entry.circuit,
            Sm::Teardown { circuit } | Sm::InstallAck { circuit } | Sm::TeardownAck { circuit } => {
                circuit
            }
        };
        // Position of the receiving node on the signalled path. Frames
        // for unknown circuits (corrupted id) or from nodes off the path
        // are stale noise: drop.
        let Some(st) = self.signal_state.get(circuit) else {
            return;
        };
        let Some(i) = st.path.iter().position(|n| *n == to) else {
            return;
        };
        let last = st.path.len() - 1;
        let (first, ack) = match msg {
            Sm::InstallAck { .. } => return st.acked(ctx, i, false),
            Sm::TeardownAck { .. } => return st.acked(ctx, i, true),
            // The head signals locally, never via wire.
            _ if i == 0 => return,
            Sm::Install { .. } => {
                let first = !st.installed[i] && !st.tearing;
                st.installed[i] = true;
                (first, Sm::InstallAck { circuit })
            }
            Sm::Teardown { .. } => {
                let first = !st.torn[i];
                st.torn[i] = true;
                st.tearing = true;
                (first, Sm::TeardownAck { circuit })
            }
        };
        let prev = st.path[i - 1];
        if first {
            let input = match msg {
                Sm::Install { entry } => NetInput::InstallCircuit { entry },
                _ => NetInput::TeardownCircuit { circuit },
            };
            self.qnp_input(ctx, to, circuit, input);
            if i < last {
                self.send_signal_hop(ctx, circuit, i);
            } else if matches!(msg, Sm::Teardown { .. }) {
                self.finish_teardown(circuit);
            }
        }
        // Always ack — re-acks recover lost acks; a node caught by
        // teardown acks an INSTALL too (the sender must stop either way).
        self.plane.stats.signal_acks += 1;
        self.transmit_frame(ctx, to, prev, false, |b| ack.encode_to(b));
    }

    /// Tear a circuit down at every node: the QNP aborts requests and
    /// releases pairs; the label mapping is removed so in-flight link
    /// generations for the circuit are dropped at delivery.
    pub(super) fn teardown(&mut self, ctx: &mut Context<'_, Ev>, circuit: CircuitId) {
        if self.cfg.signalling_on_wire {
            return self.teardown_wire(ctx, circuit);
        }
        let Some(path) = self.path(circuit).map(<[NodeId]>::to_vec) else {
            return;
        };
        for node in path {
            self.qnp_input(ctx, node, circuit, NetInput::TeardownCircuit { circuit });
        }
        self.finish_teardown(circuit);
        emit(&mut self.log, ctx.now(), NetEvent::TornDown { circuit });
    }

    /// Wire-borne teardown: cancel outstanding INSTALL retransmissions,
    /// tear the head down locally, and start the TEARDOWN chain.
    fn teardown_wire(&mut self, ctx: &mut Context<'_, Ev>, circuit: CircuitId) {
        let Some(st) = self.signal_state.get(circuit) else {
            return;
        };
        if st.tearing {
            return;
        }
        st.torn[0] = true;
        st.start_tearing(ctx);
        let (head, more) = (st.path[0], st.path.len() > 1);
        self.qnp_input(ctx, head, circuit, NetInput::TeardownCircuit { circuit });
        emit(
            &mut self.log,
            ctx.now(),
            NetEvent::TeardownSignalled { circuit },
        );
        if more {
            self.send_signal_hop(ctx, circuit, 0);
        } else {
            self.finish_teardown(circuit);
        }
    }

    /// A dead node left no peer to ack the chain: every hop counts as
    /// torn and no retransmission stays armed.
    pub(super) fn abandon_signalling(&mut self, ctx: &mut Context<'_, Ev>, circuit: CircuitId) {
        if let Some(st) = self.signal_state.get(circuit) {
            st.start_tearing(ctx);
            st.torn.fill(true);
        }
    }

    /// Final bookkeeping once every node tore the circuit down: only
    /// now do in-flight generations stop routing and the circuit slot
    /// free (`side_link`/`path` must work until every node tore
    /// down).
    pub(super) fn finish_teardown(&mut self, circuit: CircuitId) {
        self.forget_labels(circuit);
        if let Some(slot) = self.circuits.get_mut(circuit.0 as usize) {
            *slot = None;
        }
    }
}
