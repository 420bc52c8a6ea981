//! The effects a QNP node requests, and the application accounting:
//! request submission and cancellation at the head-end and oracle
//! annotation of every delivery.

use super::*;

impl NetworkModel {
    /// Apply the effects a QNP node requested.
    pub(super) fn process_outputs(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        outs: Vec<NetOutput>,
    ) {
        for out in outs {
            match out {
                NetOutput::SendUpstream(msg) => self.send_output(ctx, node, circuit, false, msg),
                NetOutput::SendDownstream(msg) => self.send_output(ctx, node, circuit, true, msg),
                NetOutput::TrackAcked { origin } => self.ends.ack_track(ctx, node, origin),
                NetOutput::LinkSubmit {
                    side,
                    label,
                    min_fidelity,
                    weight,
                } => self.link_submit(ctx, node, circuit, side, label, min_fidelity, weight),
                NetOutput::LinkSetWeight {
                    side,
                    label,
                    weight,
                } => self.link_set_weight(node, circuit, side, label, weight),
                NetOutput::LinkStop { side, label } => {
                    self.link_stop(ctx, node, circuit, side, label)
                }
                NetOutput::StartSwap { up, down } => {
                    debug_assert!(self.ends.owner(node, up.correlator).is_some());
                    debug_assert!(self.ends.owner(node, down.correlator).is_some());
                    let params = self.nodes[node.0 as usize].device.params();
                    let dur = params.gates.two_qubit.duration
                        + params.gates.electron_single.duration
                        + 2.0 * params.gates.readout.duration;
                    let event = NetEvent::SwapStart {
                        node,
                        up: up.correlator,
                        down: down.correlator,
                    };
                    emit(&mut self.log, ctx.now(), event);
                    ctx.schedule_in(
                        SimDuration::from_secs_f64(dur),
                        Ev::SwapDone {
                            node,
                            circuit,
                            up: up.correlator,
                            down: down.correlator,
                        },
                    );
                }
                NetOutput::SetCutoff { pair, side, after } => {
                    if after.is_infinite() {
                        continue;
                    }
                    let ev = ctx.schedule_in(
                        after,
                        Ev::Cutoff {
                            node,
                            circuit,
                            side,
                            correlator: pair.correlator,
                        },
                    );
                    self.ends.arm_cutoff(node, pair.correlator, ev);
                }
                NetOutput::CancelCutoff { pair } => {
                    self.ends.cancel_cutoff(ctx, node, pair.correlator)
                }
                NetOutput::DiscardPair { pair } => {
                    self.discarded_pairs += 1;
                    let event = NetEvent::Discard {
                        node,
                        pair: pair.correlator,
                    };
                    emit(&mut self.log, ctx.now(), event);
                    self.release_end(ctx, node, pair.correlator, true);
                }
                NetOutput::MeasureNow { pair, basis } => {
                    let params = self.nodes[node.0 as usize].device.params();
                    let dur = params.gates.readout.duration;
                    ctx.schedule_in(
                        SimDuration::from_secs_f64(dur),
                        Ev::MeasureDone {
                            node,
                            circuit,
                            correlator: pair.correlator,
                            basis,
                        },
                    );
                }
                NetOutput::ApplyCorrection { pair, pauli } => {
                    if let Some(pid) = self.ends.owner(node, pair.correlator) {
                        self.pairs.apply_pauli(pid, node, pauli, ctx.now());
                        let event = NetEvent::Pauli {
                            node,
                            pauli,
                            pair: pair.correlator,
                        };
                        emit(&mut self.log, ctx.now(), event);
                    }
                }
                NetOutput::Deliver(delivery) => {
                    self.record_delivery(ctx, node, circuit, delivery);
                }
                NetOutput::Notify(ev) => {
                    if let AppEvent::EarlyPairExpired { pair, .. } = &ev {
                        self.release_end(ctx, node, pair.correlator, false);
                    }
                    self.app.on_event(ctx.now(), node, circuit, ev);
                }
            }
        }
    }

    fn record_delivery(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        delivery: Delivery,
    ) {
        let now = ctx.now();
        // A confirmed delivery resolves the local end of the chain, so
        // its track-expiry timer must not fire later. Measured pairs
        // bypass `release_end` (the qubit slot was freed at readout), so
        // the cancellation lives here. Only the local end's correlator
        // can be in this node's row; trying both sides of the chain is
        // cheaper than resolving which end we are.
        if let Some(chain) = delivery.chain {
            for c in [chain.head, chain.tail] {
                self.ends.cancel_track_expiry(ctx, node, c);
            }
        }
        // Confirmed deliveries: read the oracle, then release the local
        // end (the application consumed the qubit). Fidelity is measured
        // against the *omniscient* frame (the pair's true quality);
        // `state_consistent` separately records whether the protocol's
        // claimed Bell state agrees. For final-state requests the tail
        // can deliver before the head's physical correction lands —
        // transiently "inconsistent" by design. EARLY qubits are
        // unconfirmed: the qubit stays live until the tracking info (or
        // an expiry notification) arrives.
        let consumed = match &delivery.kind {
            DeliveryKind::Qubit { pair, state } | DeliveryKind::EarlyTracking { pair, state } => {
                let pid = self.ends.owner(node, pair.correlator);
                pid.map(|pid| (pid, pair.correlator, *state))
            }
            DeliveryKind::EarlyQubit { .. } | DeliveryKind::Measurement { .. } => None,
        };
        let (oracle, consistent) = match consumed {
            Some((pid, _, state)) => {
                let omniscient = self.pairs.get(pid).map(|p| p.announced);
                let frame = omniscient.unwrap_or(state);
                let f = self.pairs.fidelity_to(pid, frame, now);
                (Some(f), omniscient.map(|o| o == state))
            }
            None => (None, None),
        };
        let payload = Payload::from_kind(&delivery.kind);
        if consistent == Some(false) {
            self.state_mismatches += 1;
        }
        let event = NetEvent::Deliver {
            node,
            request: delivery.request,
            sequence: delivery.sequence,
            payload,
        };
        emit(&mut self.log, now, event);
        self.app.deliveries.push(DeliveryRecord {
            time: now,
            node,
            circuit,
            request: delivery.request,
            sequence: delivery.sequence,
            chain: delivery.chain,
            payload,
            oracle_fidelity: oracle,
            state_consistent: consistent,
        });
        if let Some((_, correlator, _)) = consumed {
            self.release_end(ctx, node, correlator, false);
        }
    }

    /// Scenario hooks: an application submits or cancels a request at
    /// the circuit's head-end. A submission starts the request's clock.
    pub(super) fn head_input(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        circuit: CircuitId,
        input: NetInput,
    ) {
        let head = self.path(circuit).expect("circuit installed")[0];
        if let NetInput::UserRequest { request, .. } = &input {
            self.app.submitted.insert((circuit, request.id), ctx.now());
        }
        self.qnp_input(ctx, head, circuit, input);
    }
}
