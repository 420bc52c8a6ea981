//! Quantum operations: timed noisy swaps and measurements against the
//! pair store, the near-term move to carbon storage, and the hand-off
//! of a link pair to a node's QNP.

use super::*;

impl NetworkModel {
    /// Deliver a link pair announcement to one node's QNP, routing
    /// near-term repeaters through the move-to-storage step first.
    pub(super) fn deliver_link_pair(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        pid: PairId,
        circuit: CircuitId,
        side: LinkSide,
        info: PairInfo,
    ) {
        // Near-term repeaters must move the pair into carbon storage
        // before the shared electron frees up; the network layer learns
        // of the pair once it is safely stored.
        if self.cfg.near_term && self.is_intermediate_on(circuit, node) {
            if let Some(storage) = self.nodes[node.0 as usize].device.alloc_storage() {
                let params = self.nodes[node.0 as usize].device.params();
                let move_time = 2.0 * params.gates.two_qubit.duration
                    + params.gates.carbon_init.map(|g| g.duration).unwrap_or(0.0);
                ctx.schedule_in(
                    SimDuration::from_secs_f64(move_time),
                    Ev::MoveDone {
                        node,
                        pair: pid,
                        storage,
                        circuit,
                        side,
                        info,
                    },
                );
                return;
            }
            // No storage: the electron stays occupied; deliver anyway.
        }
        let input = NetInput::LinkPair {
            circuit,
            side,
            info,
        };
        self.qnp_input(ctx, node, circuit, input);
    }

    #[allow(clippy::too_many_arguments)] // mirrors the MoveDone event fields
    pub(super) fn move_done(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        pid: PairId,
        storage: QubitId,
        circuit: CircuitId,
        side: LinkSide,
        info: PairInfo,
    ) {
        // The pair may have died while moving (other end discarded).
        if !self.pairs.contains(pid) || self.pairs.get(pid).and_then(|p| p.end_at(node)).is_none() {
            self.nodes[node.0 as usize].device.free(storage);
            return;
        }
        let params = *self.nodes[node.0 as usize].device.params();
        let (t1, t2) = self.nodes[node.0 as usize].device.coherence_times(storage);
        // Transfer noise: two E-C gates plus carbon initialisation.
        let f_move = params.gates.two_qubit.fidelity
            * params.gates.two_qubit.fidelity
            * params.gates.carbon_init.map(|g| g.fidelity).unwrap_or(1.0);
        let p_move = qn_quantum::channels::depolarizing_param_for_fidelity(f_move, 2);
        let electron = self
            .pairs
            .retarget_end(pid, node, storage, t1, t2, p_move, ctx.now());
        self.nodes[node.0 as usize].device.free(electron);
        emit(&mut self.log, ctx.now(), NetEvent::Move { node, storage });
        let input = NetInput::LinkPair {
            circuit,
            side,
            info,
        };
        self.qnp_input(ctx, node, circuit, input);
        self.poll_links_of(ctx, node);
    }

    pub(super) fn swap_done(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        up: Correlator,
        down: Correlator,
    ) {
        // Resolve the correlators to the pairs *currently* holding the
        // local qubits (a neighbour's swap may have re-pointed them).
        let (Some(up_pid), Some(down_pid)) =
            (self.ends.owner(node, up), self.ends.owner(node, down))
        else {
            // Circuit torn down mid-swap; the SM state went with it.
            return;
        };
        let rt = &mut self.nodes[node.0 as usize];
        let noise = rt
            .swap_noise
            .get_or_insert_with(|| SwapNoise::from_params(rt.device.params()));
        let rng = &mut self.rng_nodes[node.0 as usize];
        let res = self
            .pairs
            .swap(up_pid, down_pid, node, ctx.now(), noise, rng);
        // Free the two local slots.
        for (n, q) in res.freed {
            debug_assert_eq!(n, node);
            self.nodes[n.0 as usize].device.free(q);
        }
        // Re-point surviving references to the joined pair.
        let consumed = [(up_pid, up), (down_pid, down)];
        if !self.ends.rejoin(ctx, node, consumed, res.new_pair) {
            // Both outer ends were already abandoned: drop the pair.
            self.pairs.discard(res.new_pair);
        }
        let event = NetEvent::SwapDone {
            node,
            outcome: res.outcome,
        };
        emit(&mut self.log, ctx.now(), event);
        let input = NetInput::SwapCompleted {
            circuit,
            up,
            down,
            outcome: res.outcome,
            new_handle: PairHandle(res.new_pair.0),
        };
        self.qnp_input(ctx, node, circuit, input);
        self.poll_links_of(ctx, node);
    }

    pub(super) fn measure_done(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        correlator: Correlator,
        basis: Pauli,
    ) {
        let Some(pid) = self.ends.owner(node, correlator) else {
            return;
        };
        let readout = self.nodes[node.0 as usize].device.params().gates.readout;
        let rng = &mut self.rng_nodes[node.0 as usize];
        let result = self
            .pairs
            .measure_end(pid, node, basis, &readout, ctx.now(), rng);
        let event = NetEvent::Measure {
            node,
            pair: correlator,
            basis,
            outcome: result.reported,
        };
        emit(&mut self.log, ctx.now(), event);
        // The measured qubit's slot frees immediately; the pair state
        // stays in the store until both ends are done (correlations!).
        // The track-expiry timer stays armed — a measured pair still
        // awaits its TRACK, and the timeout is what reclaims the request
        // slot if that TRACK never arrives.
        self.ends.take_end(node, correlator);
        self.free_end(node, correlator, pid, false);
        let input = NetInput::MeasureCompleted {
            circuit,
            correlator,
            outcome: result.reported,
        };
        self.qnp_input(ctx, node, circuit, input);
        self.poll_links_of(ctx, node);
    }
}
