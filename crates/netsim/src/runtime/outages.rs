//! Component faults: executing the link outages and node crashes of the
//! run's [`crate::faults::FaultPlan`], which schedules them as
//! [`Ev::ComponentFault`] events.

use super::*;

impl NetworkModel {
    /// Dispatch one [`ComponentEvent`] from the expanded fault plan.
    pub(super) fn component_fault(&mut self, ctx: &mut Context<'_, Ev>, event: ComponentEvent) {
        match event {
            ComponentEvent::LinkDown { a, b } => self.link_down(ctx, a, b),
            ComponentEvent::LinkUp { a, b } => self.link_up(ctx, a, b),
            ComponentEvent::NodeCrash { node } => self.node_crash(ctx, node),
            ComponentEvent::NodeRestart { node } => self.node_restart(ctx, node),
        }
    }

    fn fault_link(&self, a: NodeId, b: NodeId) -> LinkId {
        self.topology
            .link_between(a, b)
            .expect("validated fault plan names an existing link")
    }

    /// A link goes down: generation halts (any heralding attempt in
    /// flight dies), new frames on the hop are dropped at the sender,
    /// in-flight batches die at delivery, and the link's live pairs are
    /// scrapped through the protocols' expiry machinery.
    fn link_down(&mut self, ctx: &mut Context<'_, Ev>, a: NodeId, b: NodeId) {
        let link = self.fault_link(a, b);
        if !self.links[link.0 as usize].up {
            return;
        }
        self.links[link.0 as usize].up = false;
        emit(&mut self.log, ctx.now(), NetEvent::LinkDown { a, b });
        self.refresh_link_activity(ctx, link);
        self.scrap_link_pairs(ctx, link);
    }

    /// A downed link comes back: resume generation (unless an endpoint
    /// is still crashed) and re-poll for queued work.
    fn link_up(&mut self, ctx: &mut Context<'_, Ev>, a: NodeId, b: NodeId) {
        let link = self.fault_link(a, b);
        if self.links[link.0 as usize].up {
            return;
        }
        self.links[link.0 as usize].up = true;
        emit(&mut self.log, ctx.now(), NetEvent::LinkUp { a, b });
        self.refresh_link_activity(ctx, link);
    }

    /// A node crashes: its volatile protocol state is lost, every pair
    /// end it holds is reclaimed, its timers are disarmed, its attached
    /// links halt, and circuits routed through it are torn down
    /// end-to-end by the management plane (end-nodes see
    /// [`qn_net::events::AppEvent::CircuitDown`]). Counters
    /// ([`qn_net::node::NodeStats`]) survive — they model the
    /// experimenter's observability, not device memory.
    fn node_crash(&mut self, ctx: &mut Context<'_, Ev>, node: NodeId) {
        let idx = node.0 as usize;
        if !self.nodes[idx].up {
            return;
        }
        self.nodes[idx].up = false;
        emit(&mut self.log, ctx.now(), NetEvent::NodeCrash { node });
        // Tear down circuits through the node first, while the path
        // metadata is still installed: live path nodes discard their
        // queued pairs and stop their link requests through the normal
        // teardown rule; the dead node is skipped (its state is gone).
        let affected: Vec<CircuitId> = self
            .circuits
            .iter()
            .enumerate()
            .filter(|(_, path)| path.as_ref().is_some_and(|path| path.contains(&node)))
            .map(|(i, _)| CircuitId(i as u64))
            .collect();
        for circuit in affected {
            self.teardown_by_fault(ctx, circuit, node);
        }
        // The crash wipes the node's protocol state; stale correlators
        // arriving after restart hit a fresh instance and are absorbed
        // (and counted) by the anomaly rules.
        let stats = self.nodes[idx].qnp.stats;
        self.nodes[idx].qnp = QnpNode::new(node);
        self.nodes[idx].qnp.stats = stats;
        self.forget_node(ctx, node);
        // Attached links can no longer generate.
        for link in self.topology.links_of(node) {
            self.refresh_link_activity(ctx, link);
        }
    }

    /// A crashed node restarts with a blank protocol instance and
    /// re-registers its links: any attached link whose other pieces are
    /// healthy resumes generation immediately.
    fn node_restart(&mut self, ctx: &mut Context<'_, Ev>, node: NodeId) {
        let idx = node.0 as usize;
        if self.nodes[idx].up {
            return;
        }
        self.nodes[idx].up = true;
        emit(&mut self.log, ctx.now(), NetEvent::NodeRestart { node });
        for link in self.topology.links_of(node) {
            self.refresh_link_activity(ctx, link);
        }
    }

    /// Scrap every live pair end whose correlator was generated on a
    /// link that just died, through the protocols' own expiry machinery:
    /// end-nodes expire the pair as if its track-timeout fired,
    /// repeaters as if its cutoff fired (both paths discard the pair,
    /// record the dead correlator and recover lost TRACKs with EXPIREs).
    /// Ends the protocol never learned of (announcement lost with the
    /// link) are reclaimed directly, like the orphan check would.
    fn scrap_link_pairs(&mut self, ctx: &mut Context<'_, Ev>, link: LinkId) {
        let (a, b) = (self.links[link.0 as usize].a, self.links[link.0 as usize].b);
        let (lo, hi) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        for node in [a, b] {
            let held = self.ends.held(node, |c| c.node_a == lo && c.node_b == hi);
            for correlator in held {
                let Some(info) = self.label_knowing(link, node, correlator) else {
                    self.discarded_pairs += 1;
                    self.release_end(ctx, node, correlator, true);
                    continue;
                };
                if self.is_intermediate_on(info.circuit, node) {
                    self.cutoff_fire(ctx, node, info.circuit, info.side(node), correlator);
                } else {
                    self.track_expiry_fire(ctx, node, info.circuit, correlator);
                }
            }
        }
    }

    /// Management-plane teardown after a node death: every *live* node
    /// on the path drops the circuit through the normal teardown rule
    /// (end-nodes report [`qn_net::events::AppEvent::CircuitDown`] to
    /// their applications); wire-signalling retransmit timers for the
    /// circuit are disarmed — there is no peer left to ack them.
    fn teardown_by_fault(&mut self, ctx: &mut Context<'_, Ev>, circuit: CircuitId, dead: NodeId) {
        let Some(path) = self.path(circuit).map(<[NodeId]>::to_vec) else {
            return;
        };
        self.abandon_signalling(ctx, circuit);
        for node in path {
            if node == dead || !self.nodes[node.0 as usize].up {
                continue;
            }
            self.qnp_input(ctx, node, circuit, NetInput::TeardownCircuit { circuit });
        }
        self.finish_teardown(circuit);
    }
}
