//! The network simulation runtime: the discrete-event [`Model`] that
//! wires the hardware substrate, the link layer and the QNP node state
//! machines together, doing everything the sans-IO cores delegate.
//!
//! One module per layer — `plane`, `linkgen`, `qops`, `ends`,
//! `signalling`, `outages`, `effects` — each owning its state and the
//! events it handles; `crates/netsim/ARCHITECTURE.md` has the map.

mod effects;
mod ends;
mod linkgen;
mod outages;
mod plane;
mod qops;
mod signalling;

// The runtime's shared vocabulary: each layer module imports it with
// `use super::*`.
use crate::app::{AppHarness, DeliveryRecord, Payload};
use crate::classical::{BatchId, ChannelModel, ClassicalFaults, ClassicalPlane, ClassicalStats};
use crate::faults::{ComponentEvent, FaultPlan};
use crate::log::{emit, EventLog, FramePlane, NetEvent, Site};
use ends::{Ends, TrackRetry};
use linkgen::{LabelInfo, LinkRt};
use qn_hardware::device::{QDevice, QubitId};
use qn_hardware::heralding::LinkPhysics;
use qn_hardware::pairs::{PairId, PairStore, SwapNoise};
use qn_link::{LinkEvent, LinkLabel, LinkProtocol, LinkRequest, PairDemand};
use qn_net::events::{AppEvent, Delivery, DeliveryKind, NetInput, NetOutput, PairInfo};
use qn_net::ids::{CircuitId, Correlator, PairHandle, PairRef, RequestId};
use qn_net::messages::{Message, Track, TrackAck};
use qn_net::node::NodeStats;
use qn_net::request::UserRequest;
use qn_net::routing_table::{LinkSide, RoutingEntry};
use qn_net::wire::{BatchView, MessageView};
use qn_net::QnpNode;
use qn_quantum::bell::BellState;
use qn_quantum::gates::Pauli;
use qn_routing::signalling::InstalledCircuit;
use qn_routing::topology::{LinkSpec, Topology};
use qn_routing::wire::SignalMessage;
use qn_sim::{Context, EventId, LinkId, Model, NodeId, SimDuration, SimRng, SimTime};
use signalling::SignalChains;

/// When the runtime advances decoherence across the whole pair store.
///
/// The default (`OnTouch`) is the lazy discipline the baselines were
/// recorded under: each pair is advanced at exactly the `SimTime`s an
/// operation touches it, so elapsed-time decay composes identically and
/// `dm` trajectories stay bit-identical. `Interval` additionally runs
/// the slab sweep ([`qn_hardware::PairStore::advance_all`]) on a fixed
/// period — useful for sustained open-world runs where the sweep keeps
/// idle-pair decay amortised and cache-linear. Interval checkpoints
/// change *where* the (divisible) T1/T2 channels are cut, which agrees
/// with the lazy path to ~1e-12 per step (pinned by
/// `prop_decoherence_sweep.rs`) but is not bit-identical; scenarios
/// that gate on tolerance-0 baselines record their baseline with the
/// same policy they run under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// Advance each pair lazily, at exactly the times operations touch
    /// it (baseline-compatible; the default).
    OnTouch,
    /// Lazy advancement plus a periodic whole-store sweep every
    /// interval. The rescheduling checkpoint event keeps the queue
    /// non-empty: run such simulations with `run_until`, not `run`.
    Interval(SimDuration),
}

/// Retransmission knobs for wire-borne signalling
/// ([`RuntimeConfig::signalling_on_wire`]). Backoff is a deterministic
/// doubling of `base` per attempt — no RNG draws, so a fault-free run
/// with retransmission configured stays bit-identical to one without.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetransmitConfig {
    /// Give up on a frame after this many re-sends (the abandonment is
    /// counted in [`ClassicalStats::retransmits_abandoned`]).
    pub max_retries: u32,
    /// Delay before the first retry; attempt `n` waits `base << n`.
    pub base: SimDuration,
}

impl Default for RetransmitConfig {
    fn default() -> Self {
        RetransmitConfig {
            max_retries: 8,
            base: SimDuration::from_millis(10),
        }
    }
}

impl RetransmitConfig {
    /// The retry rule every retransmitting path shares: after `attempt`
    /// retries, the next one is numbered `attempt + 1`, or there is none
    /// once `max_retries` are spent.
    fn next_attempt(&self, attempt: u32) -> Option<u32> {
        (attempt < self.max_retries).then_some(attempt + 1)
    }

    /// Deterministic, draw-free exponential backoff: `base << attempt`,
    /// saturating.
    fn backoff(&self, attempt: u32) -> SimDuration {
        SimDuration::from_ps(self.base.as_ps().saturating_mul(1u64 << attempt.min(20)))
    }
}

/// Runtime configuration knobs.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Pair-state representation (`QNP_QSTATE`): the Bell-diagonal
    /// fast path (default) or dense density matrices.
    pub state_rep: qn_hardware::StateRep,
    /// Per-hop message processing delay (on top of fibre propagation).
    pub processing_delay: SimDuration,
    /// Extra injected per-hop delay (Fig 10c sweep).
    pub extra_message_delay: SimDuration,
    /// Uniform per-message jitter bound (the reliable transport still
    /// delivers in order).
    pub message_jitter: SimDuration,
    /// Classical-plane fault injection (default off: the reliable
    /// in-order plane of the paper, bit-identical to the pre-fault
    /// runtime).
    pub faults: ClassicalFaults,
    /// Expire unconfirmed in-transit pairs at end-nodes after this long
    /// (default `None`). Only useful on a faulty plane, where a chain's
    /// TRACK/EXPIRE can be lost — on a reliable plane end-nodes never
    /// need timers (§4.1 "Cutoff time").
    pub track_timeout: Option<SimDuration>,
    /// Communication qubits dedicated to each link at each node
    /// (Appendix B: two in the main simulations).
    pub comm_per_link: usize,
    /// Near-term mode: one shared electron + carbon storage per node.
    pub near_term: bool,
    /// Carbon storage qubits per node (near-term mode).
    pub carbons: usize,
    /// Disable intermediate cutoff timers (the Fig 10 oracle baseline).
    pub disable_cutoff: bool,
    /// Whole-store decoherence checkpointing (see [`CheckpointPolicy`]).
    pub checkpoint: CheckpointPolicy,
    /// Record the protocol event log ([`crate::log::EventLog`]).
    pub trace: bool,
    /// Carry link-layer (PAIR_READY/REQUEST_DONE/REJECTED) and routing
    /// signalling (INSTALL/TEARDOWN) frames over the classical plane —
    /// with real latency, batching and fault injection — instead of the
    /// default instantaneous local hand-off of the structs. Enables the
    /// hop-by-hop INSTALL/TEARDOWN ack chain and end-to-end TRACK
    /// acknowledgement + retransmission. Default off: every recorded
    /// baseline was produced without it and stays bit-identical.
    pub signalling_on_wire: bool,
    /// Retransmission bounds and backoff (only consulted when
    /// `signalling_on_wire` is set).
    pub retransmit: RetransmitConfig,
    /// Component-level fault plan: scheduled and stochastic link
    /// outages and node crashes (see [`crate::faults::FaultPlan`]).
    /// The empty default plan schedules no events and draws no
    /// randomness — bit-identical to the pre-fault runtime.
    pub fault_plan: FaultPlan,
    /// Per-link overrides of the message-level fault model. Links not
    /// listed keep the global [`RuntimeConfig::faults`]. Empty by
    /// default; the no-override path is bit-identical to the global
    /// path (same single `classical-faults` RNG substream, same draw
    /// order).
    pub link_faults: Vec<(NodeId, NodeId, ClassicalFaults)>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            state_rep: qn_hardware::StateRep::from_env(),
            processing_delay: SimDuration::from_micros(5),
            extra_message_delay: SimDuration::ZERO,
            message_jitter: SimDuration::ZERO,
            faults: ClassicalFaults::OFF,
            track_timeout: None,
            comm_per_link: 2,
            near_term: false,
            carbons: 0,
            disable_cutoff: false,
            checkpoint: CheckpointPolicy::OnTouch,
            trace: false,
            signalling_on_wire: false,
            retransmit: RetransmitConfig::default(),
            fault_plan: FaultPlan::new(),
            link_faults: Vec::new(),
        }
    }
}

/// The event alphabet of the network model.
pub enum Ev {
    /// A coalesced batch of encoded classical frames arrives at a node.
    /// The receiver drains the batch in order, decoding each inner frame
    /// once with its plane's one decoder (`qn_net::wire::MessageView`
    /// for the data plane); frames that fail to decode are counted and
    /// dropped — the bytes, not the structs, are the interface.
    BatchDeliver {
        /// Receiving node.
        to: NodeId,
        /// Whether the sender is the receiver's upstream neighbour (the
        /// batch lane: frames only coalesce within one orientation).
        from_upstream: bool,
        /// The plane's open-batch handle to drain.
        batch: BatchId,
        /// The physical hop the batch travels on. A component fault can
        /// take the hop down while the batch is in flight: delivery
        /// checks the link (and receiver) are still up and otherwise
        /// drops the whole batch on the floor.
        link: LinkId,
    },
    /// A track-timeout armed for an unconfirmed end-node pair fired
    /// (faulty-plane resilience; never armed by default).
    TrackExpiry {
        /// The end-node holding the pair.
        node: NodeId,
        /// The pair's circuit.
        circuit: CircuitId,
        /// The pair's correlator.
        correlator: Correlator,
    },
    /// Wire mode: check that the PAIR_READY announcing this pair actually
    /// arrived. A qubit whose announcement was lost is invisible to the
    /// QNP — no cutoff timer, no TRACK handling — so the runtime reclaims
    /// it and tells the protocol the correlator is dead.
    OrphanCheck {
        /// The node holding the (possibly orphaned) qubit.
        node: NodeId,
        /// The pair's circuit.
        circuit: CircuitId,
        /// The pair's correlator.
        correlator: Correlator,
        /// Which of the node's links produced it.
        side: LinkSide,
    },
    /// A link generation process heralds success.
    GenDone {
        /// The link that succeeded.
        link: LinkId,
    },
    /// A swap circuit finishes at a node.
    ///
    /// Pairs are referenced by correlator and resolved to physical pairs
    /// at completion time: the neighbour at the other end of a link pair
    /// may have swapped it meanwhile (its gates act on disjoint qubits,
    /// so sequential application of the two swaps is exact).
    SwapDone {
        /// Swapping node.
        node: NodeId,
        /// Circuit of the swap.
        circuit: CircuitId,
        /// Correlator of the upstream pair.
        up: Correlator,
        /// Correlator of the downstream pair.
        down: Correlator,
    },
    /// A readout finishes at a node.
    MeasureDone {
        /// Measuring node.
        node: NodeId,
        /// Circuit of the measured pair.
        circuit: CircuitId,
        /// The measured pair's correlator at this node.
        correlator: Correlator,
        /// Measurement basis.
        basis: Pauli,
    },
    /// A cutoff timer fires.
    Cutoff {
        /// Node holding the pair.
        node: NodeId,
        /// Circuit of the pair.
        circuit: CircuitId,
        /// Which link the pair belongs to at this node.
        side: LinkSide,
        /// The pair's correlator.
        correlator: Correlator,
    },
    /// A move-to-carbon-storage completes (near-term mode).
    MoveDone {
        /// Node performing the move.
        node: NodeId,
        /// The moved pair.
        pair: PairId,
        /// Destination storage qubit.
        storage: QubitId,
        /// Deferred LinkPair info to deliver to the local QNP.
        circuit: CircuitId,
        /// Side of the circuit at this node.
        side: LinkSide,
        /// The pair announcement.
        info: PairInfo,
    },
    /// A TRACK retransmission timer fired at the end-node that
    /// originated the chain (`signalling_on_wire` only). The node
    /// re-sends its TRACK unless the chain was acknowledged meanwhile.
    TrackRetransmit {
        /// The originating end-node.
        node: NodeId,
        /// The chain's circuit.
        circuit: CircuitId,
        /// Correlator of the origin link pair (the retransmit key).
        origin: Correlator,
    },
    /// Start a wire-borne circuit installation at the head of the path
    /// (`signalling_on_wire` only): the head installs locally and sends
    /// the first INSTALL frame to its downstream neighbour.
    SignalKick {
        /// The circuit to install.
        circuit: CircuitId,
    },
    /// A routing-signalling retransmission timer fired: the INSTALL (or
    /// TEARDOWN, once tearing) from `path[hop]` to `path[hop + 1]` was
    /// never acknowledged.
    SignalRetransmit {
        /// The circuit being signalled.
        circuit: CircuitId,
        /// Index of the *sending* node on the circuit's path.
        hop: usize,
    },
    /// A scheduled redundant copy of an idempotent request-level
    /// message (FORWARD/COMPLETE) on a lossy wire (`signalling_on_wire`
    /// with loss faults): the request fan-out is one-shot in the
    /// protocol and wedges the circuit forever if a copy is lost, so
    /// the runtime re-sends it on a bounded deterministic backoff —
    /// receivers absorb the duplicates — instead of adding an ack
    /// channel the paper doesn't have.
    RequestResend {
        /// The re-sending node.
        node: NodeId,
        /// The circuit the message rides on.
        circuit: CircuitId,
        /// Direction of the original send.
        downstream: bool,
        /// Copies already scheduled (bounds the redundancy).
        attempt: u32,
        /// The message to re-send, verbatim.
        msg: Message,
    },
    /// Scenario hook: submit an application request at the head-end.
    SubmitRequest {
        /// Circuit to use.
        circuit: CircuitId,
        /// The request.
        request: UserRequest,
    },
    /// Scenario hook: cancel a request at the head-end.
    CancelRequest {
        /// Circuit carrying the request.
        circuit: CircuitId,
        /// The request to cancel.
        request: RequestId,
    },
    /// Scenario hook: tear the circuit down at every node (loss of
    /// classical connectivity, operator action).
    Teardown {
        /// The circuit to remove.
        circuit: CircuitId,
    },
    /// Periodic whole-store decoherence sweep
    /// ([`CheckpointPolicy::Interval`]); reschedules itself.
    Checkpoint,
    /// A component fault from the run's [`FaultPlan`] comes due: a link
    /// goes down or comes back, a node crashes or restarts. The whole
    /// schedule is expanded (deterministically per seed) before the run
    /// starts; an empty plan schedules none of these.
    ComponentFault {
        /// What happens to which component.
        event: ComponentEvent,
    },
}

// Every queue entry carries an `Ev`, so its size is paid on every push
// and every heap sift. `RequestResend`'s owned `Message` (80 B) sets it
// today; `SubmitRequest`'s `UserRequest` (72 B) is next.
const _: () = assert!(std::mem::size_of::<Ev>() <= 104);

struct NodeRt {
    qnp: QnpNode,
    device: QDevice,
    /// The swap circuit's noise, built from the device parameters on
    /// the node's first swap.
    swap_noise: Option<SwapNoise>,
    /// False while the node is crashed: it processes no frames, its
    /// links do not generate, and its volatile protocol state is gone.
    up: bool,
}

/// The (upstream, downstream) neighbours of `node` on a circuit's path.
/// Paths are a handful of hops; a linear scan beats any map.
fn neighbours(path: &[NodeId], node: NodeId) -> (Option<NodeId>, Option<NodeId>) {
    let i = path
        .iter()
        .position(|n| *n == node)
        .expect("node is on the circuit path");
    let up = (i > 0).then(|| path[i - 1]);
    let down = (i + 1 < path.len()).then(|| path[i + 1]);
    (up, down)
}

/// The complete network simulation model.
pub struct NetworkModel {
    topology: Topology,
    cfg: RuntimeConfig,
    nodes: Vec<NodeRt>,
    links: Vec<LinkRt>,
    /// All live entangled pairs.
    pub pairs: PairStore,
    /// Every pair end a node holds, and its timers.
    ends: Ends,
    /// Per-link label table: one short row per link, scanned linearly
    /// (a link carries a handful of circuit labels).
    label_map: Vec<Vec<(LinkLabel, LabelInfo)>>,
    /// The path of each installed circuit, indexed by `CircuitId` (ids
    /// are allocated densely from 1 by the signaller; torn-down slots go
    /// `None`).
    circuits: Vec<Option<Vec<NodeId>>>,
    /// Wire-borne signalling chains (`signalling_on_wire` only).
    signal_state: SignalChains,
    /// Application observations.
    pub app: AppHarness,
    /// Protocol event log (`Some` when [`RuntimeConfig::trace`] is set).
    pub log: Option<EventLog>,
    rng_links: Vec<SimRng>,
    rng_nodes: Vec<SimRng>,
    rng_msgs: SimRng,
    plane: ClassicalPlane,
    /// Shared encode buffer: every outgoing frame (data plane and
    /// signalling) is encoded here instead of a fresh `Vec`.
    scratch: qn_net::wire::ScratchEncoder,
    /// Diagnostics: protocol-vs-omniscient state mismatches observed.
    pub state_mismatches: u64,
    /// Diagnostics: pairs released before use.
    pub discarded_pairs: u64,
    /// Message-fault model of each hop, indexed by `LinkId`: the global
    /// [`RuntimeConfig::faults`] with the per-link overrides applied.
    link_faults: Vec<ClassicalFaults>,
    /// Whether *any* hop can lose frames — global loss/corruption
    /// faults, a per-link override with either, or a component fault
    /// plan (a downed hop eats frames). Gates the blind request-level
    /// redundancy: one-shot FORWARD/COMPLETE fan-out wedges a circuit
    /// forever if its only copy dies on such a hop.
    lossy_wire: bool,
}

impl NetworkModel {
    /// Build the model over a topology with the given seed and config.
    pub fn new(topology: Topology, seed: u64, cfg: RuntimeConfig) -> Self {
        cfg.faults
            .validate()
            .expect("classical fault probabilities");
        cfg.fault_plan
            .validate(&topology)
            .expect("component fault plan");
        let node_ids = topology.nodes();
        let n_nodes = node_ids.len();
        assert_eq!(
            node_ids.iter().map(|n| n.0 as usize).max().unwrap_or(0) + 1,
            n_nodes,
            "node ids must be dense 0..n"
        );
        let mut nodes = Vec::with_capacity(n_nodes);
        for id in &node_ids {
            let links = topology.links_of(*id);
            // Per-node hardware params: taken from the first attached link
            // (the paper's evaluations use identical hardware everywhere).
            let params = *topology.link(links[0]).physics.params();
            let device = if cfg.near_term {
                QDevice::near_term(*id, cfg.carbons, params)
            } else {
                QDevice::per_link(*id, &links, cfg.comm_per_link, params)
            };
            nodes.push(NodeRt {
                qnp: QnpNode::new(*id),
                device,
                swap_noise: None,
                up: true,
            });
        }
        let links: Vec<LinkRt> = topology.links().iter().map(LinkRt::new).collect();
        let mut link_faults = vec![cfg.faults; links.len()];
        for (a, b, faults) in &cfg.link_faults {
            faults.validate().expect("per-link fault probabilities");
            let link = topology
                .link_between(*a, *b)
                .expect("per-link fault override names an existing link");
            link_faults[link.0 as usize] = *faults;
        }
        let lossy = |f: &ClassicalFaults| f.drop > 0.0 || f.corrupt > 0.0;
        let lossy_wire = lossy(&cfg.faults)
            || cfg.link_faults.iter().any(|(_, _, f)| lossy(f))
            || !cfg.fault_plan.is_empty();
        let rng_links = (0..links.len())
            .map(|i| SimRng::substream_indexed(seed, "link", i as u64))
            .collect();
        let rng_nodes = (0..n_nodes)
            .map(|i| SimRng::substream_indexed(seed, "node", i as u64))
            .collect();
        NetworkModel {
            label_map: links.iter().map(|_| Vec::new()).collect(),
            topology,
            nodes,
            links,
            pairs: PairStore::with_rep(cfg.state_rep),
            ends: Ends::new(n_nodes),
            circuits: Vec::new(),
            signal_state: SignalChains::default(),
            app: AppHarness::default(),
            log: cfg.trace.then(EventLog::new),
            rng_links,
            rng_nodes,
            rng_msgs: SimRng::substream(seed, "messages"),
            plane: ClassicalPlane::new(seed),
            scratch: qn_net::wire::ScratchEncoder::new(),
            cfg,
            state_mismatches: 0,
            discarded_pairs: 0,
            link_faults,
            lossy_wire,
        }
    }

    /// Classical-plane traffic counters.
    pub fn classical_stats(&self) -> ClassicalStats {
        self.plane.stats
    }

    /// Protocol resilience counters, aggregated over all nodes.
    pub fn node_stats(&self) -> NodeStats {
        let mut total = NodeStats::default();
        for n in &self.nodes {
            total.merge(&n.qnp.stats);
        }
        total
    }

    /// Install a circuit (signalling action): registers labels, records
    /// path metadata, and feeds the routing entries to the nodes.
    ///
    /// Returns `true` when `signalling_on_wire` is set: the entries are
    /// *not* installed here — the caller must schedule
    /// [`Ev::SignalKick`] so the INSTALL chain walks the path over the
    /// classical plane with real latency and fault exposure.
    pub fn install_circuit(&mut self, installed: &InstalledCircuit) -> bool {
        let idx = installed.circuit.0 as usize;
        if self.circuits.len() <= idx {
            self.circuits.resize_with(idx + 1, || None);
        }
        self.circuits[idx] = Some(installed.path.clone());
        self.register_labels(installed);
        if self.cfg.signalling_on_wire {
            self.install_signal_chain(installed);
            return true;
        }
        for (node, entry) in &installed.entries {
            let entry = self.node_entry(entry);
            let outs = self.nodes[node.0 as usize]
                .qnp
                .handle(NetInput::InstallCircuit { entry });
            debug_assert!(outs.is_empty());
        }
        false
    }

    /// The routing entry a node installs: the signalled one, with the
    /// cutoff disabled for the Fig 10 oracle baseline.
    fn node_entry(&self, entry: &RoutingEntry) -> RoutingEntry {
        let mut entry = *entry;
        if self.cfg.disable_cutoff {
            entry.cutoff = SimDuration::MAX;
        }
        entry
    }

    /// The path of an installed circuit, head-end first.
    fn path(&self, circuit: CircuitId) -> Option<&[NodeId]> {
        self.circuits.get(circuit.0 as usize)?.as_deref()
    }

    /// `node`'s downstream (or upstream) neighbour on `circuit`.
    fn neighbour(&self, circuit: CircuitId, node: NodeId, downstream: bool) -> NodeId {
        let (up, down) = neighbours(self.path(circuit).expect("circuit installed"), node);
        if downstream { down } else { up }.expect("neighbour on the circuit path")
    }

    /// The link on `side` of `node` for `circuit`.
    fn side_link(&self, circuit: CircuitId, node: NodeId, side: LinkSide) -> LinkId {
        let peer = self.neighbour(circuit, node, side == LinkSide::Downstream);
        self.topology
            .link_between(node, peer)
            .expect("circuit hops follow links")
    }

    /// Whether `node` is an intermediate (repeater) on the circuit.
    fn is_intermediate_on(&self, circuit: CircuitId, node: NodeId) -> bool {
        self.path(circuit).is_some_and(|path| {
            let (u, d) = neighbours(path, node);
            u.is_some() && d.is_some()
        })
    }

    /// Hand one input to a node's QNP and apply the effects it requests.
    fn qnp_input(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        input: NetInput,
    ) {
        let outs = self.nodes[node.0 as usize].qnp.handle(input);
        self.process_outputs(ctx, node, circuit, outs);
    }

    /// A [`CheckpointPolicy::Interval`] sweep came due: advance every
    /// pair to now and schedule the next sweep.
    fn checkpoint(&mut self, ctx: &mut Context<'_, Ev>) {
        self.pairs.advance_all(ctx.now());
        if let CheckpointPolicy::Interval(dt) = self.cfg.checkpoint {
            ctx.schedule_in(dt, Ev::Checkpoint);
        }
    }
}

impl Model for NetworkModel {
    type Event = Ev;

    fn handle(&mut self, _now: SimTime, event: Ev, ctx: &mut Context<'_, Ev>) {
        match event {
            Ev::BatchDeliver {
                to,
                from_upstream,
                batch,
                link,
            } => self.batch_deliver(ctx, to, from_upstream, batch, link),
            Ev::TrackExpiry {
                node,
                circuit,
                correlator,
            } => self.track_expiry_fire(ctx, node, circuit, correlator),
            Ev::OrphanCheck {
                node,
                circuit,
                correlator,
                side,
            } => self.orphan_check(ctx, node, circuit, correlator, side),
            Ev::GenDone { link } => self.gen_done(ctx, link),
            Ev::SwapDone {
                node,
                circuit,
                up,
                down,
            } => self.swap_done(ctx, node, circuit, up, down),
            Ev::MeasureDone {
                node,
                circuit,
                correlator,
                basis,
            } => self.measure_done(ctx, node, circuit, correlator, basis),
            Ev::Cutoff {
                node,
                circuit,
                side,
                correlator,
            } => self.cutoff_fire(ctx, node, circuit, side, correlator),
            Ev::MoveDone {
                node,
                pair,
                storage,
                circuit,
                side,
                info,
            } => self.move_done(ctx, node, pair, storage, circuit, side, info),
            Ev::TrackRetransmit {
                node,
                circuit,
                origin,
            } => self.track_retransmit_fire(ctx, node, circuit, origin),
            Ev::SignalKick { circuit } => self.signal_kick(ctx, circuit),
            Ev::SignalRetransmit { circuit, hop } => self.signal_retransmit_fire(ctx, circuit, hop),
            Ev::RequestResend {
                node,
                circuit,
                downstream,
                attempt,
                msg,
            } => self.request_resend_fire(ctx, node, circuit, downstream, attempt, msg),
            Ev::SubmitRequest { circuit, request } => {
                self.head_input(ctx, circuit, NetInput::UserRequest { circuit, request })
            }
            Ev::CancelRequest { circuit, request } => {
                self.head_input(ctx, circuit, NetInput::CancelRequest { circuit, request })
            }
            Ev::Teardown { circuit } => self.teardown(ctx, circuit),
            Ev::Checkpoint => self.checkpoint(ctx),
            Ev::ComponentFault { event } => self.component_fault(ctx, event),
        }
    }
}
