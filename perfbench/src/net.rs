//! Two ways to drive one workload script: the benchmark's own
//! `Simulation<M>` runner, which times the routing calls and can host
//! the traced model, and the library's `NetworkBuilder`/`NetSim`
//! façade, used once per run to check that the two set the run up the
//! same way.

use crate::layers::Hosted;
use qn_net::{CircuitId, RequestId, UserRequest};
use qn_netsim::{
    AppHarness, CheckpointPolicy, Ev, NetSim, NetworkBuilder, NetworkModel, RuntimeConfig,
};
use qn_routing::{Controller, CutoffPolicy, PlanError, Signaller, Topology};
use qn_sim::{NodeId, SimTime, Simulation};
use std::time::{Duration, Instant};

/// What a workload script needs from a running network.
pub trait Net {
    fn open_circuit(
        &mut self,
        head: NodeId,
        tail: NodeId,
        fidelity: f64,
        cutoff: CutoffPolicy,
    ) -> Result<CircuitId, PlanError>;
    fn submit_at(&mut self, at: SimTime, circuit: CircuitId, request: UserRequest);
    fn cancel_at(&mut self, at: SimTime, circuit: CircuitId, request: RequestId);
    fn close_circuit_at(&mut self, at: SimTime, circuit: CircuitId);
    fn run_until(&mut self, horizon: SimTime);
    fn app(&self) -> &AppHarness;
    fn events_processed(&self) -> u64;
}

/// Routing work done by the runner: `Controller::plan` calls, and
/// `Signaller::install` plus `NetworkModel::install_circuit` for the
/// plans that succeeded.
#[derive(Clone, Copy, Default, Debug)]
pub struct RoutingTally {
    pub plans: u64,
    pub failures: u64,
    pub plan_time: Duration,
    pub install_time: Duration,
}

impl RoutingTally {
    pub fn total(&self) -> Duration {
        self.plan_time + self.install_time
    }
}

/// The benchmark's copy of `NetSim`: a plain single-queue
/// `Simulation` over a runtime model `M` (the bare `NetworkModel`, or
/// the traced wrapper).
pub struct Direct<M: Hosted> {
    pub sim: Simulation<M>,
    topology: Topology,
    signaller: Signaller,
    pub routing: RoutingTally,
}

impl<M: Hosted> Direct<M> {
    /// Construct the engine and schedule what `NetworkBuilder::build`
    /// schedules before the first event: the periodic checkpoint and
    /// the expanded component-fault plan.
    pub fn build(
        topology: Topology,
        seed: u64,
        cfg: RuntimeConfig,
        wrap: impl FnOnce(NetworkModel) -> M,
    ) -> Self {
        let checkpoint = cfg.checkpoint;
        let fault_plan = cfg.fault_plan.clone();
        let model = NetworkModel::new(topology.clone(), seed, cfg);
        let mut sim = Simulation::new(wrap(model));
        if let CheckpointPolicy::Interval(dt) = checkpoint {
            sim.schedule_at(SimTime::ZERO + dt, Ev::Checkpoint);
        }
        if !fault_plan.is_empty() {
            for (at, event) in fault_plan.expand(seed) {
                sim.schedule_at(at, Ev::ComponentFault { event });
            }
        }
        Direct {
            sim,
            topology,
            signaller: Signaller::new(),
            routing: RoutingTally::default(),
        }
    }

    pub fn net(&self) -> &NetworkModel {
        self.sim.model().net()
    }
}

impl<M: Hosted> Net for Direct<M> {
    fn open_circuit(
        &mut self,
        head: NodeId,
        tail: NodeId,
        fidelity: f64,
        cutoff: CutoffPolicy,
    ) -> Result<CircuitId, PlanError> {
        let t0 = Instant::now();
        let plan = Controller::new(&self.topology, cutoff).plan(head, tail, fidelity);
        let t1 = Instant::now();
        self.routing.plans += 1;
        self.routing.plan_time += t1 - t0;
        let plan = match plan {
            Ok(plan) => plan,
            Err(e) => {
                self.routing.failures += 1;
                return Err(e);
            }
        };
        let installed = self.signaller.install(&self.topology, plan);
        let kick = self.sim.model_mut().net_mut().install_circuit(&installed);
        self.routing.install_time += t1.elapsed();
        if kick {
            let now = self.sim.now();
            self.sim.schedule_at(
                now,
                Ev::SignalKick {
                    circuit: installed.circuit,
                },
            );
        }
        Ok(installed.circuit)
    }

    fn submit_at(&mut self, at: SimTime, circuit: CircuitId, request: UserRequest) {
        self.sim
            .schedule_at(at, Ev::SubmitRequest { circuit, request });
    }

    fn cancel_at(&mut self, at: SimTime, circuit: CircuitId, request: RequestId) {
        self.sim
            .schedule_at(at, Ev::CancelRequest { circuit, request });
    }

    fn close_circuit_at(&mut self, at: SimTime, circuit: CircuitId) {
        self.signaller.teardown(circuit);
        self.sim.schedule_at(at, Ev::Teardown { circuit });
    }

    fn run_until(&mut self, horizon: SimTime) {
        self.sim.run_until(horizon);
    }

    fn app(&self) -> &AppHarness {
        &self.net().app
    }

    fn events_processed(&self) -> u64 {
        self.sim.processed()
    }
}

/// Build the same run through the library's builder. Every
/// `RuntimeConfig` field the builder can set is passed on; the state
/// representation has no builder call (the library reads it from the
/// environment), so only Bell-diagonal runs have a façade twin.
pub fn facade(topology: Topology, seed: u64, cfg: RuntimeConfig) -> NetSim {
    assert_eq!(
        cfg.state_rep,
        qn_hardware::StateRep::Bell,
        "the façade cannot select a state representation"
    );
    let mut b = NetworkBuilder::new(topology)
        .seed(seed)
        .processing_delay(cfg.processing_delay)
        .extra_message_delay(cfg.extra_message_delay)
        .message_jitter(cfg.message_jitter)
        .classical_faults(cfg.faults)
        .comm_per_link(cfg.comm_per_link)
        .checkpoint(cfg.checkpoint)
        .retransmit(cfg.retransmit)
        .fault_plan(cfg.fault_plan);
    if let Some(t) = cfg.track_timeout {
        b = b.track_timeout(t);
    }
    if cfg.near_term {
        b = b.near_term(cfg.carbons);
    }
    if cfg.disable_cutoff {
        b = b.disable_cutoff();
    }
    if cfg.trace {
        b = b.with_trace();
    }
    if cfg.signalling_on_wire {
        b = b.signalling_on_wire();
    }
    for (x, y, f) in cfg.link_faults {
        b = b.link_faults(x, y, f);
    }
    b.build()
}

impl Net for NetSim {
    fn open_circuit(
        &mut self,
        head: NodeId,
        tail: NodeId,
        fidelity: f64,
        cutoff: CutoffPolicy,
    ) -> Result<CircuitId, PlanError> {
        NetSim::open_circuit(self, head, tail, fidelity, cutoff)
    }

    fn submit_at(&mut self, at: SimTime, circuit: CircuitId, request: UserRequest) {
        NetSim::submit_at(self, at, circuit, request)
    }

    fn cancel_at(&mut self, at: SimTime, circuit: CircuitId, request: RequestId) {
        NetSim::cancel_at(self, at, circuit, request)
    }

    fn close_circuit_at(&mut self, at: SimTime, circuit: CircuitId) {
        NetSim::close_circuit_at(self, at, circuit)
    }

    fn run_until(&mut self, horizon: SimTime) {
        NetSim::run_until(self, horizon);
    }

    fn app(&self) -> &AppHarness {
        NetSim::app(self)
    }

    fn events_processed(&self) -> u64 {
        NetSim::events_processed(self)
    }
}
