//! The three workloads: seeded input generation, set-up and the run
//! script, written once against [`Net`] so the benchmark's own runner and
//! the library façade execute the same script.
//!
//! Load is open-loop in simulated time: every arrival is precomputed
//! from the benchmark seed before set-up, and nothing waits for a
//! completion. A request's latency runs from its due time (the
//! `SubmitRequest` event) to its head-end completion.

use crate::net::Net;
use qn_hardware::params::{FibreParams, HardwareParams};
use qn_hardware::StateRep;
use qn_net::{Address, CircuitId, Demand, RequestId, RequestType, UserRequest};
use qn_netsim::app::Payload;
use qn_netsim::{CheckpointPolicy, ClassicalFaults, FaultPlan, RetransmitConfig, RuntimeConfig};
use qn_routing::{chain, dumbbell, grid, CutoffPolicy, Topology};
use qn_sim::{NodeId, SimDuration, SimRng, SimTime};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DumbbellDm,
    OpenworldChurn,
    /// The chain with signalling on the wire and lossy classical
    /// frames, but no component faults.
    ChainLossyWire,
    /// The chain with every link failing and being repaired. It never
    /// quiesces (see `README.md`), so it fails its leak check until the
    /// runtime is fixed.
    ChainChaosWire,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DumbbellDm,
        Workload::OpenworldChurn,
        Workload::ChainLossyWire,
        Workload::ChainChaosWire,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DumbbellDm => "dumbbell_dm",
            Workload::OpenworldChurn => "openworld_churn",
            Workload::ChainLossyWire => "chain_lossy_wire",
            Workload::ChainChaosWire => "chain_chaos_wire",
        }
    }

    /// How the wired chain is disturbed, for the two chain workloads.
    fn chain(self) -> Option<ChainSpec> {
        match self {
            Workload::DumbbellDm | Workload::OpenworldChurn => None,
            Workload::ChainLossyWire => Some(ChainSpec {
                disturbance: Disturbance::FrameLoss(CHAIN_DROP),
                interval: SimDuration::from_millis(600),
                horizon: SimDuration::from_secs(2_000),
            }),
            Workload::ChainChaosWire => Some(ChainSpec {
                disturbance: Disturbance::LinkChurn(CHAOS_MTTR),
                interval: SimDuration::from_millis(1_200),
                horizon: SimDuration::from_secs(600),
            }),
        }
    }

    /// Whether the run settles after its horizon, so that nothing may be
    /// left behind.
    pub fn settles(self) -> bool {
        self.chain().is_some()
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the run uses the Bell-diagonal representation, the only
    /// one the library façade can build.
    pub fn has_facade_twin(self) -> bool {
        self != Workload::DumbbellDm
    }
}

// --- dumbbell_dm: the Fig 9 congested dumbbell -------------------------

/// A0–B0 3-pair requests arrive every 200 ms for `DUMBBELL_ARRIVALS`,
/// then the run drains. Fig 9's congested knee lies between 150 and
/// 100 ms; at 150 ms the queue's excursions make the latency tail swing
/// several-fold from seed to seed, at 200 ms it is far steadier.
const DUMBBELL_INTERVAL: SimDuration = SimDuration::from_millis(200);
const DUMBBELL_ARRIVALS: SimDuration = SimDuration::from_secs(120);
const DUMBBELL_DRAIN: SimDuration = SimDuration::from_secs(10);
const DUMBBELL_FIDELITY: f64 = 0.9;
const DUMBBELL_PAIRS: u64 = 3;

// --- openworld_churn: circuit churn on a 3×3 grid ----------------------

const OW_RATE_HZ: f64 = 2.0;
const OW_MEAN_LIFETIME_S: f64 = 12.0;
const OW_MAX_PAIRS: u64 = 6;
const OW_FIDELITY: f64 = 0.8;
const OW_HORIZON: SimDuration = SimDuration::from_secs(4_800);
const OW_CHECKPOINT: SimDuration = SimDuration::from_millis(250);

// --- chain_lossy_wire / chain_chaos_wire: a 4-chain, signalling on the wire

const CHAIN_NODES: usize = 4;
const CHAIN_PAIRS: u64 = 2;
const CHAIN_FIDELITY: f64 = 0.8;
const CHAIN_TRACK_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// Share of classical frames lost on `chain_lossy_wire`. Lost frames
/// stall a few requests for seconds while the links keep generating, so
/// the run's work and latency tail rest on those rare stalls: at 0.02
/// the peak RSS ranged over 16–26 MiB from seed to seed, at 0.05 with
/// 3300 requests (600 ms apart for 2000 s) every end-to-end metric is
/// steady.
const CHAIN_DROP: f64 = 0.05;
const CHAOS_MTBF: SimDuration = SimDuration::from_millis(600);
const CHAOS_MTTR: SimDuration = SimDuration::from_millis(300);
/// Quiescent run after the horizon: half of it is a grace window, then
/// stragglers are cancelled and the rest drains. The drain must outlast
/// the TRACK retransmit backoff (~5.1 s) for the leak counters to read
/// zero.
const CHAIN_SETTLE: SimDuration = SimDuration::from_secs(12);

/// How a wired chain workload is disturbed, and for how long.
struct ChainSpec {
    disturbance: Disturbance,
    /// Time between request arrivals.
    interval: SimDuration,
    /// End of the request stream and of the fault schedule.
    horizon: SimDuration,
}

enum Disturbance {
    /// This share of classical frames is lost.
    FrameLoss(f64),
    /// Every link fails with `CHAOS_MTBF` and is repaired with this mean
    /// time to repair.
    LinkChurn(SimDuration),
}

/// A circuit arrival of `openworld_churn`.
#[derive(Clone, Copy, Debug)]
struct Arrival {
    at: SimTime,
    head: NodeId,
    tail: NodeId,
    n_pairs: u64,
    lifetime: SimDuration,
}

/// Everything a run of one workload is built from, generated from the
/// benchmark seed.
pub struct Inputs {
    pub workload: Workload,
    /// The runtime's RNG seed.
    model_seed: u64,
    arrivals: Vec<Arrival>,
}

/// A network that has been set up, and the requests placed on it.
pub struct Prepared<N> {
    pub net: N,
    /// Requests the workload tried to place (plan failures included).
    attempted: u64,
    plan_failures: u64,
    /// Placed requests whose completion the run measures.
    placed: Vec<(CircuitId, RequestId)>,
}

/// The simulation-domain result of one run: a pure function of the
/// inputs, compared bit for bit across repeats and runners.
#[derive(Clone, Debug, PartialEq)]
pub struct SimOutcome {
    pub events: u64,
    pub sim_seconds: f64,
    pub attempted: u64,
    pub plan_failures: u64,
    /// Requests placed but not completed by the time the run judges
    /// completion (the horizon, or the grace deadline of a settle).
    pub not_completed: u64,
    /// Submit-to-completion latencies of completed requests, sorted.
    pub latencies: Vec<f64>,
    pub confirmed_pairs: u64,
    pub fidelity_sum: f64,
    pub fidelity_n: u64,
    /// Order-sensitive hash of every delivery record.
    pub delivery_digest: u64,
    pub deliveries: u64,
}

fn keep_request(id: u64, head: NodeId, tail: NodeId, f: f64, n: u64) -> UserRequest {
    UserRequest {
        id: RequestId(id),
        head: Address {
            node: head,
            identifier: 0,
        },
        tail: Address {
            node: tail,
            identifier: 0,
        },
        min_fidelity: f,
        demand: Demand::Pairs { n, deadline: None },
        request_type: RequestType::Keep,
        final_state: None,
    }
}

/// Pareto(α) sample with scale `xm`; the mean is `xm · α / (α − 1)`.
fn pareto(rng: &mut SimRng, xm: f64, alpha: f64) -> f64 {
    xm / (1.0 - rng.f64()).powf(1.0 / alpha)
}

fn grid_id(x: u32, y: u32) -> NodeId {
    NodeId(y * 3 + x)
}

fn openworld_arrivals(seed: u64) -> Vec<Arrival> {
    // The two diagonals and the middle row: every circuit crosses the
    // grid interior, so concurrent circuits contend for links.
    let candidates = [
        (grid_id(0, 0), grid_id(2, 2)),
        (grid_id(2, 0), grid_id(0, 2)),
        (grid_id(0, 1), grid_id(2, 1)),
    ];
    let mut rng = SimRng::substream_indexed(seed, "perfbench-openworld", 0);
    let horizon = OW_HORIZON.as_secs_f64();
    // α = 1.5 ⇒ mean = 3·xm.
    let lifetime_xm = OW_MEAN_LIFETIME_S / 3.0;
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += rng.exponential(OW_RATE_HZ);
        if t >= horizon {
            return out;
        }
        let (head, tail) = candidates[rng.below(candidates.len() as u64) as usize];
        let n_pairs = (pareto(&mut rng, 1.0, 1.5).floor() as u64).clamp(1, OW_MAX_PAIRS);
        let lifetime = pareto(&mut rng, lifetime_xm, 1.5);
        out.push(Arrival {
            at: SimTime::ZERO + SimDuration::from_secs_f64(t),
            head,
            tail,
            n_pairs,
            lifetime: SimDuration::from_secs_f64(lifetime),
        });
    }
}

/// Every `RuntimeConfig` field, set explicitly: `RuntimeConfig::default`
/// reads `QNP_QSTATE`, and a default that moves under a workload would
/// change the program behind its name.
#[allow(clippy::field_reassign_with_default)]
fn runtime_config(
    state_rep: StateRep,
    checkpoint: CheckpointPolicy,
    signalling_on_wire: bool,
    track_timeout: Option<SimDuration>,
    faults: ClassicalFaults,
    fault_plan: FaultPlan,
) -> RuntimeConfig {
    let mut c = RuntimeConfig::default();
    c.state_rep = state_rep;
    c.processing_delay = SimDuration::from_micros(5);
    c.extra_message_delay = SimDuration::ZERO;
    c.message_jitter = SimDuration::ZERO;
    c.faults = faults;
    c.track_timeout = track_timeout;
    c.comm_per_link = 2;
    c.near_term = false;
    c.carbons = 0;
    c.disable_cutoff = false;
    c.checkpoint = checkpoint;
    c.trace = false;
    c.signalling_on_wire = signalling_on_wire;
    c.retransmit = RetransmitConfig {
        max_retries: 8,
        base: SimDuration::from_millis(10),
    };
    c.fault_plan = fault_plan;
    c.link_faults = Vec::new();
    c
}

fn hardware() -> (HardwareParams, FibreParams) {
    (HardwareParams::simulation(), FibreParams::lab_2m())
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let arrivals = match workload {
            Workload::OpenworldChurn => openworld_arrivals(seed),
            Workload::DumbbellDm | Workload::ChainLossyWire | Workload::ChainChaosWire => {
                Vec::new()
            }
        };
        Inputs {
            workload,
            model_seed: seed,
            arrivals,
        }
    }

    /// Simulated span of one run.
    pub fn horizon(&self) -> SimTime {
        SimTime::ZERO
            + match self.workload {
                Workload::DumbbellDm => DUMBBELL_ARRIVALS + DUMBBELL_DRAIN,
                Workload::OpenworldChurn => OW_HORIZON,
                Workload::ChainLossyWire | Workload::ChainChaosWire => {
                    self.chain().horizon + CHAIN_SETTLE
                }
            }
    }

    fn chain(&self) -> ChainSpec {
        self.workload.chain().expect("a chain workload")
    }

    /// One line describing the generated inputs.
    pub fn describe(&self) -> String {
        match self.workload {
            Workload::DumbbellDm => format!(
                "Fig 9 dumbbell, dense states, on-touch decoherence: saturating A1-B1 KEEP flow; \
                 A0-B0 {DUMBBELL_PAIRS}-pair requests every {} ms for {} s, F={DUMBBELL_FIDELITY}, \
                 then {} s drain",
                DUMBBELL_INTERVAL.as_millis_f64(),
                DUMBBELL_ARRIVALS.as_secs_f64(),
                DUMBBELL_DRAIN.as_secs_f64()
            ),
            Workload::OpenworldChurn => format!(
                "3x3 grid, Bell states, {} ms checkpoint: {} Poisson circuit arrivals at {OW_RATE_HZ} Hz \
                 over {} s, Pareto lifetimes (mean {OW_MEAN_LIFETIME_S} s), Pareto sizes <= {OW_MAX_PAIRS} \
                 pairs, F={OW_FIDELITY}",
                OW_CHECKPOINT.as_millis_f64(),
                self.arrivals.len(),
                OW_HORIZON.as_secs_f64()
            ),
            Workload::ChainLossyWire | Workload::ChainChaosWire => {
                let c = self.chain();
                let disturbance = match c.disturbance {
                    Disturbance::FrameLoss(drop) => format!("{drop} of classical frames lost"),
                    Disturbance::LinkChurn(mttr) => format!(
                        "MTBF {} ms / MTTR {} ms on every link",
                        CHAOS_MTBF.as_millis_f64(),
                        mttr.as_millis_f64()
                    ),
                };
                format!(
                    "{CHAIN_NODES}-chain, Bell states, signalling on the wire, on-touch decoherence: \
                     {disturbance} for {} s, {CHAIN_PAIRS}-pair requests every {} ms, \
                     {} s track timeout, {} s settle with straggler cancellation",
                    c.horizon.as_secs_f64(),
                    c.interval.as_millis_f64(),
                    CHAIN_TRACK_TIMEOUT.as_secs_f64(),
                    CHAIN_SETTLE.as_secs_f64()
                )
            }
        }
    }

    /// Topology, configuration, engine (through `make`), and everything
    /// placed before the first event.
    pub fn setup<N: Net>(
        &self,
        make: impl FnOnce(Topology, u64, RuntimeConfig) -> N,
    ) -> Prepared<N> {
        let (p, f) = hardware();
        match self.workload {
            Workload::DumbbellDm => {
                let (topology, d) = dumbbell(p, f);
                let cfg = runtime_config(
                    StateRep::Dm,
                    CheckpointPolicy::OnTouch,
                    false,
                    None,
                    ClassicalFaults::OFF,
                    FaultPlan::new(),
                );
                let mut net = make(topology, self.model_seed, cfg);
                let short = CutoffPolicy::short();
                let vc = net
                    .open_circuit(d.a0, d.b0, DUMBBELL_FIDELITY, short)
                    .expect("A0-B0 plans on the dumbbell");
                let background = net
                    .open_circuit(d.a1, d.b1, DUMBBELL_FIDELITY, short)
                    .expect("A1-B1 plans on the dumbbell");
                net.submit_at(
                    SimTime::ZERO,
                    background,
                    keep_request(1_000_000, d.a1, d.b1, DUMBBELL_FIDELITY, u64::MAX / 2),
                );
                let end = SimTime::ZERO + DUMBBELL_ARRIVALS;
                let mut placed = Vec::new();
                let mut t = SimTime::ZERO;
                while t < end {
                    let id = placed.len() as u64 + 1;
                    let req = keep_request(id, d.a0, d.b0, DUMBBELL_FIDELITY, DUMBBELL_PAIRS);
                    net.submit_at(t, vc, req);
                    placed.push((vc, RequestId(id)));
                    t += DUMBBELL_INTERVAL;
                }
                Prepared {
                    net,
                    attempted: placed.len() as u64,
                    plan_failures: 0,
                    placed,
                }
            }
            Workload::OpenworldChurn => {
                let cfg = runtime_config(
                    StateRep::Bell,
                    CheckpointPolicy::Interval(OW_CHECKPOINT),
                    false,
                    None,
                    ClassicalFaults::OFF,
                    FaultPlan::new(),
                );
                Prepared {
                    net: make(grid(3, 3, p, f), self.model_seed, cfg),
                    attempted: 0,
                    plan_failures: 0,
                    placed: Vec::new(),
                }
            }
            Workload::ChainLossyWire | Workload::ChainChaosWire => {
                let c = self.chain();
                let topology = chain(CHAIN_NODES, p, f);
                let mut faults = ClassicalFaults::OFF;
                let mut plan = FaultPlan::new();
                match c.disturbance {
                    Disturbance::FrameLoss(drop) => faults.drop = drop,
                    Disturbance::LinkChurn(mttr) => {
                        plan = plan.horizon(SimTime::ZERO + c.horizon);
                        for l in topology.links() {
                            plan = plan.link_mtbf(l.a, l.b, CHAOS_MTBF, mttr);
                        }
                    }
                }
                let cfg = runtime_config(
                    StateRep::Bell,
                    CheckpointPolicy::OnTouch,
                    true,
                    Some(CHAIN_TRACK_TIMEOUT),
                    faults,
                    plan,
                );
                let mut net = make(topology, self.model_seed, cfg);
                let (head, tail) = (NodeId(0), NodeId(CHAIN_NODES as u32 - 1));
                let vc = net
                    .open_circuit(head, tail, CHAIN_FIDELITY, CutoffPolicy::short())
                    .expect("the chain circuit plans");
                let end = SimTime::ZERO + c.horizon;
                let mut placed = Vec::new();
                let mut t = SimTime::ZERO;
                while t < end {
                    let id = placed.len() as u64 + 1;
                    net.submit_at(
                        t,
                        vc,
                        keep_request(id, head, tail, CHAIN_FIDELITY, CHAIN_PAIRS),
                    );
                    placed.push((vc, RequestId(id)));
                    t += c.interval;
                }
                Prepared {
                    net,
                    attempted: placed.len() as u64,
                    plan_failures: 0,
                    placed,
                }
            }
        }
    }

    /// Run to the horizon. Returns the submit-to-completion latencies of
    /// the requests that completed, judged where the workload judges
    /// completion.
    pub fn drive<N: Net>(&self, prep: &mut Prepared<N>) -> Vec<f64> {
        let net = &mut prep.net;
        match self.workload {
            Workload::DumbbellDm => {
                net.run_until(self.horizon());
                latencies(net.app(), &prep.placed)
            }
            Workload::OpenworldChurn => {
                let horizon = self.horizon();
                for (i, a) in self.arrivals.iter().enumerate() {
                    // Install each circuit at its arrival time.
                    net.run_until(a.at);
                    prep.attempted += 1;
                    let vc = match net.open_circuit(
                        a.head,
                        a.tail,
                        OW_FIDELITY,
                        CutoffPolicy::short(),
                    ) {
                        Ok(vc) => vc,
                        Err(_) => {
                            prep.plan_failures += 1;
                            continue;
                        }
                    };
                    let id = RequestId(i as u64 + 1);
                    net.submit_at(
                        a.at,
                        vc,
                        keep_request(id.0, a.head, a.tail, OW_FIDELITY, a.n_pairs),
                    );
                    prep.placed.push((vc, id));
                    let close = a.at + a.lifetime;
                    if close < horizon {
                        net.close_circuit_at(close, vc);
                    }
                }
                net.run_until(horizon);
                latencies(net.app(), &prep.placed)
            }
            Workload::ChainLossyWire | Workload::ChainChaosWire => {
                // A grace window lets requests whose retransmissions
                // survived the loss or churn complete; the rest are cancelled
                // (a bounded request abandoned by the bounded-redundancy
                // protocol would otherwise generate pairs forever) and
                // the network drains.
                let grace = SimTime::ZERO + self.chain().horizon + CHAIN_SETTLE / 2;
                net.run_until(grace);
                // Cancelling also completes a request, so completion is
                // judged before the cancellations go in.
                let lat = latencies(net.app(), &prep.placed);
                for &(vc, id) in &prep.placed {
                    if !net.app().completed.contains_key(&(vc, id)) {
                        net.cancel_at(grace, vc, id);
                    }
                }
                net.run_until(self.horizon());
                lat
            }
        }
    }

    /// Read the run's simulation-domain outcome.
    pub fn outcome<N: Net>(&self, prep: &Prepared<N>, latencies: Vec<f64>) -> SimOutcome {
        let app = prep.net.app();
        let mut digest = Fnv::new();
        let mut confirmed_ends = 0u64;
        let mut fidelity_sum = 0.0;
        let mut fidelity_n = 0u64;
        for d in &app.deliveries {
            digest.u64(d.time.as_ps());
            digest.u64(d.node.0 as u64);
            digest.u64(d.circuit.0);
            digest.u64(d.request.0);
            digest.u64(d.sequence);
            digest.u64(d.oracle_fidelity.map_or(u64::MAX, f64::to_bits));
            // A confirmed pair is one confirmed delivery at each end: a
            // Qubit directly, or an EarlyQubit later confirmed by its
            // EarlyTracking.
            if matches!(
                d.payload,
                Payload::Qubit { .. } | Payload::EarlyTracking { .. }
            ) {
                confirmed_ends += 1;
                if let Some(f) = d.oracle_fidelity {
                    fidelity_sum += f;
                    fidelity_n += 1;
                }
            }
        }
        SimOutcome {
            events: prep.net.events_processed(),
            sim_seconds: self.horizon().since(SimTime::ZERO).as_secs_f64(),
            attempted: prep.attempted,
            plan_failures: prep.plan_failures,
            not_completed: prep.placed.len() as u64 - latencies.len() as u64,
            latencies,
            confirmed_pairs: confirmed_ends / 2,
            fidelity_sum,
            fidelity_n,
            delivery_digest: digest.0,
            deliveries: app.deliveries.len() as u64,
        }
    }
}

/// Sorted latencies (simulated seconds) of the completed requests among
/// `placed`.
fn latencies(app: &qn_netsim::AppHarness, placed: &[(CircuitId, RequestId)]) -> Vec<f64> {
    let mut v: Vec<f64> = placed
        .iter()
        .filter_map(|&(c, r)| app.request_latency(c, r))
        .map(|l| l.as_secs_f64())
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}
