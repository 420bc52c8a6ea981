//! Criterion micro-benchmarks of the core data structures: the event
//! queue, the density-matrix operations behind every entanglement swap,
//! the heralded-state construction, the link scheduler, circuit planning
//! and link admission (`routing_plan_grid3x3`, `link_admission`), the Bell
//! tracking algebra, the quantum kernel's two pair-state
//! representations side by side (`*_bell` vs `*_dm`), and the classical
//! plane's wire codec and delivery paths (`message_parse`,
//! `zero_copy_vs_owned_decode/view`, `encode_scratch_vs_alloc/scratch`,
//! `batch_vs_single_delivery/batched`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use qn_hardware::device::QubitId;
use qn_hardware::heralding::LinkPhysics;
use qn_hardware::pairs::{PairStore, SwapNoise};
use qn_hardware::params::{FibreParams, HardwareParams};
use qn_hardware::StateRep;
use qn_link::{LinkLabel, LinkProtocol, LinkRequest, PairDemand, TimeShareScheduler};
use qn_net::wire::{batch_append, batch_begin, BatchView, ScratchEncoder};
use qn_net::{
    CircuitId, Complete, Correlator, Epoch, Expire, Forward, Message, MessageView, RequestId,
    RequestType, Track,
};
use qn_quantum::bell::BellState;
use qn_quantum::gates::Pauli;
use qn_quantum::measure::bell_measure_ideal;
use qn_quantum::pairstate::PairState;
use qn_routing::{grid, Controller, CutoffPolicy};
use qn_sim::{EventQueue, NodeId, SimDuration, SimRng, SimTime};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        b.iter_batched(
            EventQueue::new,
            |mut q| {
                for i in 0..1000u64 {
                    q.push(SimTime::from_ps(i * 37 % 500), i);
                }
                while q.pop().is_some() {}
                q
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_density_matrix(c: &mut Criterion) {
    c.bench_function("ideal_bell_measurement_4q", |b| {
        let joint = BellState::PHI_PLUS
            .density()
            .tensor(&BellState::PSI_PLUS.density());
        b.iter(|| bell_measure_ideal(&joint, 1, 2, 0.3));
    });

    c.bench_function("noisy_swap_full_pipeline", |b| {
        // One persistent store (the in-run shape: conditional-map
        // tables amortise across swaps); pairs recreated per iteration
        // because the swap consumes them. Runs on the `QNP_QSTATE`
        // default representation. Under `QNP_QSTATE=dm` it explains
        // perfbench `dumbbell_dm`'s `qn_netsim.SwapDone.self_s` per
        // event, the bulk of its `layer.qops`.
        let params = HardwareParams::simulation();
        let noise = SwapNoise::from_params(&params);
        let mut store = PairStore::new();
        let mut rng = SimRng::from_seed(7);
        b.iter(|| {
            let mut mk = |na: u32, nb: u32, qa: u32, qb: u32| {
                store.create(
                    SimTime::ZERO,
                    BellState::PSI_PLUS.density(),
                    BellState::PSI_PLUS,
                    [
                        (NodeId(na), QubitId(qa), 3600.0, 60.0),
                        (NodeId(nb), QubitId(qb), 3600.0, 60.0),
                    ],
                )
            };
            let a = mk(0, 1, 0, 0);
            let b_ = mk(1, 2, 1, 0);
            let res = store.swap(
                a,
                b_,
                NodeId(1),
                SimTime::ZERO + SimDuration::from_micros(500),
                &noise,
                &mut rng,
            );
            store.discard(res.new_pair);
        });
    });

    c.bench_function("heralded_state_construction", |b| {
        let physics = LinkPhysics::new(HardwareParams::simulation(), FibreParams::lab_2m());
        b.iter(|| physics.heralded_state(0.05, BellState::PSI_PLUS));
    });
}

/// The same four pair-level operations under both `QNP_QSTATE`
/// representations: single-qubit gate application, the two-qubit
/// depolarizing channel, the full noisy entanglement swap, and one
/// BBPSSW distillation round. Stores persist across iterations so the
/// Bell path's cached conditional-map tables amortise, exactly as they
/// do inside a simulation run.
fn bench_pair_representations(c: &mut Criterion) {
    let params = HardwareParams::simulation();
    let noise = SwapNoise::from_params(&params);
    for rep in [StateRep::Bell, StateRep::Dm] {
        let tag = rep.as_str();

        c.bench_function(&format!("pair_gate_apply_{tag}"), |b| {
            let mut state = PairState::from_density(BellState::PSI_PLUS.density(), rep);
            b.iter(|| {
                state.apply_pauli(0, Pauli::X);
                state.apply_pauli(1, Pauli::Z);
            });
        });

        // `_dm`: the dense two-qubit depolarizing channel, here on one
        // 4×4 pair. On the 4-qubit register of the dense swap it is the
        // largest step of `qn_netsim.SwapDone.self_s` (and so of
        // `layer.qops`) on perfbench `dumbbell_dm`.
        c.bench_function(&format!("pair_kraus_2q_{tag}"), |b| {
            let mut state = PairState::from_density(BellState::PSI_PLUS.density(), rep);
            b.iter(|| state.depolarize_2q(1e-3));
        });

        // `_dm`: one dense noisy swap, the cost behind perfbench
        // `dumbbell_dm`'s `qn_netsim.SwapDone.self_s` per event and the
        // bulk of its `layer.qops`.
        c.bench_function(&format!("pair_swap_{tag}"), |b| {
            let mut store = PairStore::with_rep(rep);
            let mut rng = SimRng::from_seed(7);
            let t_done = SimTime::ZERO + SimDuration::from_micros(500);
            b.iter(|| {
                let mut mk = |na: u32, nb: u32, qa: u32, qb: u32| {
                    store.create(
                        SimTime::ZERO,
                        BellState::PSI_PLUS.density(),
                        BellState::PSI_PLUS,
                        [
                            (NodeId(na), QubitId(qa), 3600.0, 60.0),
                            (NodeId(nb), QubitId(qb), 3600.0, 60.0),
                        ],
                    )
                };
                let a = mk(0, 1, 0, 0);
                let b_ = mk(1, 2, 1, 0);
                let res = store.swap(a, b_, NodeId(1), t_done, &noise, &mut rng);
                store.discard(res.new_pair);
            });
        });

        c.bench_function(&format!("pair_distill_{tag}"), |b| {
            let mut store = PairStore::with_rep(rep);
            let mut rng = SimRng::from_seed(11);
            b.iter(|| {
                let mut mk = |q: u32| {
                    store.create(
                        SimTime::ZERO,
                        BellState::PHI_PLUS.density(),
                        BellState::PHI_PLUS,
                        [
                            (NodeId(0), QubitId(q), 3600.0, 60.0),
                            (NodeId(1), QubitId(q), 3600.0, 60.0),
                        ],
                    )
                };
                let keep = mk(0);
                let sac = mk(1);
                let res = store.distill(keep, sac, SimTime::ZERO, &noise, &mut rng);
                store.discard(res.kept);
            });
        });
    }
}

fn bench_link_scheduler(c: &mut Criterion) {
    c.bench_function("time_share_scheduler_4_labels", |b| {
        b.iter_batched(
            || {
                let mut s = TimeShareScheduler::new();
                for i in 0..4 {
                    s.add(LinkLabel(i), 1.0 + i as f64);
                }
                s
            },
            |mut s| {
                for _ in 0..100 {
                    let l = s.next().unwrap();
                    s.charge(l, SimDuration::from_micros(10));
                }
                s
            },
            BatchSize::SmallInput,
        );
    });
}

/// Circuit planning and link admission on the hardware and topology of
/// perfbench `openworld_churn` (simulation parameters, lab fibre, a 3×3
/// grid, F = 0.8, the short cutoff). `routing_plan_grid3x3` plans every
/// ordered node pair once per iteration and explains that workload's
/// `qn_routing.plan.mean_us` and `layer.routing` share;
/// `link_admission` submits and stops one link request at the link
/// fidelity of the grid's longest path and explains the `SubmitRequest`
/// and `BatchDeliver` self time.
fn bench_planning(c: &mut Criterion) {
    let topology = grid(3, 3, HardwareParams::simulation(), FibreParams::lab_2m());
    let controller = Controller::new(&topology, CutoffPolicy::short());
    let nodes = topology.nodes();
    c.bench_function("routing_plan_grid3x3", |b| {
        b.iter(|| {
            let mut planned = 0usize;
            for &head in &nodes {
                for &tail in nodes.iter().filter(|&&t| t != head) {
                    planned += usize::from(controller.plan(head, tail, 0.8).is_ok());
                }
            }
            planned
        });
    });

    let corner = *nodes.last().unwrap();
    let min_fidelity = controller
        .plan(nodes[0], corner, 0.8)
        .expect("the grid's corners are plannable at F = 0.8")
        .link_fidelity;
    c.bench_function("link_admission", |b| {
        let physics = topology.links()[0].physics.clone();
        let mut link = LinkProtocol::new((NodeId(0), NodeId(1)), physics);
        b.iter(|| {
            let label = LinkLabel(1);
            let events = link.submit(LinkRequest {
                label,
                min_fidelity,
                demand: PairDemand::Count(6),
                weight: 1.0,
            });
            link.stop(label);
            events
        });
    });
}

/// A representative mix of QNP data-plane messages: TRACKs dominate the
/// wire in a running network (one per link-pair per hop), with FORWARD /
/// COMPLETE / EXPIRE control traffic around them.
fn message_mix() -> Vec<Message> {
    let corr = |seq: u64| Correlator {
        node_a: NodeId(3),
        node_b: NodeId(4),
        seq,
    };
    let mut msgs = Vec::new();
    for i in 0..16u64 {
        msgs.push(Message::Track(Track {
            circuit: CircuitId(7),
            request: RequestId(i % 3),
            head_identifier: 0,
            tail_identifier: 1,
            origin: corr(i),
            link: corr(i + 100),
            outcome_state: BellState::from_index((i % 4) as usize),
            epoch: if i % 2 == 0 { Some(Epoch(i)) } else { None },
        }));
    }
    msgs.push(Message::Forward(Forward {
        circuit: CircuitId(7),
        request: RequestId(2),
        head_identifier: 0,
        tail_identifier: 1,
        request_type: RequestType::Keep,
        number_of_pairs: Some(8),
        final_state: Some(BellState::PHI_PLUS),
        rate: 125.0,
    }));
    msgs.push(Message::Complete(Complete {
        circuit: CircuitId(7),
        request: RequestId(2),
        head_identifier: 0,
        tail_identifier: 1,
        rate: 0.0,
    }));
    msgs.push(Message::Expire(Expire {
        circuit: CircuitId(7),
        origin: corr(9),
    }));
    msgs
}

/// The data-plane decoder (`MessageView`, the only one) under two access
/// patterns: parse plus per-variant field reads, and parse plus the
/// demux key alone.
fn bench_message_codec(c: &mut Criterion) {
    let msgs = message_mix();
    let frames: Vec<Vec<u8>> = msgs.iter().map(Message::wire_bytes).collect();

    c.bench_function("message_parse", |b| {
        // Full view parse plus the per-variant fields a dispatcher would
        // read (TRACK's continuation correlator) — still borrow-only.
        b.iter(|| {
            let mut acc = 0u64;
            for f in &frames {
                let v = MessageView::parse(f).unwrap();
                acc = acc.wrapping_add(v.circuit().0);
                if let MessageView::Track(t) = v {
                    acc = acc.wrapping_add(t.link().seq);
                }
            }
            acc
        });
    });

    c.bench_function("zero_copy_vs_owned_decode/view", |b| {
        // The zero-copy access pattern: validate the whole frame, read
        // only the demux key, materialise nothing.
        b.iter(|| {
            let mut acc = 0u64;
            for f in &frames {
                let v = MessageView::parse(f).unwrap();
                acc = acc.wrapping_add(v.circuit().0);
            }
            acc
        });
    });

    c.bench_function("encode_scratch_vs_alloc/scratch", |b| {
        let mut scratch = ScratchEncoder::new();
        b.iter(|| {
            let mut bytes = 0usize;
            for m in &msgs {
                bytes += scratch.frame(|buf| m.encode_to(buf)).len();
            }
            bytes
        });
    });
}

/// Frame delivery through the event loop (the classical plane's
/// `BatchDeliver` event): one event per coalesced batch, drained
/// through the borrowing view down to an owned `Message` handed to the
/// protocol node.
fn bench_frame_delivery(c: &mut Criterion) {
    let frames: Vec<Vec<u8>> = message_mix().iter().map(Message::wire_bytes).collect();
    let mut batch = Vec::new();
    batch_begin(&mut batch);
    for f in &frames {
        batch_append(&mut batch, f);
    }

    c.bench_function("batch_vs_single_delivery/batched", |b| {
        b.iter(|| {
            let mut q: EventQueue<&[u8]> = EventQueue::new();
            q.push(SimTime::ZERO, batch.as_slice());
            let mut acc = 0u64;
            while let Some((_, buf)) = q.pop() {
                let view = BatchView::parse(buf).unwrap();
                for f in view.frames() {
                    let m = MessageView::parse(f).unwrap().to_message();
                    acc = acc.wrapping_add(m.circuit().0);
                }
            }
            acc
        });
    });
}

/// The pair store's hot paths (the runtime's pair bookkeeping and
/// `Checkpoint` sweeps): steady-state churn with id-heavy access
/// (`slab_vs_map_lookup_churn`, the sustained-traffic kernel) and the
/// whole-store decoherence sweep with real elapsed time
/// (`slab_vs_map_decoherence_sweep`, where the exponential decay math
/// dominates).
fn bench_slab_store(c: &mut Criterion) {
    use qn_hardware::pairs::PairId;
    use qn_quantum::pairstate::BellDiagonal;

    const LIVE: usize = 256;
    const CHURN: usize = 32;
    let (t1, t2) = (3600.0, 60.0);
    let bell = || PairState::Bell(BellDiagonal::from_bell_state(BellState::PHI_PLUS));
    let mk_slab = || {
        let mut store = PairStore::with_rep(StateRep::Bell);
        let ids: Vec<PairId> = (0..LIVE)
            .map(|_| {
                store.create_pair(
                    SimTime::ZERO,
                    bell(),
                    BellState::PHI_PLUS,
                    [
                        (NodeId(0), QubitId(0), t1, t2),
                        (NodeId(1), QubitId(0), t1, t2),
                    ],
                )
            })
            .collect();
        (store, ids)
    };

    // Sustained traffic: every live pair's handle is resolved several
    // times per protocol step (generation bookkeeping, swap operands,
    // cutoff checks, delivery — a dozen-odd lookups over a pair's life),
    // the store sweeps at the current time (no elapsed decay: the
    // common checkpoint-right-after-activity case), and the oldest
    // pairs churn out as fresh ones arrive.
    const LOOKUP_PASSES: usize = 8;
    c.bench_function("slab_vs_map_lookup_churn/slab", |b| {
        let (mut store, ids) = mk_slab();
        let mut ids: std::collections::VecDeque<PairId> = ids.into();
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..LOOKUP_PASSES {
                for id in &ids {
                    acc += store.get(*id).map_or(0, |p| p.announced.index());
                }
            }
            store.advance_all(SimTime::ZERO);
            for _ in 0..CHURN {
                let old = ids.pop_front().expect("ring is never empty");
                store.discard(old);
                ids.push_back(store.create_pair(
                    SimTime::ZERO,
                    bell(),
                    BellState::PHI_PLUS,
                    [
                        (NodeId(0), QubitId(0), t1, t2),
                        (NodeId(1), QubitId(0), t1, t2),
                    ],
                ));
            }
            acc
        });
    });

    // The wired checkpoint sweep with genuinely elapsed time: this
    // measures the end-to-end sweep including the per-pair
    // exponentials, not just container traversal.
    c.bench_function("slab_vs_map_decoherence_sweep/slab", |b| {
        let (mut store, _ids) = mk_slab();
        let mut now = SimTime::ZERO;
        b.iter(|| {
            now += SimDuration::from_millis(1);
            store.advance_all(now);
        });
    });
}

/// The swap/distill conditional-table cache lookup (the quantum
/// kernel's `SwapDone` path): the sorted-Vec binary-search cache that
/// backs `PairStore`, at a realistic cache population (a store
/// accumulates a handful of distinct `(t1-bits, t2-bits, outcome)` keys
/// per run).
fn bench_table_cache(c: &mut Criterion) {
    type Key = (u64, u64, u8);
    const KEYS: usize = 12;
    let keys: Vec<Key> = (0..KEYS as u64)
        .map(|i| {
            (
                (3600.0f64 + i as f64).to_bits(),
                (60.0f64 * (i + 1) as f64).to_bits(),
                (i % 4) as u8,
            )
        })
        .collect();
    // The lookup mix: tables hit in rotation, as link labels fire
    // round-robin under the time-share scheduler.
    let lookups: Vec<Key> = (0..256).map(|i| keys[i % KEYS]).collect();
    let payload = |k: &Key| vec![k.0 as f64; 16];

    c.bench_function("table_cache_lookup/sorted_vec", |b| {
        let mut entries: Vec<(Key, Vec<f64>)> = keys.iter().map(|k| (*k, payload(k))).collect();
        entries.sort_by_key(|(k, _)| *k);
        b.iter(|| {
            let mut acc = 0.0f64;
            for k in &lookups {
                let i = entries.binary_search_by(|(e, _)| e.cmp(k)).expect("cached");
                acc += entries[i].1[0];
            }
            acc
        });
    });
}

fn bench_bell_algebra(c: &mut Criterion) {
    c.bench_function("bell_combine_chain_64", |b| {
        let states: Vec<BellState> = (0..64).map(|i| BellState::from_index(i % 4)).collect();
        b.iter(|| {
            let mut acc = BellState::PHI_PLUS;
            for (i, s) in states.iter().enumerate() {
                acc = acc.combine(*s, BellState::from_index((i * 7) % 4));
            }
            acc
        });
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_density_matrix,
    bench_pair_representations,
    bench_link_scheduler,
    bench_planning,
    bench_message_codec,
    bench_frame_delivery,
    bench_slab_store,
    bench_table_cache,
    bench_bell_algebra
);
criterion_main!(benches);
