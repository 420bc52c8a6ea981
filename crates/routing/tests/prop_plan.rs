//! Bit-exactness of the link-budget solver against a reference that
//! recomputes every invariant on every evaluation.
//!
//! `FidelityCurve` holds `F(α)`'s α-independent constants, the peak scan
//! reads a grid built once per process, `Controller::plan` scans the peak
//! once and leaves its fixed-point loop as soon as a round reproduces its
//! input cutoff, and `required_link_fidelity` evaluates the chain's
//! cutoff-dependent terms once per call. None of that may change a
//! single bit of any result. The `reference` module below keeps the
//! straightforward formulation — `η`, `p_dark` and `cos Δφ` per `F(α)`,
//! a freshly computed grid and scan on every inversion, the chain's
//! `exp`/`powf` in every bisection step, four unconditional rounds — and
//! every property compares with `f64::to_bits`.

use proptest::prelude::*;
use qn_hardware::heralding::{ComponentWeights, LinkPhysics};
use qn_hardware::params::{FibreParams, HardwareParams};
use qn_routing::budget::{self, CutoffPolicy};
use qn_routing::{chain, dumbbell, grid, ring, CircuitPlan, Controller, PlanError, Topology};
use qn_sim::{NodeId, SimDuration};

mod reference {
    use super::*;
    use qn_quantum::{channels, formulas};

    pub fn weights(link: &LinkPhysics, alpha: f64) -> ComponentWeights {
        let alpha = alpha.clamp(0.0, 0.5);
        let eta = link.eta();
        ComponentWeights {
            coherent: 2.0 * alpha * (1.0 - alpha) * eta,
            double: 2.0 * alpha * eta * (alpha + link.params().p_double_excitation),
            dark: 2.0 * link.p_dark(),
        }
    }

    pub fn fidelity(link: &LinkPhysics, alpha: f64) -> f64 {
        let w = weights(link, alpha);
        let alpha = alpha.clamp(0.0, 0.5);
        let f_coh = 0.5 * (1.0 + link.coherence());
        let f_dark = alpha * (1.0 - alpha);
        let total = w.total();
        if total <= 0.0 {
            return 0.0;
        }
        (w.coherent * f_coh + w.dark * f_dark) / total
    }

    pub fn max_fidelity(link: &LinkPhysics) -> (f64, f64) {
        let mut best = (0.0, 0.25);
        for i in 1..=400 {
            let alpha = 1e-4 * (0.5f64 / 1e-4).powf(i as f64 / 400.0);
            let f = fidelity(link, alpha);
            if f > best.0 {
                best = (f, alpha);
            }
        }
        best
    }

    pub fn alpha_for_fidelity(link: &LinkPhysics, target: f64) -> Option<f64> {
        let (f_max, alpha_max) = max_fidelity(link);
        if target > f_max {
            return None;
        }
        if fidelity(link, 0.5) >= target {
            return Some(0.5);
        }
        let (mut lo, mut hi) = (alpha_max, 0.5);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if fidelity(link, mid) >= target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    }

    pub fn worst_case_chain_fidelity(
        params: &HardwareParams,
        n_links: usize,
        f_link: f64,
        cutoff: SimDuration,
    ) -> f64 {
        let p_idle = channels::dephasing_prob(cutoff.as_secs_f64(), params.electron_t2);
        let lambda = formulas::combine_flip_probs(p_idle, p_idle);
        let (p_gate, q) = budget::swap_noise_params(params);
        let f = formulas::chain_fidelity(n_links, f_link, p_gate, lambda);
        let n_swaps = n_links.saturating_sub(1) as f64;
        let p_good_bits = ((1.0 - q) * (1.0 - q)).powf(n_swaps);
        formulas::werner_fidelity(formulas::werner_param(f) * p_good_bits)
    }

    pub fn required_link_fidelity(
        params: &HardwareParams,
        n_links: usize,
        f_target: f64,
        cutoff: SimDuration,
    ) -> Option<f64> {
        if worst_case_chain_fidelity(params, n_links, 1.0, cutoff) < f_target {
            return None;
        }
        let (mut lo, mut hi) = (0.25f64, 1.0f64);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if worst_case_chain_fidelity(params, n_links, mid, cutoff) >= f_target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    }

    fn evaluate(policy: CutoffPolicy, link: &LinkPhysics, f_link: f64, alpha: f64) -> SimDuration {
        match policy {
            CutoffPolicy::Manual(d) => d,
            CutoffPolicy::FidelityLoss { fraction } => {
                budget::cutoff_for_fidelity_loss(link.params(), f_link, fraction)
            }
            CutoffPolicy::GenerationQuantile { probability } => {
                let p = weights(link, alpha)
                    .total()
                    .min(1.0)
                    .clamp(1e-12, 1.0 - 1e-12);
                let cycles = ((1.0 - probability).ln() / (1.0 - p).ln()).ceil().max(1.0);
                link.cycle_time().mul_f64(cycles)
            }
        }
    }

    /// A plan, and the first of the four rounds whose cutoff equals its
    /// input cutoff (`None` when no round repeats).
    pub type Planned = (Result<CircuitPlan, PlanError>, Option<usize>);

    pub fn plan(
        topology: &Topology,
        policy: CutoffPolicy,
        head: NodeId,
        tail: NodeId,
        f_e2e: f64,
    ) -> Planned {
        let mut repeat = None;
        let result = (|| {
            let path = topology
                .shortest_path(head, tail)
                .ok_or(PlanError::NoPath)?;
            if path.len() < 2 {
                return Err(PlanError::NoPath);
            }
            let n_links = path.len() - 1;
            let link_id = topology.link_between(path[0], path[1]).unwrap();
            let link = &topology.link(link_id).physics;
            let params = link.params();
            let mut f_link = f_e2e;
            let mut alpha =
                alpha_for_fidelity(link, f_link).ok_or(PlanError::FidelityUnattainable)?;
            let mut cutoff = evaluate(policy, link, f_link, alpha);
            for round in 1..=4 {
                let required = required_link_fidelity(params, n_links, f_e2e, cutoff)
                    .ok_or(PlanError::FidelityUnattainable)?;
                let a =
                    alpha_for_fidelity(link, required).ok_or(PlanError::FidelityUnattainable)?;
                f_link = required;
                alpha = a;
                let next = evaluate(policy, link, f_link, alpha);
                if next == cutoff && repeat.is_none() {
                    repeat = Some(round);
                }
                cutoff = next;
            }
            let attempts = 1.0 / weights(link, alpha).total().min(1.0).max(1e-300);
            let pair_time = link.cycle_time().mul_f64(attempts);
            let max_lpr = 1.0 / pair_time.as_secs_f64().max(1e-12);
            Ok(CircuitPlan {
                path,
                e2e_fidelity: f_e2e,
                link_fidelity: f_link,
                alpha,
                cutoff,
                max_lpr,
                max_eer: max_lpr / 2.0,
            })
        })();
        (result, repeat)
    }
}

fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn same_opt(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => same(a, b),
        (None, None) => true,
        _ => false,
    }
}

fn same_plan(a: &Result<CircuitPlan, PlanError>, b: &Result<CircuitPlan, PlanError>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            a.path == b.path
                && same(a.e2e_fidelity, b.e2e_fidelity)
                && same(a.link_fidelity, b.link_fidelity)
                && same(a.alpha, b.alpha)
                && a.cutoff == b.cutoff
                && same(a.max_lpr, b.max_lpr)
                && same(a.max_eer, b.max_eer)
        }
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

/// Simulation or near-term hardware (`hw` = 0 or 1), with the electron
/// T2 optionally overridden.
fn hardware(hw: usize, t2: Option<f64>) -> HardwareParams {
    let params = if hw == 0 {
        HardwareParams::simulation()
    } else {
        HardwareParams::near_term()
    };
    match t2 {
        Some(t2) => params.with_electron_t2(t2),
        None => params,
    }
}

/// Lab fibre (`km` = 0) or deployed telecom fibre of `km` kilometres.
fn fibre(km: f64) -> FibreParams {
    if km == 0.0 {
        FibreParams::lab_2m()
    } else {
        FibreParams::telecom(km * 1000.0)
    }
}

/// Policy 0: fidelity loss, 1: generation quantile, 2: manual; `x` in
/// [0, 1) picks the policy's parameter.
fn policy(kind: usize, x: f64) -> CutoffPolicy {
    match kind {
        0 => CutoffPolicy::FidelityLoss {
            fraction: 0.001 + 0.1 * x,
        },
        1 => CutoffPolicy::GenerationQuantile {
            probability: 0.3 + 0.69 * x,
        },
        _ => CutoffPolicy::Manual(SimDuration::from_secs_f64(1e-4 + 2.0 * x)),
    }
}

/// Topology 0: chain, 1: dumbbell, 2: grid, 3: ring; `size` in 0..4
/// scales it. Returns the topology and its node count.
fn topology(kind: usize, size: usize, params: HardwareParams, fib: FibreParams) -> (Topology, u32) {
    match kind {
        0 => (chain(size + 2, params, fib), size as u32 + 2),
        1 => (dumbbell(params, fib).0, 6),
        2 => {
            let (w, h) = (size % 2 + 2, size / 2 + 2);
            (grid(w, h, params, fib), (w * h) as u32)
        }
        _ => (ring(size + 3, params, fib), size as u32 + 3),
    }
}

/// Compare the new planner with the reference; returns the reference's
/// repeat round.
fn check_plan(
    topo: &Topology,
    policy: CutoffPolicy,
    head: NodeId,
    tail: NodeId,
    f_e2e: f64,
) -> Result<reference::Planned, String> {
    let new = Controller::new(topo, policy).plan(head, tail, f_e2e);
    let (old, repeat) = reference::plan(topo, policy, head, tail, f_e2e);
    if same_plan(&new, &old) {
        Ok((old, repeat))
    } else {
        Err(format!(
            "{policy:?} {head:?}->{tail:?} F={f_e2e}: new {new:?} vs reference {old:?}"
        ))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `fidelity`, `weights`, `max_fidelity` and `alpha_for_fidelity` on
    /// the link and through one curve value, against the reference.
    #[test]
    fn curve_is_bit_identical(
        hw in 0usize..2,
        km in prop_oneof![Just(0.0f64), 0.5f64..60.0],
        t2 in prop_oneof![Just(None), (0.01f64..100.0).prop_map(Some)],
        alpha in -0.1f64..0.7,
        target in 0.3f64..1.0,
    ) {
        let link = LinkPhysics::new(hardware(hw, t2), fibre(km));
        let curve = link.curve();

        let (w_ref, w_link, w_curve) =
            (reference::weights(&link, alpha), link.weights(alpha), curve.weights(alpha));
        for w in [w_link, w_curve] {
            prop_assert!(same(w.coherent, w_ref.coherent), "coherent at {alpha}");
            prop_assert!(same(w.double, w_ref.double), "double at {alpha}");
            prop_assert!(same(w.dark, w_ref.dark), "dark at {alpha}");
        }

        let f_ref = reference::fidelity(&link, alpha);
        prop_assert!(same(link.fidelity(alpha), f_ref), "link fidelity at {alpha}");
        prop_assert!(same(curve.fidelity(alpha), f_ref), "curve fidelity at {alpha}");

        let peak_ref = reference::max_fidelity(&link);
        for peak in [link.max_fidelity(), curve.max_fidelity()] {
            prop_assert!(same(peak.0, peak_ref.0) && same(peak.1, peak_ref.1),
                "peak {peak:?} vs {peak_ref:?}");
        }

        // Targets at, just above and just below the peak, and one anywhere.
        let f_max = peak_ref.0;
        for t in [target, f_max, f_max + 1e-12, f_max - 1e-9, 2.0 * f_max - 1.0] {
            let a_ref = reference::alpha_for_fidelity(&link, t);
            prop_assert!(same_opt(link.alpha_for_fidelity(t), a_ref), "link alpha for {t}");
            prop_assert!(same_opt(curve.alpha_for_fidelity(t, curve.max_fidelity()), a_ref),
                "curve alpha for {t}");
        }
    }

    /// The worst-case chain and its inversion, against the reference.
    #[test]
    fn budget_is_bit_identical(
        hw in 0usize..2,
        t2 in prop_oneof![Just(None), (0.01f64..100.0).prop_map(Some)],
        n_links in 1usize..9,
        f in 0.25f64..1.0,
        cutoff_s in prop_oneof![Just(0.0f64), 1e-6f64..5.0],
    ) {
        let params = hardware(hw, t2);
        let cutoff = SimDuration::from_secs_f64(cutoff_s);
        prop_assert!(same(
            budget::worst_case_chain_fidelity(&params, n_links, f, cutoff),
            reference::worst_case_chain_fidelity(&params, n_links, f, cutoff),
        ));
        for target in [f, 0.5 + 0.5 * f, 0.999] {
            prop_assert!(same_opt(
                budget::required_link_fidelity(&params, n_links, target, cutoff),
                reference::required_link_fidelity(&params, n_links, target, cutoff),
            ), "n={n_links} target {target} cutoff {cutoff_s}");
        }
    }

    /// Every `CircuitPlan` field (or the `PlanError` variant) of
    /// `Controller::plan`, against four unconditional reference rounds,
    /// over chain/dumbbell/grid/ring paths, both hardware sets, lab and
    /// telecom fibre, all three cutoff policies and targets up to
    /// unattainable ones.
    #[test]
    fn plan_is_bit_identical(
        hw_fibre in (0usize..2, prop_oneof![Just(0.0f64), 0.5f64..40.0]),
        policy_pick in (0usize..3, 0.0f64..1.0),
        topo_pick in (0usize..4, 0usize..4),
        ends in (0u32..16, 0u32..16),
        f_e2e in 0.5f64..1.0,
    ) {
        let params = hardware(hw_fibre.0, None);
        let (topo, n) = topology(topo_pick.0, topo_pick.1, params, fibre(hw_fibre.1));
        let policy = policy(policy_pick.0, policy_pick.1);
        // Node ids past the topology's last node exercise `NoPath`.
        let (head, tail) = (NodeId(ends.0 % (n + 1)), NodeId(ends.1 % (n + 1)));
        if let Err(e) = check_plan(&topo, policy, head, tail, f_e2e) {
            prop_assert!(false, "{e}");
        }
    }
}

/// A fixed sweep that must reach every exit of the fixed-point loop:
/// a repeat after the first round (manual cutoffs), a repeat after two
/// or three rounds, no repeat within four rounds (the continuous
/// fidelity-loss cutoff), both errors, and successful plans — and match
/// the reference bit for bit on each.
#[test]
fn plan_sweep_covers_every_loop_exit() {
    let mut repeats = [0usize; 5];
    let (mut ok, mut no_path, mut unattainable) = (0, 0, 0);
    for hw in 0..2 {
        for km in [0.0, 10.0, 25.0] {
            let fib = fibre(km);
            let params = hardware(hw, None);
            for (topo, n) in [
                topology(0, 3, params, fib),
                topology(1, 0, params, fib),
                topology(2, 3, params, fib),
                topology(3, 2, params, fib),
            ] {
                for kind in 0..3 {
                    for x in [0.05, 0.5, 0.95] {
                        for f_e2e in [0.5, 0.6, 0.75, 0.85, 0.95, 0.999] {
                            let (head, tail) = (NodeId(0), NodeId(n - 1));
                            let (result, repeat) =
                                check_plan(&topo, policy(kind, x), head, tail, f_e2e)
                                    .unwrap_or_else(|e| panic!("{e}"));
                            match result {
                                Ok(_) => {
                                    ok += 1;
                                    repeats[repeat.unwrap_or(0)] += 1;
                                }
                                Err(PlanError::NoPath) => no_path += 1,
                                Err(PlanError::FidelityUnattainable) => unattainable += 1,
                            }
                        }
                    }
                }
                let (result, _) =
                    check_plan(&topo, CutoffPolicy::short(), NodeId(0), NodeId(n), 0.8)
                        .unwrap_or_else(|e| panic!("{e}"));
                assert_eq!(result.unwrap_err(), PlanError::NoPath);
                no_path += 1;
            }
        }
    }
    assert!(
        ok > 0 && no_path > 0 && unattainable > 0,
        "{ok} ok, {no_path} no path, {unattainable} unattainable"
    );
    assert!(
        repeats[1] > 0,
        "no plan repeated after one round: {repeats:?}"
    );
    assert!(
        repeats[2] + repeats[3] > 0,
        "no plan repeated after two or three rounds: {repeats:?}"
    );
    assert!(
        repeats[0] > 0,
        "every plan repeated within four rounds: {repeats:?}"
    );
}
