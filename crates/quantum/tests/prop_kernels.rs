//! Bit-exactness of the local operator kernel (`qn_quantum::kernel`).
//!
//! The kernel applies gates and channels on their target qubits instead
//! of embedding each operator into a full 2ⁿ×2ⁿ matrix. It promises the
//! same bits as the dense formulation it replaced. This suite keeps that
//! formulation as a reference — embed, then `&full * &m * &full.dagger()`
//! with each Kraus term formed in full before it is summed — and checks
//! every entry with f64 `==` on both components, for every constructor
//! in `gates` and `channels`, on 1- and 2-qubit targets in both orders,
//! in 2- and 4-qubit registers, on X-form states with exact zeros and on
//! general dense states. Z projection, measurement and partial trace are
//! checked against their dense forms too.

use proptest::prelude::*;
use qn_quantum::channels;
use qn_quantum::gates::{self, Pauli};
use qn_quantum::kernel;
use qn_quantum::state::DensityMatrix;
use qn_quantum::{CMatrix, C64};

/// `DensityMatrix::apply_kraus` renormalises only beyond this drift.
const RENORM_EPS: f64 = 1e-9;

// ---------------------------------------------------------------------
// The dense reference
// ---------------------------------------------------------------------

/// Expand a `k`-qubit operator onto the given (distinct) target qubits
/// of an `n`-qubit register; the first target is the most significant
/// bit of the operator's index.
fn embed(n: usize, op: &CMatrix, targets: &[usize]) -> CMatrix {
    let k = targets.len();
    let dim = 1usize << n;
    let target_mask: usize = targets.iter().map(|q| 1usize << (n - 1 - q)).sum();
    let mut out = CMatrix::zeros(dim, dim);
    for i in 0..dim {
        let mut ti = 0usize;
        for q in targets {
            ti = (ti << 1) | ((i >> (n - 1 - q)) & 1);
        }
        let rest = i & !target_mask;
        for tj in 0..(1usize << k) {
            let v = op[(ti, tj)];
            if v == C64::ZERO {
                continue;
            }
            let mut j = rest;
            for (pos, q) in targets.iter().enumerate() {
                j |= ((tj >> (k - 1 - pos)) & 1) << (n - 1 - q);
            }
            out[(i, j)] = v;
        }
    }
    out
}

/// `Σᵢ (Fᵢ·m)·Fᵢ†` with each `Fᵢ` embedded, each term formed in full.
fn reference_sandwich(m: &CMatrix, ops: &[CMatrix], targets: &[usize]) -> CMatrix {
    let n = m.rows().trailing_zeros() as usize;
    let mut acc = CMatrix::zeros(m.rows(), m.rows());
    for op in ops {
        let full = embed(n, op, targets);
        acc = &acc + &(&(&full * m) * &full.dagger());
    }
    acc
}

/// `DensityMatrix::apply_kraus` in the dense formulation.
fn reference_kraus(m: &CMatrix, ops: &[CMatrix], targets: &[usize]) -> CMatrix {
    let out = reference_sandwich(m, ops, targets);
    let tr = out.trace().re;
    if (tr - 1.0).abs() > RENORM_EPS {
        out.scale(1.0 / tr)
    } else {
        out
    }
}

/// `DensityMatrix::project_z` in the dense formulation: `P·m·P` with the
/// diagonal projector, then renormalised.
fn reference_project(m: &CMatrix, qubit: usize, outcome: bool) -> CMatrix {
    let n = m.rows().trailing_zeros() as usize;
    let mut p = CMatrix::zeros(m.rows(), m.rows());
    for i in 0..m.rows() {
        if (i >> (n - 1 - qubit)) & 1 == usize::from(outcome) {
            p[(i, i)] = C64::ONE;
        }
    }
    let out = &(&p * m) * &p;
    let tr = out.trace().re;
    out.scale(1.0 / tr.max(1e-300))
}

/// Partial trace by its definition: sum over every assignment of the
/// traced-out qubits.
fn reference_partial_trace(m: &CMatrix, keep: &[usize]) -> CMatrix {
    let n = m.rows().trailing_zeros() as usize;
    let k = keep.len();
    let rest: Vec<usize> = (0..n).filter(|q| !keep.contains(q)).collect();
    let index = |a: usize, r: usize| -> usize {
        let mut idx = 0;
        for (pos, q) in keep.iter().enumerate() {
            idx |= ((a >> (k - 1 - pos)) & 1) << (n - 1 - q);
        }
        for (pos, q) in rest.iter().enumerate() {
            idx |= ((r >> (rest.len() - 1 - pos)) & 1) << (n - 1 - q);
        }
        idx
    };
    let mut out = CMatrix::zeros(1 << k, 1 << k);
    for a in 0..1usize << k {
        for b in 0..1usize << k {
            let mut sum = C64::ZERO;
            for r in 0..1usize << rest.len() {
                sum += m[(index(a, r), index(b, r))];
            }
            out[(a, b)] = sum;
        }
    }
    out
}

/// Every entry equal under f64 `==` on both components.
fn same_entries(got: &CMatrix, want: &CMatrix, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        (got.rows(), got.cols()),
        (want.rows(), want.cols()),
        "{} shape",
        what
    );
    for (idx, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        prop_assert!(
            g.re == w.re && g.im == w.im,
            "{}: entry {} is {:?}, dense reference {:?}",
            what,
            idx,
            (g.re, g.im),
            (w.re, w.im)
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/// A random two-qubit X-state: populations from `v[0..4]`, the two real
/// coherences from `v[4..6]`, bounded so the state is positive.
fn x_pair(v: &[f64]) -> CMatrix {
    let w: Vec<f64> = v[..4].iter().map(|x| x.abs() + 0.05).collect();
    let total: f64 = w.iter().sum();
    let p: Vec<f64> = w.iter().map(|x| x / total).collect();
    let u = v[4] * (p[0] * p[3]).sqrt();
    let c = v[5] * (p[1] * p[2]).sqrt();
    let mut m = CMatrix::zeros(4, 4);
    for (i, pi) in p.iter().enumerate() {
        m[(i, i)] = C64::real(*pi);
    }
    m[(0, 3)] = C64::real(u);
    m[(3, 0)] = C64::real(u);
    m[(1, 2)] = C64::real(c);
    m[(2, 1)] = C64::real(c);
    m
}

/// A full-rank-ish dense state: a mixture of two random pure states.
fn dense_state(n: usize, v: &[f64]) -> DensityMatrix {
    let dim = 1usize << n;
    let amps = |off: usize| -> Vec<C64> {
        (0..dim)
            .map(|i| C64::new(v[off + 2 * i], v[off + 2 * i + 1] + 0.01))
            .collect()
    };
    let a = DensityMatrix::pure(&amps(0));
    let b = DensityMatrix::pure(&amps(2 * dim));
    let w = 0.2 + 0.6 * v[0].abs();
    DensityMatrix::from_matrix(&a.matrix().scale(w) + &b.matrix().scale(1.0 - w))
}

/// A 2- or 4-qubit register: X-form pairs (exact zeros off the X
/// pattern, tensored for four qubits) or a general dense state.
fn arb_state() -> impl Strategy<Value = DensityMatrix> {
    (
        prop_oneof![Just(2usize), Just(4usize)],
        any::<bool>(),
        proptest::collection::vec(-1.0f64..1.0, 64),
    )
        .prop_map(|(n, dense, v)| {
            if dense {
                dense_state(n, &v)
            } else if n == 2 {
                DensityMatrix::from_matrix(x_pair(&v[..6]))
            } else {
                DensityMatrix::from_matrix(x_pair(&v[..6]).kron(&x_pair(&v[6..12])))
            }
        })
}

/// A random (not unitary, not trace preserving) `k`-qubit operator with
/// no zero entries, for the kernel's general path.
fn dense_op(k: usize, v: &[f64]) -> CMatrix {
    let w = 1usize << k;
    let mut m = CMatrix::zeros(w, w);
    for i in 0..w {
        for j in 0..w {
            let idx = 2 * (i * w + j);
            m[(i, j)] = C64::new(v[idx] + 1.5, v[idx + 1] - 1.5);
        }
    }
    m
}

/// Every single-qubit gate constructor.
fn one_qubit_gates(theta: f64) -> Vec<(&'static str, CMatrix)> {
    vec![
        ("identity", gates::identity()),
        ("x", gates::x()),
        ("y", gates::y()),
        ("z", gates::z()),
        ("h", gates::h()),
        ("s", gates::s()),
        ("sdg", gates::sdg()),
        ("t", gates::t()),
        ("rx", gates::rx(theta)),
        ("ry", gates::ry(theta)),
        ("rz", gates::rz(theta)),
        ("pauli_y", Pauli::Y.matrix()),
    ]
}

/// Every two-qubit gate constructor.
fn two_qubit_gates() -> Vec<(&'static str, CMatrix)> {
    vec![
        ("cnot", gates::cnot()),
        ("cz", gates::cz()),
        ("swap", gates::swap()),
        ("controlled_sqrt_x", gates::controlled_sqrt_x()),
    ]
}

/// Every single-qubit channel constructor.
fn one_qubit_channels(p: f64) -> Vec<(&'static str, Vec<CMatrix>)> {
    vec![
        ("depolarizing", channels::depolarizing(p)),
        ("dephasing", channels::dephasing(p / 2.0)),
        ("bit_flip", channels::bit_flip(p)),
        ("amplitude_damping", channels::amplitude_damping(p)),
    ]
}

/// A valid 1-qubit target and an ordered 2-qubit target pair in an
/// `n`-qubit register, from raw draws.
fn targets(n: usize, q: usize, a: usize, off: usize) -> ([usize; 1], [usize; 2]) {
    let a = a % n;
    let b = (a + 1 + off % (n - 1)) % n;
    ([q % n], [a, b])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Unitaries, through `apply_unitary`, equal the embedded product.
    #[test]
    fn unitaries_match_dense_reference(
        rho in arb_state(),
        theta in 0.0f64..6.3,
        q in 0usize..4,
        a in 0usize..4,
        off in 0usize..3,
    ) {
        let (t1, t2) = targets(rho.num_qubits(), q, a, off);
        let gates1 = one_qubit_gates(theta).into_iter().map(|(w, g)| (w, g, &t1[..]));
        let gates2 = two_qubit_gates().into_iter().map(|(w, g)| (w, g, &t2[..]));
        for (what, gate, t) in gates1.chain(gates2) {
            let mut got = rho.clone();
            got.apply_unitary(&gate, t);
            let want = reference_sandwich(rho.matrix(), std::slice::from_ref(&gate), t);
            same_entries(got.matrix(), &want, &format!("{what} on {t:?}"))?;
        }
    }

    /// Kraus channels, through `apply_kraus`, equal the embedded sum
    /// with the same renormalisation.
    #[test]
    fn channels_match_dense_reference(
        rho in arb_state(),
        p in 0.0f64..1.0,
        q in 0usize..4,
        a in 0usize..4,
        off in 0usize..3,
    ) {
        let (t1, t2) = targets(rho.num_qubits(), q, a, off);
        let sets1 = one_qubit_channels(p).into_iter().map(|(w, k)| (w, k, &t1[..]));
        let sets2 = [("depolarizing_2q", channels::depolarizing_2q(p), &t2[..])];
        for (what, set, t) in sets1.chain(sets2) {
            let mut got = rho.clone();
            got.apply_kraus(&set, t);
            let want = reference_kraus(rho.matrix(), &set, t);
            same_entries(got.matrix(), &want, &format!("{what}({p}) on {t:?}"))?;
        }
    }

    /// The CMatrix-level sandwich (no renormalisation) on operators with
    /// no zero entries, and on unnormalised inputs.
    #[test]
    fn dense_operators_match_dense_reference(
        rho in arb_state(),
        v in proptest::collection::vec(-1.0f64..1.0, 64),
        q in 0usize..4,
        a in 0usize..4,
        off in 0usize..3,
    ) {
        let (t1, t2) = targets(rho.num_qubits(), q, a, off);
        let m = rho.matrix().scale(3.0);
        let cases = [
            (vec![dense_op(1, &v), dense_op(1, &v[8..])], &t1[..]),
            (vec![dense_op(2, &v), dense_op(2, &v[32..])], &t2[..]),
            // General and monomial terms accumulated in one set.
            (vec![gates::h(), gates::x(), dense_op(1, &v[16..])], &t1[..]),
            (vec![gates::cnot(), dense_op(2, &v[24..]), gates::cz()], &t2[..]),
            // One nonzero per row, two in a column: not monomial.
            (vec![CMatrix::from_reals(2, 2, &[0.6, 0.0, 0.8, 0.0])], &t1[..]),
        ];
        for (set, t) in cases {
            let mut got = m.clone();
            kernel::sandwich(&mut got, &set, t);
            let want = reference_sandwich(&m, &set, t);
            same_entries(&got, &want, &format!("{}-qubit set on {t:?}", t.len()))?;
        }
    }

    /// Z projection and measurement equal the dense projector product;
    /// the partial trace equals its definition.
    #[test]
    fn projection_and_partial_trace_match_dense_reference(
        rho in arb_state(),
        q in 0usize..4,
        u in 0.0f64..1.0,
        a in 0usize..4,
        off in 0usize..3,
    ) {
        let n = rho.num_qubits();
        let (t1, t2) = targets(n, q, a, off);
        let qubit = t1[0];
        for outcome in [false, true] {
            let p = if outcome { rho.prob_one(qubit) } else { 1.0 - rho.prob_one(qubit) };
            prop_assume!(p > 1e-9);
            let mut got = rho.clone();
            got.project_z(qubit, outcome);
            let want = reference_project(rho.matrix(), qubit, outcome);
            same_entries(got.matrix(), &want, &format!("project_z({qubit}, {outcome})"))?;
        }
        let mut measured = rho.clone();
        let outcome = measured.measure_z(qubit, u);
        let want = reference_project(rho.matrix(), qubit, outcome);
        same_entries(measured.matrix(), &want, &format!("measure_z({qubit}, {u})"))?;

        for keep in [&t1[..], &t2[..]] {
            let got = rho.partial_trace_keep(keep);
            let want = reference_partial_trace(rho.matrix(), keep);
            same_entries(got.matrix(), &want, &format!("partial_trace_keep({keep:?})"))?;
        }
    }

    /// The whole dense swap circuit — CNOT, two-qubit depolarizing, H,
    /// single-qubit depolarizing, two Z measurements, partial trace —
    /// step for step against the dense reference, in every orientation.
    #[test]
    fn swap_circuit_matches_dense_reference(
        v in proptest::collection::vec(-1.0f64..1.0, 12),
        p2 in 0.0f64..0.2,
        p1 in 0.0f64..0.2,
        ia in 0usize..2,
        ib in 0usize..2,
        us in proptest::collection::vec(0.0f64..1.0, 2),
    ) {
        let joint = DensityMatrix::from_matrix(x_pair(&v[..6]).kron(&x_pair(&v[6..])));
        let (qa, qb) = (ia, 2 + ib);
        let depol2 = channels::depolarizing_2q(p2);
        let depol1 = channels::depolarizing(p1);

        let mut got = joint.clone();
        got.apply_unitary(&gates::cnot(), &[qa, qb]);
        got.apply_kraus(&depol2, &[qa, qb]);
        got.apply_unitary(&gates::h(), &[qa]);
        got.apply_kraus(&depol1, &[qa]);

        let mut want = reference_sandwich(joint.matrix(), &[gates::cnot()], &[qa, qb]);
        want = reference_kraus(&want, &depol2, &[qa, qb]);
        want = reference_sandwich(&want, &[gates::h()], &[qa]);
        want = reference_kraus(&want, &depol1, &[qa]);
        same_entries(got.matrix(), &want, "noisy CNOT + H")?;

        for (qubit, u) in [(qa, us[0]), (qb, us[1])] {
            let outcome = got.measure_z(qubit, u);
            want = reference_project(&want, qubit, outcome);
            same_entries(got.matrix(), &want, &format!("measure_z({qubit})"))?;
        }
        let keep = [1 - ia, 2 + (1 - ib)];
        same_entries(
            got.partial_trace_keep(&keep).matrix(),
            &reference_partial_trace(&want, &keep),
            "outer pair",
        )?;
    }
}
