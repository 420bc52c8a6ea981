//! Measurements: Pauli-basis single-qubit measurement and the two-qubit
//! Bell-state measurement at the heart of entanglement swapping.
//!
//! Two Bell-measurement implementations exist in the stack:
//!
//! * [`bell_measure_ideal`] — projector-based, noise-free; used by tests
//!   and by the lazy-tracking verification.
//! * the circuit used by real hardware (CNOT → H → two Z measurements),
//!   which `qn-hardware` assembles from noisy primitive gates so that gate
//!   and readout errors propagate into the post-swap state exactly as the
//!   paper's P3 mechanism describes. [`swap_circuit_outcome`] decodes its
//!   classical bits.

use crate::bell::BellState;
use crate::complex::C64;
use crate::gates::{self, Pauli};
use crate::kernel;
use crate::matrix::CMatrix;
use crate::state::DensityMatrix;

/// Measure `qubit` in the given Pauli basis using uniform sample `u`.
///
/// Returns the ±1 outcome encoded as `false` (+1) / `true` (−1) and leaves
/// the qubit collapsed in the corresponding eigenstate (expressed in the
/// computational basis after the standard basis-change rotation).
pub fn measure_pauli(rho: &mut DensityMatrix, qubit: usize, basis: Pauli, u: f64) -> bool {
    match basis {
        Pauli::Z => {}
        Pauli::X => rho.apply_unitary(&gates::h(), &[qubit]),
        Pauli::Y => {
            // Rotate the Y eigenbasis onto Z: apply S† then H.
            rho.apply_unitary(&gates::sdg(), &[qubit]);
            rho.apply_unitary(&gates::h(), &[qubit]);
        }
        Pauli::I => panic!("cannot measure in the identity basis"),
    }
    rho.measure_z(qubit, u)
}

/// Rank-1 projector |ψ⟩⟨ψ| from four amplitudes.
fn projector(amps: [C64; 4]) -> CMatrix {
    let mut m = CMatrix::zeros(4, 4);
    for i in 0..4 {
        for j in 0..4 {
            m[(i, j)] = amps[i] * amps[j].conj();
        }
    }
    m
}

/// Ideal Bell-state measurement of qubits `(qa, qb)`.
///
/// Projects onto one of the four Bell states (sampled via uniform
/// `u ∈ [0,1)`), removes the measured qubits, and returns the outcome
/// together with the post-measurement state of the remaining qubits
/// (`None` when the whole register was measured). Remaining qubits keep
/// their relative order.
pub fn bell_measure_ideal(
    rho: &DensityMatrix,
    qa: usize,
    qb: usize,
    u: f64,
) -> (BellState, Option<DensityMatrix>) {
    assert!(rho.num_qubits() >= 2);
    assert_ne!(qa, qb);

    // Each outcome's unnormalised branch PρP; its trace is the outcome
    // probability.
    let branches: Vec<CMatrix> = BellState::ALL
        .iter()
        .map(|b| {
            let mut m = rho.matrix().clone();
            kernel::sandwich(&mut m, &[projector(b.amplitudes())], &[qa, qb]);
            m
        })
        .collect();
    let probs: Vec<f64> = branches.iter().map(|m| m.trace().re.max(0.0)).collect();
    let total: f64 = probs.iter().sum();
    debug_assert!(
        (total - 1.0).abs() < 1e-6,
        "Bell projectors not complete: {total}"
    );

    // Sample the outcome.
    let mut x = u * total;
    let mut chosen = 3;
    for (i, p) in probs.iter().enumerate() {
        x -= p;
        if x <= 0.0 && *p > 0.0 {
            chosen = i;
            break;
        }
    }
    let outcome = BellState::ALL[chosen];

    // Renormalise the selected branch.
    let projected = &branches[chosen];
    let p = projected.trace().re;
    let normalised = projected.scale(1.0 / p.max(1e-300));

    let keep: Vec<usize> = (0..rho.num_qubits())
        .filter(|q| *q != qa && *q != qb)
        .collect();
    if keep.is_empty() {
        return (outcome, None);
    }
    let post = DensityMatrix::from_matrix_unchecked(normalised).partial_trace_keep(&keep);
    (outcome, Some(post))
}

/// Decode the two Z-measurement outcomes of the standard swap circuit
/// (CNOT with control `a` and target `b`; H on `a`; measure both in Z)
/// into the Bell outcome: `x = m_b`, `z = m_a`.
pub fn swap_circuit_outcome(m_control: bool, m_target: bool) -> BellState {
    BellState::from_bits(m_target, m_control)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pauli_x_measurement_of_plus_state_is_deterministic() {
        // |+> measured in X always yields +1 (false).
        for u in [0.01, 0.5, 0.99] {
            let mut rho = DensityMatrix::basis(1, 0);
            rho.apply_unitary(&gates::h(), &[0]);
            assert!(!measure_pauli(&mut rho, 0, Pauli::X, u));
        }
    }

    #[test]
    fn pauli_y_measurement_of_y_eigenstate() {
        // |+i> = (|0> + i|1>)/√2 measured in Y yields +1 always.
        for u in [0.1, 0.9] {
            let mut rho = DensityMatrix::pure(&[
                C64::real(std::f64::consts::FRAC_1_SQRT_2),
                C64::new(0.0, std::f64::consts::FRAC_1_SQRT_2),
            ]);
            assert!(!measure_pauli(&mut rho, 0, Pauli::Y, u));
        }
    }

    #[test]
    fn z_measurement_of_one_is_true() {
        let mut rho = DensityMatrix::basis(1, 1);
        assert!(measure_pauli(&mut rho, 0, Pauli::Z, 0.5));
    }

    #[test]
    fn bell_measurement_of_bell_state_is_deterministic() {
        for b in BellState::ALL {
            let rho = b.density();
            for u in [0.0, 0.3, 0.99] {
                let (outcome, rest) = bell_measure_ideal(&rho, 0, 1, u);
                assert_eq!(outcome, b, "measuring {b} must yield {b}");
                assert!(rest.is_none(), "no qubits should remain");
            }
        }
    }

    #[test]
    fn bell_measurement_on_product_state_splits_half_half() {
        // |00⟩ overlaps Φ+ and Φ- each with probability 1/2.
        let rho = DensityMatrix::basis(2, 0);
        let (o1, _) = bell_measure_ideal(&rho, 0, 1, 0.25);
        let (o2, _) = bell_measure_ideal(&rho, 0, 1, 0.75);
        assert_eq!(o1, BellState::PHI_PLUS);
        assert_eq!(o2, BellState::PHI_MINUS);
    }

    #[test]
    fn ideal_swap_entangles_outer_qubits() {
        // Two Φ+ pairs (A,B1), (B2,C); Bell-measure (B1,B2); the remaining
        // (A,C) pair must be the Bell state predicted by the XOR algebra.
        let joint = BellState::PHI_PLUS
            .density()
            .tensor(&BellState::PHI_PLUS.density());
        for u in [0.1, 0.35, 0.6, 0.85] {
            let (outcome, rest) = bell_measure_ideal(&joint, 1, 2, u);
            let rest = rest.expect("A and C remain");
            assert_eq!(rest.num_qubits(), 2);
            let predicted = BellState::PHI_PLUS.combine(BellState::PHI_PLUS, outcome);
            let f = rest.fidelity_pure(&predicted.amplitudes());
            assert!(
                (f - 1.0).abs() < 1e-9,
                "outcome {outcome}: fidelity to predicted {predicted} was {f}"
            );
        }
    }

    #[test]
    fn swap_circuit_decoding_matches_projective_measurement() {
        // Run the swap circuit on each pure Bell state and compare the
        // decoded outcome with the state identity.
        for b in BellState::ALL {
            let mut rho = b.density();
            rho.apply_unitary(&gates::cnot(), &[0, 1]);
            rho.apply_unitary(&gates::h(), &[0]);
            let ma = rho.measure_z(0, 0.5);
            let mb = rho.measure_z(1, 0.5);
            assert_eq!(swap_circuit_outcome(ma, mb), b);
        }
    }
}
