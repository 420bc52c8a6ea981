//! The local operator kernel behind every dense gate, channel and
//! projection.
//!
//! A `k`-qubit operator (`k ≤ 2`) placed on target qubits of an
//! `n`-qubit register is, written out, a 2ⁿ×2ⁿ matrix with at most 2ᵏ
//! nonzeros per row. [`sandwich`] never writes it out: it compiles the
//! operator into those sparse rows — each row's nonzeros in ascending
//! column order — and computes `ρ ← Σᵢ FᵢρFᵢ†` from them. [`mask_z`]
//! is the Z projection and [`partial_trace`] the reduction to kept
//! qubits.
//!
//! ## Summation-order invariant
//!
//! The results are bit-identical to the dense formulation
//! `Σᵢ (Fᵢ·ρ)·Fᵢ†`, where each term is formed in full (every entry a sum
//! that starts from +0 and adds the nonzero products in ascending
//! column order) and then added to an accumulator that starts from
//! zero. Entry by entry the kernel adds exactly the same nonzero
//! products in exactly the same order:
//!
//! * `(F·ρ)[i,k]` sums `F[i,l]·ρ[l,k]` over row `i`'s nonzeros `l`,
//!   ascending;
//! * the term's `[i,j]` sums `(F·ρ)[i,k]·conj(F[j,k])` over row `j`'s
//!   nonzeros `k`, ascending, from +0, and only then joins the
//!   accumulator.
//!
//! Products with an exact zero factor are the only ones the two
//! formulations may add or skip differently. Such a product is ±0 in
//! each component, and adding ±0 leaves a nonzero sum unchanged and a
//! +0 sum at +0; a sum that starts from +0 never becomes −0. So the
//! only possible difference is the sign of an exact zero in an
//! intermediate value, and the accumulated output matches to the bit.
//!
//! **Monomial operators** — at most one nonzero in each row and each
//! column: Paulis, CNOT, every permutation or diagonal gate, and the
//! Kraus operators of the dephasing, depolarizing, bit-flip and
//! amplitude-damping channels — fuse both products into one pass over
//! the nonzero state entries: `ρ[cᵢ,cⱼ]` feeds only `acc[i,j] +=
//! (xᵢ·ρ[cᵢ,cⱼ])·conj(xⱼ)`, with `(cᵢ, xᵢ)` row `i`'s single nonzero.
//! The term's entry is then that single product, so no per-term matrix
//! is built, and zero state entries cost nothing.
//!
//! The per-thread buffers make every call allocation-free after the
//! first one of its size on a thread.

use crate::complex::C64;
use crate::matrix::CMatrix;
use std::cell::RefCell;

/// Largest operator width: every gate and Kraus operator in the stack
/// acts on one or two qubits.
const MAX_TARGETS: usize = 2;
const MAX_WIDTH: usize = 1 << MAX_TARGETS;

/// Reusable per-thread work buffers. They never nest: no kernel calls
/// another while holding the borrow.
struct Scratch {
    /// `(local row, non-target bits)` of every register index for the
    /// current targets.
    rows: Vec<(usize, usize)>,
    /// The nonzero entries `(row, column, value)` of the input state.
    nonzeros: Vec<(usize, usize, C64)>,
    /// For a monomial operator, the `(row, value)` of the single nonzero
    /// in each column; value zero marks an empty column.
    by_col: Vec<(usize, C64)>,
    /// `F·ρ`, for operators that are not monomial.
    tmp: Vec<C64>,
    acc: CMatrix,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch {
        rows: Vec::new(),
        nonzeros: Vec::new(),
        by_col: Vec::new(),
        tmp: Vec::new(),
        acc: CMatrix::zeros(1, 1),
    });
}

/// One operator's rows in its own (local) index space: row `t` holds
/// its nonzeros as `(register column offset, value)`, ascending by
/// offset. Register row `i` with local row `t` and non-target bits
/// `rest` has the nonzeros `(rest | offset, value)`, still ascending.
struct LocalRows {
    len: [usize; MAX_WIDTH],
    entries: [[(usize, C64); MAX_WIDTH]; MAX_WIDTH],
    monomial: bool,
}

impl LocalRows {
    /// `offsets[..width]` lists `(register offset, local column)` in
    /// ascending offset order.
    fn compile(op: &CMatrix, offsets: &[(usize, usize)]) -> LocalRows {
        let width = offsets.len();
        assert!(
            op.rows() == width && op.cols() == width,
            "operator size mismatch"
        );
        let mut rows = LocalRows {
            len: [0; MAX_WIDTH],
            entries: [[(0, C64::ZERO); MAX_WIDTH]; MAX_WIDTH],
            monomial: true,
        };
        let mut col_count = [0usize; MAX_WIDTH];
        for t in 0..width {
            let mut len = 0;
            for &(offset, col) in offsets {
                let v = op[(t, col)];
                if v != C64::ZERO {
                    rows.entries[t][len] = (offset, v);
                    len += 1;
                    col_count[col] += 1;
                }
            }
            rows.len[t] = len;
        }
        rows.monomial = rows.len.iter().chain(&col_count).all(|&n| n <= 1);
        rows
    }

    fn row(&self, t: usize) -> &[(usize, C64)] {
        &self.entries[t][..self.len[t]]
    }
}

/// Register size `n` of a square 2ⁿ×2ⁿ matrix.
fn num_qubits(m: &CMatrix) -> usize {
    assert!(
        m.is_square() && m.rows().is_power_of_two(),
        "not a register"
    );
    m.rows().trailing_zeros() as usize
}

/// Fill `rows` with every register index's `(local row, non-target
/// bits)` for `targets` (the first target is the most significant bit
/// of the local index) and return the `(register offset, local
/// column)` pairs in ascending offset order.
fn layout(
    n: usize,
    targets: &[usize],
    rows: &mut Vec<(usize, usize)>,
) -> ([(usize, usize); MAX_WIDTH], usize) {
    let k = targets.len();
    assert!(
        (1..=MAX_TARGETS).contains(&k),
        "operators act on 1..={MAX_TARGETS} qubits"
    );
    let mut seen = 0usize;
    for &q in targets {
        assert!(q < n, "target out of range");
        assert!(seen & (1 << q) == 0, "duplicate target {q}");
        seen |= 1 << q;
    }
    let bit = |q: usize| 1usize << (n - 1 - q);
    let target_mask: usize = targets.iter().map(|&q| bit(q)).sum();
    let width = 1 << k;
    let mut offsets = [(0, 0); MAX_WIDTH];
    for (t, slot) in offsets.iter_mut().enumerate().take(width) {
        let offset = targets
            .iter()
            .enumerate()
            .filter(|(pos, _)| (t >> (k - 1 - pos)) & 1 == 1)
            .map(|(_, &q)| bit(q))
            .sum();
        *slot = (offset, t);
    }
    offsets[..width].sort_unstable();
    rows.clear();
    rows.extend((0..1usize << n).map(|i| {
        let t = targets
            .iter()
            .fold(0, |t, &q| (t << 1) | usize::from(i & bit(q) != 0));
        (t, i & !target_mask)
    }));
    (offsets, width)
}

/// `m ← Σᵢ FᵢmFᵢ†` for the operators `ops` placed on `targets` — a
/// unitary is a one-element set. No renormalisation, so `m` need not
/// have unit trace. Bit-identical to the dense formulation (see the
/// module docs).
///
/// # Panics
/// On a target list that is empty, longer than two, out of range or
/// repeated, or an operator whose size does not match it.
pub fn sandwich(m: &mut CMatrix, ops: &[CMatrix], targets: &[usize]) {
    let n = num_qubits(m);
    let dim = 1usize << n;
    SCRATCH.with(|s| {
        let s = &mut *s.borrow_mut();
        let (offsets, width) = layout(n, targets, &mut s.rows);
        s.acc.reset_zeros(dim, dim);
        s.nonzeros.clear();
        s.nonzeros.extend(
            m.data()
                .iter()
                .enumerate()
                .filter(|(_, r)| **r != C64::ZERO)
                .map(|(idx, r)| (idx / dim, idx % dim, *r)),
        );
        for op in ops {
            let local = LocalRows::compile(op, &offsets[..width]);
            if local.monomial {
                add_monomial(
                    &s.nonzeros,
                    &local,
                    &s.rows,
                    &mut s.by_col,
                    s.acc.data_mut(),
                );
            } else {
                add_general(m.data(), &local, &s.rows, &mut s.tmp, s.acc.data_mut());
            }
        }
        std::mem::swap(m, &mut s.acc);
    });
}

/// `acc += FρF†` for a monomial `F`, one pass over the nonzero entries
/// of `ρ`: each feeds at most one entry of the term.
fn add_monomial(
    nonzeros: &[(usize, usize, C64)],
    local: &LocalRows,
    rows: &[(usize, usize)],
    by_col: &mut Vec<(usize, C64)>,
    acc: &mut [C64],
) {
    let dim = rows.len();
    by_col.clear();
    by_col.resize(dim, (0, C64::ZERO));
    for (i, &(t, rest)) in rows.iter().enumerate() {
        if let [(offset, x)] = local.row(t) {
            by_col[rest | offset] = (i, *x);
        }
    }
    for &(a, b, r) in nonzeros {
        let (i, xi) = by_col[a];
        let (j, xj) = by_col[b];
        if xi == C64::ZERO || xj == C64::ZERO {
            continue;
        }
        acc[i * dim + j] += (xi * r) * xj.conj();
    }
}

/// `acc += FρF†` for a general `F`: `F·ρ` first, then each entry of the
/// term summed in full before it joins `acc`.
fn add_general(
    rho: &[C64],
    local: &LocalRows,
    rows: &[(usize, usize)],
    tmp: &mut Vec<C64>,
    acc: &mut [C64],
) {
    let dim = rows.len();
    tmp.clear();
    tmp.resize(dim * dim, C64::ZERO);
    for (i, &(t, rest)) in rows.iter().enumerate() {
        let dst = &mut tmp[i * dim..][..dim];
        for &(offset, x) in local.row(t) {
            let src = &rho[(rest | offset) * dim..][..dim];
            for (d, &r) in dst.iter_mut().zip(src) {
                *d += x * r;
            }
        }
    }
    for i in 0..dim {
        let fr = &tmp[i * dim..][..dim];
        let dst = &mut acc[i * dim..][..dim];
        for (d, &(t, rest)) in dst.iter_mut().zip(rows) {
            let mut sum = C64::ZERO;
            for &(offset, y) in local.row(t) {
                sum += fr[rest | offset] * y.conj();
            }
            *d += sum;
        }
    }
}

/// Conjugate `m` by the projector onto Z eigenvalue `outcome` of
/// `qubit`, without renormalising: the projector products keep each
/// entry whose row and column both have that bit value, exactly, and
/// zero the rest.
pub fn mask_z(m: &mut CMatrix, qubit: usize, outcome: bool) {
    let n = num_qubits(m);
    assert!(qubit < n, "qubit out of range");
    let bit = 1usize << (n - 1 - qubit);
    let want = if outcome { bit } else { 0 };
    let dim = m.rows();
    for (idx, z) in m.data_mut().iter_mut().enumerate() {
        if (idx / dim) & bit != want || (idx % dim) & bit != want {
            *z = C64::ZERO;
        }
    }
}

/// Partial trace of a (possibly unnormalised) register matrix keeping
/// the listed qubits, in the order given.
pub fn partial_trace(m: &CMatrix, keep: &[usize]) -> CMatrix {
    let n = num_qubits(m);
    let k = keep.len();
    assert!(k >= 1 && k <= n);
    let rest: Vec<usize> = (0..n).filter(|q| !keep.contains(q)).collect();
    let kdim = 1usize << k;
    let rdim = 1usize << rest.len();
    let mut out = CMatrix::zeros(kdim, kdim);

    // Build a full index from sub-indices over `keep` and `rest`.
    let compose = |a: usize, r: usize| -> usize {
        let mut idx = 0usize;
        for (pos, q) in keep.iter().enumerate() {
            let bit = (a >> (k - 1 - pos)) & 1;
            idx |= bit << (n - 1 - q);
        }
        for (pos, q) in rest.iter().enumerate() {
            let bit = (r >> (rest.len() - 1 - pos)) & 1;
            idx |= bit << (n - 1 - q);
        }
        idx
    };

    for a in 0..kdim {
        for b in 0..kdim {
            let mut sum = C64::ZERO;
            for r in 0..rdim {
                sum += m[(compose(a, r), compose(b, r))];
            }
            out[(a, b)] = sum;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;

    #[test]
    fn operator_on_second_qubit_is_identity_on_the_rest() {
        // X on qubit 1 of a 2-qubit register acts as I ⊗ X.
        let mut m = CMatrix::from_reals(
            4,
            4,
            &[
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
        );
        let ix = CMatrix::identity(2).kron(&gates::x());
        let expect = &(&ix * &m) * &ix.dagger();
        sandwich(&mut m, &[gates::x()], &[1]);
        assert_eq!(m, expect);
    }

    #[test]
    fn mask_keeps_matching_rows_and_columns() {
        let mut m = CMatrix::from_reals(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        mask_z(&mut m, 0, true);
        assert_eq!(m, CMatrix::from_reals(2, 2, &[0.0, 0.0, 0.0, 4.0]));
    }

    #[test]
    #[should_panic(expected = "operator size mismatch")]
    fn sandwich_rejects_mismatched_operator() {
        let mut m = CMatrix::identity(4);
        sandwich(&mut m, &[gates::cnot()], &[0]);
    }
}
