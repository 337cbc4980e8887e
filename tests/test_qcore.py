"""Core state/operator plumbing: construction checks, spectra, projectors."""

import numpy as np
import pytest

from conftest import random_unit
from qsvkit.qcore import (
    DENSE_DIM_CAP,
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    Ket,
    Operator,
    Spectrum,
    bell_ket,
    hadamard,
    hermitian_spectrum,
    max_eigenvalue_matfree,
    orthonormal_complement,
    overlap_fidelity,
    symmetric_projectors,
    tensor_product,
)


# ---------------------------------------------------------------------
# Ket / Operator construction
# ---------------------------------------------------------------------

def test_ket_validates_norm_and_dims():
    Ket(np.array([1.0, 0.0]), (2,))
    with pytest.raises(ValueError, match="norm"):
        Ket(np.array([1.0, 1.0]), (2,))
    Ket(np.array([1.0, 1.0]), (2,), normalized=False)
    with pytest.raises(ValueError, match="dims"):
        Ket(np.array([1.0, 0.0, 0.0]), (2,))
    with pytest.raises(ValueError, match="positive"):
        Ket(np.array([1.0]), (0,))


def test_ket_dim_is_product_of_dims():
    k = Ket(np.eye(12)[0], (3, 4))
    assert k.dim == 12
    assert k.dims == (3, 4)


def test_operator_validates_shape_cap_and_tag():
    Operator(np.eye(4), (2, 2), hermitian=True)
    with pytest.raises(ValueError, match="shape"):
        Operator(np.eye(3), (2, 2))
    side = DENSE_DIM_CAP + 1
    big = np.zeros((side, side), dtype=complex)  # zero pages, no physical cost
    with pytest.raises(ValueError, match="cap"):
        Operator(big, (side,))
    Operator(big, (side,), force_dense=True)
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError, match="hermitian"):
        Operator(skew, (2,), hermitian=True)
    Operator(skew, (2,))  # untagged is fine


def test_operator_factored_form_check():
    entries = np.kron(PAULI_X, PAULI_Z)
    op = Operator(entries, (2, 2), hermitian=True, factored_form=[(1.0, [PAULI_X, PAULI_Z])])
    assert op.check_factored_form() <= 1e-12
    bad = Operator(entries, (2, 2), hermitian=True, factored_form=[(0.5, [PAULI_X, PAULI_Z])])
    with pytest.raises(ValueError, match="deviates"):
        bad.check_factored_form()
    with pytest.raises(ValueError, match="no factored_form"):
        Operator(entries, (2, 2)).check_factored_form()


def test_spectrum_requires_descending_order():
    Spectrum(np.array([2.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="descending"):
        Spectrum(np.array([1.0, 2.0]))


# ---------------------------------------------------------------------
# Tensor products and spectra
# ---------------------------------------------------------------------

def test_tensor_product_matches_kron(rng):
    a = Ket(random_unit(rng, 2), (2,))
    b = Ket(random_unit(rng, 3), (3,))
    prod = tensor_product([a, b])
    assert prod.dims == (2, 3)
    assert np.allclose(prod.amplitudes, np.kron(a.amplitudes, b.amplitudes))

    x = Operator(PAULI_X, (2,), hermitian=True)
    z = Operator(PAULI_Z, (2,), hermitian=True)
    op = tensor_product([x, z])
    assert op.hermitian
    assert np.allclose(op.entries, np.kron(PAULI_X, PAULI_Z))


def test_tensor_product_rejects_mixed_factors():
    k = Ket(np.array([1.0, 0.0]), (2,))
    op = Operator(PAULI_X, (2,), hermitian=True)
    with pytest.raises(ValueError, match="all Ket or all Operator"):
        tensor_product([k, op])
    with pytest.raises(ValueError, match="at least one"):
        tensor_product([])


def test_hermitian_spectrum_descending_with_vectors(rng):
    block = rng.normal(size=(6, 6)) + 1.0j * rng.normal(size=(6, 6))
    herm = (block + block.conj().T) / 2.0
    op = Operator(herm, (6,), hermitian=True)
    spec = hermitian_spectrum(op, with_eigenvectors=True)
    assert np.all(np.diff(spec.eigenvalues) <= 1e-12)
    recon = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.conj().T
    assert np.max(np.abs(recon - herm)) < 1e-10
    with pytest.raises(ValueError, match="hermitian"):
        hermitian_spectrum(Operator(herm, (6,)))


def test_max_eigenvalue_matfree_matches_dense(rng):
    block = rng.normal(size=(40, 40)) + 1.0j * rng.normal(size=(40, 40))
    psd = block @ block.conj().T / 40.0
    top = float(np.linalg.eigvalsh(psd)[-1])
    approx = max_eigenvalue_matfree(lambda v: psd @ v, 40, tol=1e-11)
    assert abs(approx - top) < 1e-8


def test_max_eigenvalue_matfree_zero_map():
    assert max_eigenvalue_matfree(lambda v: 0.0 * v, 17) < 1e-9


# ---------------------------------------------------------------------
# Bell states, projectors, complements
# ---------------------------------------------------------------------

def test_bell_ket_amplitude_table():
    s = 1.0 / np.sqrt(2.0)
    expected = {
        (0, 0): [s, 0, 0, s],
        (0, 1): [0, s, s, 0],
        (1, 0): [s, 0, 0, -s],
        (1, 1): [0, s, -s, 0],
    }
    for (z, x), amps in expected.items():
        assert np.max(np.abs(bell_ket(z, x).amplitudes - np.array(amps))) < 1e-15
    with pytest.raises(ValueError, match="bits"):
        bell_ket(2, 0)


def test_symmetric_projectors_algebra(rng):
    psi = Ket(random_unit(rng, 3), (3,))
    f_op, p_s, p_psi = symmetric_projectors(psi)
    eye = np.eye(9)
    assert np.allclose(f_op.entries @ f_op.entries, eye)
    assert np.allclose(p_s.entries @ p_s.entries, p_s.entries)
    assert np.allclose(p_psi.entries @ p_psi.entries, p_psi.entries)
    a, b = random_unit(rng, 3), random_unit(rng, 3)
    assert np.allclose(f_op.entries @ np.kron(a, b), np.kron(b, a))
    # P_psi kills psi (x) psi and fixes psi (x) perp
    pp = np.kron(psi.amplitudes, psi.amplitudes)
    assert np.max(np.abs(p_psi.entries @ pp)) < 1e-12
    perp = orthonormal_complement(psi)[:, 0]
    mixed = np.kron(psi.amplitudes, perp)
    assert np.max(np.abs(p_psi.entries @ mixed - mixed)) < 1e-12


def test_orthonormal_complement_properties(rng):
    psi = Ket(random_unit(rng, 5), (5,))
    comp = orthonormal_complement(psi)
    assert comp.shape == (5, 4)
    gram = comp.conj().T @ comp
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12
    assert np.max(np.abs(comp.conj().T @ psi.amplitudes)) < 1e-12
    again = orthonormal_complement(psi.amplitudes)
    assert np.array_equal(comp, again)
    with pytest.raises(ValueError, match="unit"):
        orthonormal_complement(2.0 * psi.amplitudes)


def test_overlap_fidelity_ket_and_density(rng):
    psi = Ket(np.array([1.0, 0.0]), (2,))
    phi = Ket(np.array([np.sqrt(0.25), np.sqrt(0.75)]), (2,))
    assert abs(overlap_fidelity(psi, phi) - 0.25) < 1e-12
    rho = Operator(np.diag([0.7, 0.3]).astype(complex), (2,), hermitian=True)
    assert abs(overlap_fidelity(psi, rho) - 0.7) < 1e-12
    with pytest.raises(ValueError, match="trace"):
        overlap_fidelity(psi, Operator(np.diag([0.7, 0.7]).astype(complex), (2,), hermitian=True))
    with pytest.raises(ValueError, match="negative"):
        overlap_fidelity(psi, Operator(np.diag([1.5, -0.5]).astype(complex), (2,), hermitian=True))
    with pytest.raises(ValueError, match="mismatch"):
        overlap_fidelity(psi, Ket(np.eye(4)[0], (2, 2)))


def test_hadamard_conjugation_swaps_x_and_z():
    assert np.allclose(HADAMARD @ PAULI_X @ HADAMARD, PAULI_Z)


def test_hadamard_matrix_entries_are_popcount_signs():
    for n in range(9):
        d = 1 << n
        idx = np.arange(d)
        popcount = np.array([[bin(i & j).count("1") for j in idx] for i in idx])
        assert np.array_equal(hadamard(d), (-1.0) ** popcount)


def test_hadamard_matrix_is_cached_read_only_and_validated():
    h = hadamard(8)
    assert hadamard(8) is h
    assert not h.flags.writeable
    assert np.array_equal(h @ h, 8.0 * np.eye(8))
    for bad in (0, 3, 12):
        with pytest.raises(ValueError, match="power of two"):
            hadamard(bad)
