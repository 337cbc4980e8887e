"""Core state/operator plumbing: construction checks, eigensolver, Bell kets, complements."""

import numpy as np
import pytest

from conftest import random_unit
from qsvkit.graphs import _hadamard_layer
from qsvkit.qcore import (
    DENSE_DIM_CAP,
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    Ket,
    Operator,
    bell_ket,
    max_eigenvalue_matfree,
    orthonormal_complement,
    walsh_signs,
)


# ---------------------------------------------------------------------
# Ket / Operator construction
# ---------------------------------------------------------------------

def test_ket_validates_norm_and_dims():
    Ket(np.array([1.0, 0.0]), (2,))
    with pytest.raises(ValueError, match="norm"):
        Ket(np.array([1.0, 1.0]), (2,))
    with pytest.raises(ValueError, match="norm"):
        Ket(np.array([1.0, np.nan]), (2,))
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
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError, match="hermitian"):
        Operator(skew, (2,), hermitian=True)
    Operator(skew, (2,))  # untagged is fine


# ---------------------------------------------------------------------
# Matrix-free eigensolver
# ---------------------------------------------------------------------

def test_max_eigenvalue_matfree_matches_dense(rng):
    block = rng.normal(size=(40, 40)) + 1.0j * rng.normal(size=(40, 40))
    psd = block @ block.conj().T / 40.0
    top = float(np.linalg.eigvalsh(psd)[-1])
    approx = max_eigenvalue_matfree(lambda v: psd @ v, 40, tol=1e-11)
    assert abs(approx - top) < 1e-8


def test_max_eigenvalue_matfree_zero_map():
    assert max_eigenvalue_matfree(lambda v: 0.0 * v, 17) < 1e-9


# ---------------------------------------------------------------------
# Bell states and complements
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


def test_hadamard_conjugation_swaps_x_and_z():
    assert np.allclose(HADAMARD @ PAULI_X @ HADAMARD, PAULI_Z)


def test_hadamard_matrix_entries_are_popcount_signs():
    for n in range(9):
        d = 1 << n
        idx = np.arange(d)
        popcount = np.array([[bin(i & j).count("1") for j in idx] for i in idx])
        assert np.array_equal(walsh_signs(idx[:, None], idx[None, :]), (-1.0) ** popcount)


def test_hadamard_matrix_is_cached_read_only_and_validated():
    # No Hadamard matrix is cached any more: the graph-side layer is rebuilt
    # from the Walsh sign rule on each call, so there is no shared copy to
    # keep read-only and no order to validate. What stays is S S = d I, and
    # the layer being H on every qubit.
    for n in range(9):
        d = 1 << n
        idx = np.arange(d)
        signs = walsh_signs(idx[:, None], idx[None, :])
        assert np.array_equal(signs @ signs, d * np.eye(d))
    layer = np.ones((1, 1))
    for n in range(6):
        assert np.max(np.abs(_hadamard_layer(n) - layer)) < 1e-15
        layer = np.kron(layer, HADAMARD)
