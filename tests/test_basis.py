import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jointtomo import (
    ValidationError,
    build_basis,
    change_of_basis,
    coherence_to_state,
    devectorize,
    from_coords,
    to_coords,
    vectorize,
)
from jointtomo.basis import _skewed
from jointtomo.channels import sampled_unitaries
from jointtomo.serialize import load_hamiltonians, matrix_to_json

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_complex(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def random_hermitian(rng, d):
    a = random_complex(rng, d)
    return (a + a.conj().T) / 2


def test_qubit_basis_is_normalized_paulis():
    b = build_basis(2)
    expected = [np.eye(2), SX, SY, SZ]
    for om, pauli in zip(b.omegas, expected):
        assert np.allclose(om, pauli / np.sqrt(2), atol=1e-14)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_basis_orthonormality(d):
    b = build_basis(d)
    gram = np.einsum("aij,bij->ab", b.omegas.conj(), b.omegas)
    assert np.max(np.abs(gram - np.eye(d * d))) < 1e-12


def test_basis_trace_structure():
    for d in (2, 3, 4):
        b = build_basis(d)
        assert np.allclose(b.omegas[0], np.eye(d) / np.sqrt(d))
        for om in b.omegas[1:]:
            assert abs(np.trace(om)) < 1e-14
            assert np.allclose(om, om.conj().T)


def test_basis_rejects_small_dimension():
    with pytest.raises(ValidationError):
        build_basis(1)


def test_vectorize_is_column_major():
    a = np.array([[1, 2], [3, 4]])
    assert np.array_equal(vectorize(a), [1, 3, 2, 4])
    v = vectorize(np.eye(3))
    assert np.array_equal(np.nonzero(v)[0], [0, 4, 8])


def test_vec_kronecker_identity():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a, b, c = (random_complex(rng, 2) for _ in range(3))
        lhs = vectorize(a @ b @ c)
        rhs = np.kron(c.T, a) @ vectorize(b)
        assert np.linalg.norm(lhs - rhs) < 1e-12


def test_devectorize_roundtrip_and_errors():
    rng = np.random.default_rng(1)
    a = random_complex(rng, 3)
    assert np.allclose(devectorize(vectorize(a)), a)
    v = rng.normal(size=9)
    assert np.allclose(vectorize(devectorize(v)), v)
    with pytest.raises(ValidationError):
        devectorize(np.arange(5))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_change_of_basis_unitary(d):
    u = change_of_basis(build_basis(d))
    assert np.max(np.abs(u @ u.conj().T - np.eye(d * d))) < 1e-12


def test_hermitian_coordinates_are_real():
    rng = np.random.default_rng(2)
    u = change_of_basis(build_basis(2))
    for _ in range(20):
        a = random_hermitian(rng, 2)
        assert np.max(np.abs((u @ vectorize(a)).imag)) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_conjugation_superoperator_is_real(d):
    # U (A* kron A) U^dag stays real for arbitrary complex A.
    rng = np.random.default_rng(3)
    u = change_of_basis(build_basis(d))
    for _ in range(100):
        a = random_complex(rng, d)
        m = u @ np.kron(a.conj(), a) @ u.conj().T
        assert np.max(np.abs(m.imag)) < 1e-10


def test_state_coords_maximally_mixed():
    b = build_basis(2)
    coords = to_coords(np.eye(2) / 2, b)
    assert abs(coords[0] - 1 / np.sqrt(2)) < 1e-14
    assert np.allclose(coords[1:], 0)


def test_state_coords_ground_state():
    b = build_basis(2)
    ket0 = np.array([[1, 0], [0, 0]], dtype=complex)
    x = to_coords(ket0, b)[1:]
    # direct inner products: Tr(sigma_k |0><0|)/sqrt(2)
    expected = [np.trace(s @ ket0).real / np.sqrt(2) for s in (SX, SY, SZ)]
    assert np.allclose(x, expected)
    assert np.allclose(x, [0, 0, 1 / np.sqrt(2)])


def test_non_hermitian_input_rejected():
    b = build_basis(2)
    with pytest.raises(ValidationError):
        to_coords(np.array([[0, 1], [0, 0]], dtype=complex), b)
    with pytest.raises(ValidationError):
        to_coords(np.array([[0, 1j], [1j, 0]]), b)


def test_coordinate_maps_refuse_non_finite_entries_and_wrong_shapes():
    b = build_basis(2)
    with pytest.raises(ValidationError, match="non-finite"):
        to_coords(np.array([[np.nan, 0], [0, 1]]), b)
    for bad in (np.eye(3), np.ones(4)):
        with pytest.raises(ValidationError):
            to_coords(bad, b)
    for bad in (np.zeros(5), np.zeros((2, 3)), np.float64(1.0)):
        with pytest.raises(ValidationError):
            from_coords(bad, b)
    with pytest.raises(ValidationError):
        coherence_to_state(np.zeros(4), b)


def test_povm_coords_identity_and_projector():
    b = build_basis(2)
    c = to_coords(np.eye(2), b)
    assert abs(c[0] - np.sqrt(2)) < 1e-14
    assert np.allclose(c[1:], 0)
    c = to_coords(np.array([[1, 0], [0, 0]], dtype=complex), b)
    assert abs(c[0] - 1 / np.sqrt(2)) < 1e-14
    assert np.allclose(c[1:], [0, 0, 1 / np.sqrt(2)])
    back = from_coords(c, b)
    assert np.allclose(back, [[1, 0], [0, 0]])


def test_povm_coords_completeness_sums():
    rng = np.random.default_rng(6)
    b = build_basis(2)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    p1 = g @ g.conj().T
    p1 = 0.6 * p1 / np.linalg.eigvalsh(p1)[-1]
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    p2 = g @ g.conj().T
    p2 = 0.3 * p2 / np.linalg.eigvalsh(p2)[-1]
    coords = to_coords(np.stack([p1, p2, np.eye(2) - p1 - p2]), b)
    assert abs(coords[:, 0].sum() - np.sqrt(2)) < 1e-12
    assert np.linalg.norm(coords[:, 1:].sum(axis=0)) < 1e-12


def test_coherence_to_state_is_the_unit_trace_map_over_stacks():
    rng = np.random.default_rng(7)
    b = build_basis(3)
    x = rng.normal(size=(2, 4, 8))
    rho = coherence_to_state(x, b)
    assert rho.shape == (2, 4, 3, 3)
    assert np.allclose(np.trace(rho, axis1=-2, axis2=-1), 1.0, rtol=0.0, atol=1e-14)
    assert np.allclose(to_coords(rho, b)[..., 1:], x, rtol=0.0, atol=1e-12)


_SIZE = st.integers(1, 3)


@st.composite
def _hermitian_stacks(draw):
    """``(d, A)``: d in {2, 3, 4} and Hermitian matrices ``A`` stacked with
    leading shape ``()``, ``(T,)`` or ``(T, M)``."""
    d = draw(st.sampled_from([2, 3, 4]))
    lead = draw(st.one_of(st.just(()), st.tuples(_SIZE), st.tuples(_SIZE, _SIZE)))
    parts = draw(arrays(float, (2, *lead, d, d),
                        elements=st.floats(-3.0, 3.0, allow_nan=False, width=64)))
    g = parts[0] + 1j * parts[1]
    return d, (g + g.conj().swapaxes(-1, -2)) / 2.0


@settings(max_examples=60, deadline=None)
@given(_hermitian_stacks())
def test_coordinate_maps_are_inverse_and_match_the_traces(case):
    d, a = case
    b = build_basis(d)
    coords = to_coords(a, b)
    assert coords.shape == a.shape[:-2] + (d * d,) and coords.dtype == float
    assert np.allclose(from_coords(coords, b), a, rtol=0.0, atol=1e-12)
    for idx in np.ndindex(a.shape[:-2]):
        expected = [np.trace(om @ a[idx]).real for om in b.omegas]
        assert np.allclose(coords[idx], expected, rtol=0.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(_hermitian_stacks(), st.data())
def test_to_coords_refuses_a_non_hermitian_member_or_a_wrong_dimension(case, data):
    d, a = case
    member = data.draw(st.tuples(*(st.integers(0, n - 1) for n in a.shape[:-2])))
    skewed = a.copy()
    skewed[member + (0, d - 1)] += 1.0
    with pytest.raises(ValidationError, match="not Hermitian"):
        to_coords(skewed, build_basis(d))
    with pytest.raises(ValidationError):
        to_coords(a, build_basis(d % 4 + 2))


_HUGE_SKEW = np.array([[1e308, 1e308], [-1e308, 0.0]])


@settings(max_examples=60, deadline=None)
@given(_hermitian_stacks(), st.floats(1.0, 1e300), st.floats(1e-3, 1.0), st.data())
def test_the_hermitian_rule_gives_one_verdict_at_every_scale(tmp_path_factory, case, scale,
                                                             skew, data):
    """A Hermitian stack is accepted and a clearly skewed member refused by
    ``_skewed``, as they are and scaled by up to 1e300, with no norm
    overflowing (warnings are errors here).  The huge skewed matrix of
    finite entries whose ``h - h^dag`` overflows is refused by the readers
    of Hermitian matrices and Hamiltonians, a Hamiltonian file included."""
    d, a = case
    member = data.draw(st.tuples(*(st.integers(0, n - 1) for n in a.shape[:-2])))
    skewed = a.copy()
    skewed[member + (0, d - 1)] += skew
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (1.0, scale):
            assert not _skewed(c * a).any()
            verdict = _skewed(c * skewed)
            assert verdict[member] and verdict.sum() == 1
            with pytest.raises(ValidationError, match="not Hermitian"):
                to_coords(c * skewed, build_basis(d))
            with pytest.raises(ValidationError, match="Hamiltonian must be Hermitian"):
                sampled_unitaries(c * skewed[member], 0.5, 2)
        path = tmp_path_factory.mktemp("hamiltonians") / "h.json"
        path.write_text(json.dumps([{"d": 2, "h": matrix_to_json(_HUGE_SKEW), "dt_us": 1.0}]))
        for call in (lambda: to_coords(_HUGE_SKEW, build_basis(2)),
                     lambda: sampled_unitaries(_HUGE_SKEW, 0.5, 2),
                     lambda: load_hamiltonians(path)):
            with pytest.raises(ValidationError, match="not Hermitian|must be Hermitian"):
                call()
