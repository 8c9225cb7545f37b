import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from jointtomo import (
    DensityMatrix,
    FactoredDesign,
    KrausChannel,
    Povm,
    ProcessEnsemble,
    Stage1Config,
    ValidationError,
    amplitude_damping,
    build_basis,
    build_regression_matrices,
    change_of_basis,
    devectorize,
    discretize_hamiltonian,
    estimate_joint_v1,
    factor_design,
    hamiltonian_generator,
    haar_unitary,
    is_generalized_unital,
    make_named_channel,
    min_hamiltonian_count,
    numerical_rank,
    pauli,
    pauli_sandwich_processes,
    povm_membership,
    preset,
    rank_bound,
    run_method_comparison,
    simulate_dataset,
    stage1_solve,
    superoperator,
    to_coords,
    transfer_matrix,
    vectorize,
)
from jointtomo import channels
from jointtomo.basis import HERMITIAN_TOL
from jointtomo.bench import PRESET_NAMES
from jointtomo.channels import _sampled_unitary_channels, closed_system_channels, sampled_unitaries
from jointtomo.serialize import dataset_from_json


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_mixed_channel(rng, d):
    """Random channel drawn from unital, scaled-unitary, and generic CP kinds."""
    kind = rng.integers(3)
    if kind == 0:  # mixed-unitary: unital
        u1, u2 = haar_unitary(d, rng), haar_unitary(d, rng)
        w = rng.uniform(0.2, 0.8)
        kraus = np.stack([np.sqrt(w) * u1, np.sqrt(1 - w) * u2])
        return KrausChannel(d, kraus)
    if kind == 1:  # scaled unitary: generalized-unital, non-TP
        alpha = rng.uniform(0.3, 1.0)
        return make_named_channel("scaled", alpha=alpha,
                                  channel=make_named_channel("unitary", u=haar_unitary(d, rng)))
    return make_named_channel("random_cp", d=d, rank=d * d, seed=int(rng.integers(2 ** 32)))


def test_superoperator_identity_and_unitary():
    b = superoperator(KrausChannel(2, np.eye(2)[None]))
    assert np.allclose(b, np.eye(4))
    rng = np.random.default_rng(0)
    u = haar_unitary(3, rng)
    assert np.allclose(superoperator(make_named_channel("unitary", u=u)), np.kron(u.conj(), u))


def test_superoperator_preserves_identity_row_for_tp():
    # vec(I)^dag B = vec(I)^dag whenever the channel is trace preserving
    rng = np.random.default_rng(20)
    for d in (2, 3):
        ch = make_named_channel("random_cp", d=d, rank=d * d,
                                seed=int(rng.integers(2 ** 32)), tp=True)
        vec_i = vectorize(np.eye(d)).conj()
        assert np.linalg.norm(vec_i @ superoperator(ch) - vec_i) < 1e-10


def test_superoperator_matches_kraus_action():
    rng = np.random.default_rng(1)
    ch = make_named_channel("random_cp", d=4, rank=6, seed=11, tp=True)
    b = superoperator(ch)
    for _ in range(20):
        rho = random_density(rng, 4)
        direct = ch.apply(rho)
        via_vec = devectorize(b @ vectorize(rho))
        assert np.linalg.norm(direct - via_vec) < 1e-12


def test_transfer_identity_channel():
    tm = transfer_matrix(KrausChannel(2, np.eye(2)[None]), build_basis(2))
    assert abs(tm.r - 1) < 1e-12
    assert np.allclose(tm.t, 0) and np.allclose(tm.h, 0)
    assert np.allclose(tm.e, np.eye(3))


def test_transfer_bit_flip_bloch_action():
    # hand oracle: x -> x, y -> (2p-1) y, z -> (2p-1) z
    basis = build_basis(2)
    for p in (0.0, 0.25, 0.7, 1.0):
        tm = transfer_matrix(make_named_channel("bit_flip", p=p), basis)
        assert np.allclose(tm.e, np.diag([1.0, 2 * p - 1, 2 * p - 1]), atol=1e-12)
        assert np.allclose(tm.h, 0, atol=1e-12)


def test_transfer_amplitude_damping_not_unital():
    tm = transfer_matrix(amplitude_damping(0.3), build_basis(2))
    assert np.linalg.norm(tm.h) > 0.1


def test_transfer_consistent_with_superoperator():
    rng = np.random.default_rng(2)
    for d in (2, 3):
        basis = build_basis(d)
        u = change_of_basis(basis)
        for _ in range(10):
            ch = random_mixed_channel(rng, d)
            tm = transfer_matrix(ch, basis)
            assert np.max(np.abs(tm.full - (u @ superoperator(ch) @ u.conj().T).real)) < 1e-10


def test_generalized_unital_flags():
    rng = np.random.default_rng(3)
    flag, alpha = is_generalized_unital(make_named_channel("unitary", u=haar_unitary(2, rng)))
    assert flag and abs(alpha - 1) < 1e-10
    scaled = make_named_channel("scaled", alpha=0.6,
                                channel=make_named_channel("unitary", u=haar_unitary(2, rng)))
    flag, alpha = is_generalized_unital(scaled)
    assert flag and abs(alpha - 0.6) < 1e-10
    flag, alpha = is_generalized_unital(amplitude_damping(0.3))
    assert not flag and alpha is None


@pytest.mark.parametrize("d", [2, 3])
def test_generalized_unital_matches_direct_definition(d):
    # h-block verdict must agree with sum_i A_i A_i^dag = alpha I at the same tol.
    rng = np.random.default_rng(4 + d)
    for _ in range(200):
        ch = random_mixed_channel(rng, d)
        flag, _ = is_generalized_unital(ch)
        image = np.einsum("kij,klj->il", ch.kraus, ch.kraus.conj())
        alpha = np.trace(image).real / d
        direct = np.linalg.norm(image - alpha * np.eye(d)) <= 1e-8
        assert flag == direct


def test_generator_zero_hamiltonian():
    assert np.allclose(hamiltonian_generator(np.zeros((2, 2)), build_basis(2)), 0)


def test_generator_antisymmetric_and_matches_unitary_transfer():
    rng = np.random.default_rng(5)
    for d, t in ((2, 0.37), (3, 0.7)):
        basis = build_basis(d)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (g + g.conj().T) / 2
        h -= np.trace(h) / d * np.eye(d)
        r = hamiltonian_generator(h, basis)
        assert np.max(np.abs(r + r.T)) < 1e-12
        ch = make_named_channel("unitary", u=expm(-1j * h * t))
        assert np.max(np.abs(expm(r * t) - transfer_matrix(ch, basis).e)) < 1e-10


def test_generator_z_rotation_in_xy_plane():
    basis = build_basis(2)
    r = hamiltonian_generator(pauli("z") / 2, basis)
    dt = 0.9
    q = expm(r * dt)
    expected = np.array([
        [np.cos(dt), np.sin(dt), 0.0],
        [-np.sin(dt), np.cos(dt), 0.0],
        [0.0, 0.0, 1.0],
    ])
    # orientation fixed by the unitary-channel transfer matrix itself
    ch = make_named_channel("unitary", u=expm(-1j * pauli("z") / 2 * dt))
    assert np.allclose(q, transfer_matrix(ch, basis).e, atol=1e-12)
    assert np.allclose(np.abs(q), np.abs(expected), atol=1e-12)
    assert abs(q[2, 2] - 1) < 1e-12


def test_generator_validation():
    basis = build_basis(2)
    with pytest.raises(ValidationError):
        hamiltonian_generator(np.array([[0, 1], [0, 0]]), basis)
    with pytest.raises(ValidationError):
        hamiltonian_generator(np.eye(2), basis)


def test_discretize_powers():
    qs = discretize_hamiltonian(np.zeros((3, 3)), 1.0, 4)
    assert all(np.allclose(q, np.eye(3)) for q in qs)
    r = hamiltonian_generator(pauli("z") / 2, build_basis(2))
    qs = discretize_hamiltonian(r, 0.5, 3)
    assert np.allclose(qs[1], qs[0] @ qs[0])
    assert np.allclose(qs[2], qs[0] @ qs[0] @ qs[0])
    for q in qs:
        assert np.allclose(q @ q.T, np.eye(3), atol=1e-12)
    with pytest.raises(ValidationError):
        discretize_hamiltonian(r, 0.5, 0)
    with pytest.raises(ValidationError):
        discretize_hamiltonian(r, -1.0, 2)


def test_named_channels():
    assert np.allclose(superoperator(make_named_channel("bit_flip", p=1.0)), np.eye(4))
    ch1 = make_named_channel("random_cp", d=2, rank=4, seed=7)
    ch2 = make_named_channel("random_cp", d=2, rank=4, seed=7)
    assert np.array_equal(ch1.kraus, ch2.kraus)
    with pytest.raises(ValidationError):
        make_named_channel("bit_flip", p=1.5)
    with pytest.raises(ValidationError):
        make_named_channel("scaled", alpha=0.0, channel=ch1)
    with pytest.raises(ValidationError):
        make_named_channel("unitary", u=np.ones((2, 2)))
    with pytest.raises(ValidationError):
        make_named_channel("warp", p=1)


def test_kraus_inequality_enforced():
    with pytest.raises(ValidationError):
        KrausChannel(2, 1.2 * np.eye(2)[None])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_kraus_matrices_must_be_finite(bad):
    kraus = np.stack([np.eye(2), np.zeros((2, 2))]).astype(complex)
    kraus[1, 0, 1] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        KrausChannel(2, kraus)


def test_a_stack_is_refused_with_the_message_of_its_first_failing_channel():
    kraus = np.stack([make_named_channel("random_cp", d=2, rank=2, seed=s).kraus
                      for s in range(10)])
    labels = [f"cp{a}" for a in range(10)]
    good = KrausChannel.stacked(2, kraus, labels)
    assert [ch.label for ch in good] == labels
    for ch, k in zip(good, kraus):
        assert ch.d == 2 and np.array_equal(ch.kraus, k)
        assert np.array_equal(KrausChannel(2, k).kraus, ch.kraus)
    kraus[6] *= 1.5  # beyond the Kraus inequality, as is channel 8
    kraus[8] *= 2.0
    with pytest.raises(ValidationError) as single:
        KrausChannel(2, kraus[6])
    assert str(single.value).startswith("Kraus inequality violated")
    with pytest.raises(ValidationError) as stacked:
        KrausChannel.stacked(2, kraus, labels)
    assert str(stacked.value) == str(single.value)
    for bad, message in [((2, kraus[:, :, :1], labels), r"shape \(k, 2, 2\)"),
                         ((2, kraus[:, :0], labels), "k >= 1"),
                         ((2, kraus[0], labels), "must be 4-D"),
                         ((2, kraus[:6], labels), "one label per channel")]:
        with pytest.raises(ValidationError, match=message):
            KrausChannel.stacked(*bad)


def _flags_agree(ens):
    assert ens.tp_flags.tolist() == [ch.is_trace_preserving for ch in ens.channels]
    assert ens.unital_flags.tolist() == [is_generalized_unital(ch)[0] for ch in ens.channels]
    assert not ens.tp_flags.flags.writeable and not ens.unital_flags.flags.writeable


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_the_stacked_flags_are_the_per_channel_verdicts_on_every_preset(name):
    _flags_agree(preset(name).ensemble)


def test_the_stacked_flags_read_through_the_zero_padding():
    """Channels with 1, 2, 3 and 4 Kraus matrices, some trace-preserving,
    some unital, some neither."""
    unitary = make_named_channel("unitary", u=pauli("x"))
    ens = ProcessEnsemble((
        amplitude_damping(0.3),
        make_named_channel("random_cp", d=2, rank=3, seed=1),
        make_named_channel("scaled", alpha=0.5, channel=make_named_channel("bit_flip", p=0.2)),
        make_named_channel("random_cp", d=2, rank=4, seed=2, tp=True),
        unitary,
        make_named_channel("scaled", alpha=0.8, channel=unitary),
        amplitude_damping(0.0),
    ))
    assert ens.kraus_stack.shape[1] == 4
    _flags_agree(ens)
    assert ens.tp_flags.tolist() == [True, False, False, True, True, False, True]
    assert ens.unital_flags.tolist() == [False, False, True, False, True, True, True]


def test_generalized_unital_coherence_pathway():
    # for generalized-unital processes the e-block alone propagates x.
    rng = np.random.default_rng(8)
    basis = build_basis(2)
    ch = make_named_channel("scaled", alpha=0.8,
                            channel=make_named_channel("unitary", u=haar_unitary(2, rng)))
    tm = transfer_matrix(ch, basis)
    for _ in range(50):
        rho = random_density(rng, 2)
        out = ch.apply(rho)
        assert np.linalg.norm(tm.e @ to_coords(rho, basis)[1:]
                              - to_coords(out, basis)[1:]) < 1e-10


def test_regression_matrices_single_identity():
    ens = ProcessEnsemble((KrausChannel(2, np.eye(2)[None]),))
    reg = build_regression_matrices(ens, build_basis(2))
    assert reg.rank_b == 1
    assert reg.b.shape == (1, 9)
    assert not reg.complete_v1 and not reg.complete_v2


def test_tp_ensemble_rank_ceiling():
    rng = np.random.default_rng(9)
    chans = tuple(make_named_channel("random_cp", d=2, rank=4, seed=int(rng.integers(2 ** 32)),
                                     tp=True) for _ in range(20))
    ens = ProcessEnsemble(chans)
    reg = build_regression_matrices(ens, build_basis(2))
    assert reg.rank_b_natural <= 13
    assert rank_bound(ens) == 13
    assert not reg.complete_v2


def test_flip_ensembles_are_rank_two():
    basis = build_basis(2)
    for kind in ("bit_flip", "phase_flip"):
        ens = ProcessEnsemble(tuple(make_named_channel(kind, p=p)
                                    for p in (0.1, 0.3, 0.5, 0.7, 0.9)))
        reg = build_regression_matrices(ens, basis)
        assert reg.rank_b == 2
        assert reg.rank_b_natural == 2


def test_mixed_dimension_ensemble_rejected():
    with pytest.raises(ValidationError):
        ProcessEnsemble((KrausChannel(2, np.eye(2)[None]), KrausChannel(3, np.eye(3)[None])))


def test_a_zero_matrix_has_rank_zero():
    assert numerical_rank(np.zeros((2, 3))) == 0


def test_no_hamiltonian_records_give_no_channels():
    assert closed_system_channels([], 3) == []
    with pytest.raises(ValidationError, match="^ensemble must contain at least one channel$"):
        ProcessEnsemble(tuple(closed_system_channels((), 3)))


def test_rank_bound_grouping():
    rng = np.random.default_rng(10)
    unitaries = [make_named_channel("unitary", u=haar_unitary(2, rng)) for _ in range(10)]
    # one group: 10 TP channels
    assert rank_bound(ProcessEnsemble(tuple(unitaries))) == 10
    # two groups of 5 with distinct Kraus sums (I and 0.8 I)
    scaled = [make_named_channel("scaled", alpha=0.8, channel=c) for c in unitaries[5:]]
    ens = ProcessEnsemble(tuple(unitaries[:5] + scaled))
    assert rank_bound(ens) == 10
    assert rank_bound(ProcessEnsemble((unitaries[0],))) == 1


def _rank_bound_one_channel_at_a_time(ens) -> int:
    """``rank_bound``'s greedy grouping written per channel: each channel
    joins the first group whose founder's Kraus sum is within the tolerance."""
    d, groups = ens.d, []
    for ch in ens.channels:
        gram = ch.kraus_gram()
        for group in groups:
            if np.linalg.norm(gram - group[0]) < channels.KRAUS_GRAM_TOL:
                group[1] += 1
                break
        else:
            groups.append([gram, 1])
    return int(min(sum(min(n, d ** 4 - d ** 2 + 1) for _, n in groups), d ** 4))


def test_rank_bound_groups_as_one_channel_at_a_time():
    expected = {"one_qubit_closed_complete": 13, "one_qubit_closed_incomplete": 6,
                "one_qubit_random_pure": 16, "two_qubit_mixed_unitary": 241,
                "two_qubit_mixed_unitary_incomplete": 241}
    for name, value in expected.items():
        ens = preset(name).ensemble
        assert rank_bound(ens) == _rank_bound_one_channel_at_a_time(ens) == value
    # interleaved groups, one larger than d^4 - d^2 + 1, and Kraus sums that
    # differ by less than the tolerance grouped together
    rng = np.random.default_rng(12)
    unitaries = [make_named_channel("unitary", u=haar_unitary(2, rng)) for _ in range(14)]
    scaled = [make_named_channel("scaled", alpha=0.8 * (1 + k * 1e-10), channel=unitaries[k])
              for k in range(2)]
    ens = ProcessEnsemble(tuple(unitaries[:1] + scaled[:1] + unitaries[1:] + scaled[1:]))
    assert rank_bound(ens) == _rank_bound_one_channel_at_a_time(ens) == 13 + 2


def test_min_hamiltonian_count_values():
    assert min_hamiltonian_count(2) == (3, 3)
    assert min_hamiltonian_count(3) == (10, 7)
    assert min_hamiltonian_count(4) == (18, 13)


@pytest.mark.parametrize("d", [2, 3])
def test_single_hamiltonian_sampling_rank_ceiling(d):
    # the stacked powers of one discretized generator never exceed d^2-d+1.
    rng = np.random.default_rng(11 + d)
    basis = build_basis(d)
    for _ in range(5):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (g + g.conj().T) / 2
        h -= np.trace(h) / d * np.eye(d)
        r = hamiltonian_generator(h, basis)
        qs = discretize_hamiltonian(r, 0.7, 10)
        stack = np.stack([vectorize(q) for q in qs])
        assert numerical_rank(stack) <= d * d - d + 1


def choi_matrix(ch):
    d = ch.d
    j = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[a, b] = 1.0
            j += np.kron(e, ch.apply(e))
    return j


def _choi_loop(pair_maps):
    """The Choi matrix of ``rho -> sum_k X_k rho Y_k`` one unit matrix at a time."""
    d = pair_maps[0][0].shape[0]
    j = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[a, b] = 1.0
            j += np.kron(e, sum(x @ e @ y for x, y in pair_maps))
    return j


def _kraus_from_choi_loop(j, d, scale, sign):
    """The Kraus matrices of one signed part of a Choi matrix, one eigenpair at a time."""
    vals, vecs = np.linalg.eigh(j)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(vals))))
    kraus = [np.sqrt(sign * lam * scale) * vec.reshape((d, d), order="F")
             for lam, vec in zip(vals, vecs.T) if sign * lam > tol]
    return np.stack(kraus or [np.zeros((d, d), dtype=complex)])


@pytest.mark.parametrize("v1, v2", [(pauli("x"), pauli("z")), (np.eye(3), np.eye(3)),
                                    (pauli("xy"), pauli("zx"))])
def test_choi_and_its_kraus_parts_match_their_loop_forms(v1, v2):
    """Equal to the loops on the Pauli-sandwich halves, whose products are
    exact, and to roundoff on random pairs, whose complex products the loop
    takes through matmul; the signed parts of one Choi matrix are equal."""
    d = len(v1)
    rng = np.random.default_rng(d)
    halves = ([(v1 / 2.0, v2.conj()), (v2.conj() / 2.0, v1)],
              [(1j * v1 / 2.0, v2.conj()), (-1j * v2.conj() / 2.0, v1)])
    for pairs in halves:
        assert np.array_equal(channels._choi_matrix(pairs), _choi_loop(pairs))
    pairs = [tuple(rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d)))
             for _ in range(3)]
    j = channels._choi_matrix(pairs)
    assert np.max(np.abs(j - _choi_loop(pairs))) <= 1e-14 * np.abs(j).max()
    j = j + j.conj().T  # Hermitian, with parts of both signs
    for sign in (1.0, -1.0):
        assert np.array_equal(channels._kraus_from_choi(j, d, 0.3, sign),
                              _kraus_from_choi_loop(j, d, 0.3, sign))
    psd = j @ j
    assert np.array_equal(channels._kraus_from_choi(psd, d, 0.3, -1.0), np.zeros((1, d, d)))


def test_pauli_sandwich_identity_case():
    chs = pauli_sandwich_processes(np.eye(2), np.eye(2), 0.1)
    rng = np.random.default_rng(12)
    rho = random_density(rng, 2)
    assert np.linalg.norm(chs[0].apply(rho) - 0.1 * rho) < 1e-12
    assert np.linalg.norm(chs[1].apply(rho)) < 1e-12
    assert np.linalg.norm(chs[2].apply(rho)) < 1e-12
    assert np.linalg.norm(chs[3].apply(rho)) < 1e-12


def test_pauli_sandwich_reconstruction():
    rng = np.random.default_rng(13)
    for names, g in ((("x", "z"), 0.05), (("xy", "zi"), 0.04)):
        v1, v2 = pauli(names[0]), pauli(names[1])
        chs = pauli_sandwich_processes(v1, v2, g)
        rho = random_density(rng, v1.shape[0])
        rec = (chs[0].apply(rho) - chs[1].apply(rho)
               - 1j * (chs[2].apply(rho) - chs[3].apply(rho)))
        assert np.linalg.norm(rec - g * v1 @ rho @ v2.conj()) < 1e-10
        for ch in chs:
            assert np.linalg.eigvalsh(choi_matrix(ch))[0] > -1e-10


def test_pauli_sandwich_rejects_large_coupling():
    with pytest.raises(ValidationError) as err:
        pauli_sandwich_processes(pauli("x"), pauli("z"), 3.0)
    assert "admissible" in str(err.value)


def test_pauli_sandwich_input_validation():
    with pytest.raises(ValidationError):
        pauli_sandwich_processes(np.array([[0, 1], [0, 0]]), np.eye(2), 0.1)
    with pytest.raises(ValidationError):
        pauli_sandwich_processes(np.eye(2), np.eye(2), -0.1)


def _mixed_kraus_ensemble():
    """Channels with 1, 2, 2 and 4 Kraus operators; amplitude damping loses
    no trace but is not unital, the scaled unitary loses trace."""
    rng = np.random.default_rng(21)
    unitary = make_named_channel("unitary", u=haar_unitary(2, rng))
    return ProcessEnsemble((
        unitary,
        make_named_channel("bit_flip", p=0.3),
        amplitude_damping(0.4),
        make_named_channel("random_cp", d=2, rank=4, seed=5),
        make_named_channel("scaled", alpha=0.7, channel=unitary),
    ))


def test_stacked_build_matches_per_channel_transfer_matrices():
    ens = _mixed_kraus_ensemble()
    basis = build_basis(2)
    assert ens.kraus_stack.shape == (5, 4, 2, 2)
    assert not ens.kraus_stack.flags.writeable
    for a, ch in enumerate(ens.channels):
        assert np.array_equal(ens.kraus_stack[a, :len(ch.kraus)], ch.kraus)
        assert not np.any(ens.kraus_stack[a, len(ch.kraus):])
    assert list(ens.tp_flags) == [ch.is_trace_preserving for ch in ens.channels]
    assert list(ens.tp_flags) == [True, True, True, False, False]
    reg = build_regression_matrices(ens, basis)
    per_b = np.stack([vectorize(transfer_matrix(ch, basis).e) for ch in ens.channels])
    per_nat = np.stack([vectorize(superoperator(ch)) for ch in ens.channels])
    assert reg.b.dtype == float and reg.b.shape == per_b.shape
    assert np.max(np.abs(reg.b - per_b)) < 1e-15
    assert np.max(np.abs(reg.b_natural - per_nat)) < 1e-15
    assert reg.rank_b == numerical_rank(per_b)
    assert reg.rank_b_natural == numerical_rank(per_nat)


def test_ensemble_apply_matches_per_channel_apply():
    ens = _mixed_kraus_ensemble()
    rho = random_density(np.random.default_rng(22), 2)
    out = ens.apply(rho)
    assert out.shape == (len(ens), 2, 2)
    for a, ch in enumerate(ens.channels):
        assert np.max(np.abs(out[a] - ch.apply(rho))) < 1e-15


def test_regression_record_is_two_matrices_factored_on_first_use(monkeypatch):
    """A record holds its ensemble and basis and builds nothing; each basis's
    matrix is built when first read, and factored by one SVD when its
    design is first read."""
    sc = preset("one_qubit_closed_complete")
    svds = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        svds.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    assert [f.name for f in dataclasses.fields(reg)] == ["ensemble", "basis"]
    assert reg.ensemble is sc.ensemble and reg.basis is sc.basis
    assert set(vars(reg)) == {"ensemble", "basis"} and svds == []
    assert reg.rank_b == 9 and reg.complete_v1
    assert set(vars(reg)) == {"ensemble", "basis", "b", "design"}
    assert svds == [reg.b.shape] == [(15, 9)]
    assert reg.design is reg.design and reg.design.b is reg.b
    assert svds == [reg.b.shape]
    assert reg.b_natural is reg.b_natural and reg.b_natural.shape == (15, 16)
    assert "design_natural" not in vars(reg) and len(svds) == 1
    assert reg.rank_b_natural == reg.design_natural.rank
    assert svds == [reg.b.shape, reg.b_natural.shape]
    assert reg.design_natural.b is reg.b_natural
    with pytest.raises(AttributeError):
        reg.rank_b = 3


def test_a_regression_record_holds_read_only_matrices():
    """Both matrices are read-only arrays that cannot be replaced, so the
    cached factorizations always describe them."""
    sc = preset("one_qubit_random_pure")
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    for name in ("b", "b_natural"):
        matrix = getattr(reg, name)
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 0  # once a stale factorization, now refused
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(reg, name, np.zeros_like(matrix))
        assert getattr(reg, name) is matrix
    for design in (reg.design, reg.design_natural):
        assert np.allclose((design.u * design.s) @ design.vh, design.b, atol=1e-13)
    assert reg.design.b is reg.b and reg.design_natural.b is reg.b_natural
    with pytest.raises(TypeError):
        channels.RegressionMatrices(b=np.eye(4), b_natural=np.eye(4, dtype=complex))


def _d3_ensemble(size: int) -> ProcessEnsemble:
    """``size`` channels at d = 3 with one to three Kraus matrices each."""
    return ProcessEnsemble(tuple(
        make_named_channel("random_cp", d=3, rank=1 + a % 3, seed=a, tp=a % 2 == 0)
        for a in range(size)))


def test_the_coherence_rows_built_in_blocks_are_those_of_one_block(monkeypatch):
    ens, basis = _d3_ensemble(20), build_basis(3)
    whole = build_regression_matrices(ens, basis).b  # one block of 20 processes
    monkeypatch.setattr(channels, "_ROW_BLOCK", 7)  # blocks of 7, 7 and 6 processes
    blocked = build_regression_matrices(ens, basis).b
    assert blocked.shape == whole.shape == (20, 64) and blocked.dtype == float
    assert blocked.tobytes() == whole.tobytes()
    per_b = np.stack([vectorize(transfer_matrix(ch, basis).e) for ch in ens.channels])
    assert np.max(np.abs(blocked - per_b)) < 1e-14


@pytest.mark.parametrize("call, message", [
    (lambda: build_regression_matrices(None, build_basis(2)),
     "^ensemble must be a ProcessEnsemble, got NoneType$"),
    (lambda: build_regression_matrices(_d3_ensemble(2), None),
     "^basis must be an OperatorBasis, got NoneType$"),
    (lambda: channels.RegressionMatrices(_d3_ensemble(2), build_basis(2)),
     "^dimension mismatch: ensemble 3, basis 2$"),
])
def test_a_regression_record_refuses_what_it_cannot_describe(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_ranks_and_completeness_read_the_cached_factorizations(name):
    sc = preset(name)
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    assert reg.design is reg.design
    assert reg.design_natural is reg.design_natural
    assert reg.rank_b == reg.design.rank == numerical_rank(reg.b)
    assert reg.rank_b_natural == reg.design_natural.rank == numerical_rank(reg.b_natural)
    assert reg.complete_v1 == (reg.rank_b == sc.basis.n_traceless ** 2)
    assert reg.complete_v2 == (reg.rank_b_natural == sc.d ** 4)


@pytest.fixture
def svds(monkeypatch):
    """An empty design memo for one test, and the shapes of the matrices that
    ``np.linalg.svd`` is called on during it."""
    monkeypatch.setattr(channels, "_memo", [])
    shapes = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return shapes


def test_fits_on_a_raw_matrix_factor_it_once(svds):
    sc = preset("one_qubit_closed_complete")
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    for seed in range(20):
        ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 1000, seed=seed,
                              basis=sc.basis)
        estimate_joint_v1(ds, reg.b, sc.basis)
    assert svds.count(reg.b.shape) == 1


def test_a_hit_returns_the_same_record_with_exact_factors(svds):
    b = np.random.default_rng(1).normal(size=(12, 5))
    design = factor_design(b)
    assert factor_design(b) is design
    assert factor_design(np.asfortranarray(b)) is design  # equal content, other layout
    assert svds == [b.shape]
    u, s, vh = np.linalg.svd(b, full_matrices=False)
    assert np.array_equal(design.u, u) and np.array_equal(design.s, s)
    assert np.array_equal(design.vh, vh) and design.rank == 5


def test_a_changed_array_is_factored_again(svds):
    b = np.random.default_rng(2).normal(size=(12, 5))
    original = b.copy()
    first = factor_design(b)
    b[0, 0] += 5.0
    second = factor_design(b)
    assert second is not first and np.array_equal(second.b, b)
    assert np.allclose((second.u * second.s) @ second.vh, b)
    # the first record still holds, and factors, the matrix it was made from
    assert np.array_equal(first.b, original)
    assert np.allclose((first.u * first.s) @ first.vh, first.b)
    assert len(svds) == 2


def test_a_memo_design_owns_a_read_only_copy(svds):
    b = np.random.default_rng(3).normal(size=(6, 4))
    design = factor_design(b)
    assert design.b is not b and not np.shares_memory(design.b, b)
    assert np.array_equal(design.b, b) and not design.b.flags.writeable
    with pytest.raises(ValueError):
        design.b[0, 0] = 1.0
    assert b.flags.writeable  # the caller's array is left as it was


def test_real_and_complex_matrices_do_not_share_an_entry(svds):
    b = np.random.default_rng(4).normal(size=(6, 4))
    real, cplx = factor_design(b), factor_design(b.astype(complex))
    assert cplx is not real
    assert real.b.dtype == float and cplx.b.dtype == complex
    assert len(svds) == 2 and len(channels._memo) == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_failures_are_never_kept(svds, bad):
    b = np.random.default_rng(6).normal(size=(15, 9))
    b[0, 0] = bad  # an infinite entry can keep LAPACK's SVD from ever returning
    for _ in range(3):
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            factor_design(b)
    with pytest.raises(ValidationError, match="2-D"):
        factor_design(np.ones(3))
    assert svds == [] and channels._memo == []


@pytest.mark.parametrize("name", ["two_qubit_mixed_unitary", "two_qubit_mixed_unitary_incomplete"])
@pytest.mark.parametrize("natural", [False, True], ids=["coherence", "natural"])
def test_a_design_whose_divide_and_conquer_svd_fails_is_still_factored(monkeypatch, name,
                                                                         natural):
    # numpy's gesdd is made to fail on a preset's design (up to 900 x 256,
    # complex), as it may fail to converge; the Jordan-Wielandt eigh factors it
    reg = preset(name).regression
    b, expected = (reg.b_natural, reg.design_natural) if natural else (reg.b, reg.design)
    calls = []

    def failing_svd(*args, **kwargs):
        calls.append(np.shape(args[0]))
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(channels, "_memo", [])
    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    design = factor_design(b)
    assert calls == [b.shape]
    assert design.rank == expected.rank
    assert np.abs(design.u * design.s @ design.vh - b).max() < 1e-12
    y = np.random.default_rng(3).normal(size=(len(b), 2))
    for config in (Stage1Config("mp_inverse"), Stage1Config("tikhonov", reg_scale=1e-3)):
        want = stage1_solve(expected, y, config)
        assert np.linalg.norm(stage1_solve(design, y, config) - want) <= 1e-8 * np.linalg.norm(want)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_the_generator_maps_are_the_exponentials_of_their_generator(d):
    # discretize_hamiltonian takes exp(r dt) through sampled_unitaries;
    # scipy's expm is the oracle
    rng = np.random.default_rng(40 + d)
    basis = build_basis(d)
    for _ in range(10):
        scale = rng.uniform(0.1, 5.0)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (g + g.conj().T) / 2.0
        h = scale * (h - np.trace(h) / d * np.eye(d))
        r, dt = hamiltonian_generator(h, basis), rng.uniform(0.1, 2.0)
        for k, q in enumerate(discretize_hamiltonian(r, dt, 5), start=1):
            assert q.dtype == float and np.abs(q - expm(r * dt * k)).max() <= 1e-11


_HERMITIAN_ENTRIES = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


@st.composite
def _hermitian_matrices(draw, d=None):
    d = d or draw(st.sampled_from([2, 3, 4]))
    g = draw(arrays(float, (2, d, d), elements=_HERMITIAN_ENTRIES))
    h = g[0] + 1j * g[1]
    return (h + h.conj().T) / 2.0


@settings(max_examples=60, deadline=None)
@given(_hermitian_matrices(), st.floats(-3.0, 3.0), st.integers(1, 5))
def test_sampled_unitaries_are_the_exponentials_of_their_hamiltonian(h, dt, n):
    evolutions = sampled_unitaries(h, dt, n)
    assert len(evolutions) == n
    tol = 1e-12 * max(1.0, np.linalg.norm(h) * abs(dt) * n)
    eye = np.eye(len(h))
    for k, u in enumerate(evolutions, start=1):
        assert np.abs(u - expm(-1j * h * k * dt)).max() <= tol
        assert np.abs(u @ u.conj().T - eye).max() <= 1e-13


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4]).flatmap(
    lambda d: st.tuples(_hermitian_matrices(d), _hermitian_matrices(d))), st.floats(0.0, 0.4))
def test_the_hamiltonian_maps_read_the_hermitian_part_of_what_they_accept(pair, size):
    """A traceless Hermitian ``h`` plus an anti-Hermitian ``i s`` small
    enough for ``_skewed`` gives the generator and the evolutions of its
    Hermitian part, with no second, stricter rule on the generator's
    imaginary part."""
    d = len(pair[0])
    h, s = (m - np.trace(m) / d * np.eye(d) for m in pair)
    norm = np.linalg.norm(s)
    assume(norm > 1e-3)
    m = h + 1j * s * (size * HERMITIAN_TOL * max(1.0, np.linalg.norm(h)) / (2.0 * norm))
    part = m / 2.0 + m.conj().T / 2.0
    basis = build_basis(d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        generator = hamiltonian_generator(m, basis)
        assert np.array_equal(generator, hamiltonian_generator(part, basis))
        assert np.abs(generator - hamiltonian_generator(h, basis)).max() <= 1e-8 * max(
            1.0, np.linalg.norm(h))
        for u, v in zip(sampled_unitaries(m, 0.7, 3), sampled_unitaries(part, 0.7, 3)):
            assert np.array_equal(u, v)


@pytest.mark.parametrize("h", [
    pytest.param(np.zeros((2, 3)), id="non-square"),
    pytest.param(np.zeros((2, 2, 2)), id="3-D"),
    pytest.param(np.array([[0.0, np.nan], [np.nan, 0.0]]), id="nan"),
    pytest.param(np.array([[np.inf, 0.0], [0.0, 1.0]]), id="inf"),
    pytest.param(np.array([[0.0, 1.0], [0.0, 0.0]]), id="non-Hermitian"),
    pytest.param(np.array([[1.0, 1e-6j], [1e-6j, -1.0]]), id="skew-Hermitian part"),
    pytest.param(np.array([[1e308, 1e308], [-1e308, 0.0]]), id="huge skew"),
    pytest.param([["0", "1"], ["1", "0"]], id="strings"),
    pytest.param([[0.0, 1.0], [1.0]], id="ragged"),
])
def test_sampled_unitaries_refuse_a_hamiltonian_that_is_not_a_finite_hermitian_matrix(h):
    with pytest.raises(ValidationError, match="Hamiltonian"):
        sampled_unitaries(h, 0.5, 2)
    with pytest.raises(ValidationError, match="Hamiltonian"):
        closed_system_channels([(h, 0.5)], 2)
    with pytest.raises(ValidationError, match="Hamiltonian"):
        hamiltonian_generator(h, build_basis(2))


def test_one_builder_makes_the_closed_and_the_mixed_unitary_families():
    """A closed system keeps its sampled unitaries bit for bit, the signs of
    zeros included; a mixture's Kraus matrices are ``sqrt(w_i) U_i``, part
    by part; a family of two dimensions is refused."""
    h = np.diag([0.5, -0.5])
    chans = closed_system_channels([(h, 0.5), (pauli("x") / 2, 1.0)], 3)
    assert [ch.label for ch in chans] == [f"H{i}_k{k}" for i in (1, 2) for k in (1, 2, 3)]
    unitaries = sampled_unitaries(h, 0.5, 3) + sampled_unitaries(pauli("x") / 2, 1.0, 3)
    for ch, u in zip(chans, unitaries):
        assert ch.kraus.shape == (1, 2, 2) and ch.kraus[0].tobytes() == u.tobytes()
    pair = (pauli("xz") / 2, pauli("yy") / 2)
    chans = _sampled_unitary_channels([(pair, 1.0)], (0.3, 0.7), 2, "pair")
    assert [ch.label for ch in chans] == ["pair1_k1", "pair1_k2"]
    for i, (w, g) in enumerate(zip((0.3, 0.7), pair)):
        for ch, u in zip(chans, sampled_unitaries(g, 1.0, 2)):
            assert np.array_equal(ch.kraus[i].real, np.sqrt(w) * u.real)
            assert np.array_equal(ch.kraus[i].imag, np.sqrt(w) * u.imag)
    with pytest.raises(ValidationError, match="^all channels in an ensemble must share the dim"):
        closed_system_channels([(h, 0.5), (np.zeros((3, 3)), 0.5)], 2)


def test_a_hamiltonian_too_large_for_its_maps_is_refused_without_a_warning():
    """``h = diag(1e308, -1e308)`` overflows the generator and gives phases
    that doubles do not resolve: both maps refuse it, under warnings as
    errors.  A large ``h`` that fits is scaled by a power of 2, so its
    generator is exactly the scaled generator."""
    huge = np.diag([1e308, -1e308])
    big = 2.0 ** 900
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="too large"):
            hamiltonian_generator(huge, build_basis(2))
        with pytest.raises(ValidationError, match="phase"):
            sampled_unitaries(huge, 0.5, 2)
        with pytest.raises(ValidationError, match="phase"):
            closed_system_channels([(huge, 0.5)], 2)
        for d in (2, 3):
            rng = np.random.default_rng(d)
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = (g + g.conj().T) / 2.0
            h -= np.trace(h) / d * np.eye(d)
            assert np.array_equal(hamiltonian_generator(big * h, build_basis(d)),
                                  big * hamiltonian_generator(h, build_basis(d)))
        slow = sampled_unitaries(big * pauli("z") / 2, 1.0 / big, 3)
    for k, u in enumerate(slow, start=1):
        assert np.abs(u - expm(-1j * pauli("z") / 2 * k)).max() <= 1e-13


@pytest.mark.parametrize("members, index", [((3,), 0), ((None,), 0),
                                            ((KrausChannel(2, np.eye(2)[None]), "x"), 1)])
def test_ensemble_refuses_a_member_that_is_not_a_channel(members, index):
    with pytest.raises(ValidationError, match=f"^ensemble member {index} must be a KrausChannel"):
        ProcessEnsemble(members)


_R = hamiltonian_generator(pauli("z") / 2, build_basis(2))
_H1 = pauli("x") / 2


@pytest.mark.parametrize("call", [
    pytest.param(lambda: discretize_hamiltonian(np.full((3, 3), np.nan), 0.1, 2), id="nan-r"),
    pytest.param(lambda: discretize_hamiltonian(_R + 1j * np.eye(3), 0.1, 2), id="complex-r"),
    pytest.param(lambda: discretize_hamiltonian(np.zeros((3, 2)), 0.1, 2), id="3x2-r"),
    pytest.param(lambda: discretize_hamiltonian(np.zeros((2, 2, 2)), 0.1, 2), id="3-D-r"),
    pytest.param(lambda: discretize_hamiltonian(_R, np.nan, 2), id="nan-dt"),
    pytest.param(lambda: discretize_hamiltonian(_R, np.inf, 2), id="inf-dt"),
    pytest.param(lambda: discretize_hamiltonian(_R, 0.1, 2.5), id="fractional-n"),
    pytest.param(lambda: discretize_hamiltonian(_R, 0.1, "2"), id="string-n"),
    pytest.param(lambda: hamiltonian_generator(np.zeros((2, 3)), build_basis(2)),
                 id="2x3-hamiltonian"),
    pytest.param(lambda: sampled_unitaries(_H1, 1.0, 2.5), id="fractional-n-unitaries"),
    pytest.param(lambda: sampled_unitaries(_H1, 1.0, 0), id="zero-n-unitaries"),
    pytest.param(lambda: sampled_unitaries(_H1, np.nan, 2), id="nan-dt-unitaries"),
    pytest.param(lambda: sampled_unitaries(_H1, "1", 2), id="string-dt-unitaries"),
    pytest.param(lambda: closed_system_channels([(_H1, 1.0)], 2.5), id="fractional-n-channels"),
    pytest.param(lambda: discretize_hamiltonian([["0", "1"], ["-1", "0"]], 0.1, 2),
                 id="string-r"),
    pytest.param(lambda: make_named_channel("unitary", u=np.full((2, 2), 1e300)),
                 id="huge-u"),
    pytest.param(lambda: make_named_channel("unitary", u=np.ones(2)), id="1-D-u"),
    pytest.param(lambda: pauli_sandwich_processes(pauli("x"), pauli("xz"), 0.1),
                 id="sandwich-mismatched-dimensions"),
    pytest.param(lambda: KrausChannel(2, [[["1", "0"], ["0", "1"]]]), id="string-kraus"),
    pytest.param(lambda: numerical_rank([[1.0, 2.0], [3.0]]), id="ragged-rank"),
])
def test_generator_maps_refuse_input_that_is_not_finite_and_well_shaped(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("r", [np.eye(3), np.triu(np.ones((3, 3)), 1), _R + 1e-6 * np.eye(3),
                               np.ones((1, 1))],
                         ids=["identity", "upper-triangle", "nearly-antisymmetric", "1x1"])
def test_a_generator_that_is_not_antisymmetric_is_refused(r):
    with pytest.raises(ValidationError, match="^generator must be antisymmetric$"):
        discretize_hamiltonian(r, 0.5, 3)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: closed_system_channels(None, 2),
                 "^Hamiltonian records must be a tuple or a list, got NoneType$",
                 id="none-records"),
    pytest.param(lambda: closed_system_channels([(_H1, 1.0), (pauli("x"),)], 2),
                 r"^Hamiltonian record H2 must be an \(h, dt\) pair, got a tuple of length 1$",
                 id="short-record"),
    pytest.param(lambda: closed_system_channels([_H1], 2),
                 r"^Hamiltonian record H1 must be an \(h, dt\) pair, got ndarray$",
                 id="bare-matrix-record"),
])
def test_probe_families_refuse_hamiltonian_lists_they_cannot_read(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def test_the_memo_keeps_the_most_recently_used_designs(svds):
    size = channels._MEMO_SIZE
    mats = [np.full((3, 2), float(k + 1)) for k in range(size + 2)]
    designs = [factor_design(m) for m in mats[:size]]
    assert factor_design(mats[0]) is designs[0]  # a hit makes it the most recent
    factor_design(mats[size])  # evicts mats[1], the least recently used
    assert len(channels._memo) == size and len(svds) == size + 1
    assert factor_design(mats[0]) is designs[0] and len(svds) == size + 1
    assert factor_design(mats[1]) is not designs[1] and len(svds) == size + 2
    factor_design(mats[size + 1])
    assert len(channels._memo) == size


def test_method_comparison_factors_each_subset_design_once(svds):
    sc = preset("one_qubit_closed_complete")
    n = sc.basis.n_traceless ** 2
    configs = [("full", sc.stage1, None),
               ("even", Stage1Config("mp_inverse"), list(range(0, len(sc.ensemble), 2))),
               ("head", Stage1Config("mp_inverse"), list(range(10)))]
    for seed in (1, 2):
        run_method_comparison(sc, [1000], 2, configs, seed=seed)
    assert svds.count((8, n)) == 1 and svds.count((10, n)) == 1


def test_a_factored_design_passes_through_unchanged(svds):
    design = factor_design(np.random.default_rng(5).normal(size=(5, 3)))
    assert factor_design(design) is design and len(svds) == 1
    sc = preset("one_qubit_closed_complete")
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    # a record's design holds the record's own matrix and stays out of the memo
    assert factor_design(reg.design) is reg.design and reg.design.b is reg.b
    assert len(channels._memo) == 1 and channels._memo[0] is design


_BIT_FLIP = make_named_channel("bit_flip", p=0.2)
_DATASET_RECORD = {"y_hat": [[0.4, 0.5], [0.3, 0.6]], "x_a0_hat": [0.7, 0.7],
                   "c_j0_hat": [0.7, 0.7], "x01_bar": 0.1, "n0": 10, "tp_flags": [True, True]}


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: make_named_channel("bit_flip"), "needs the parameter 'p'",
                 id="bit-flip-without-p"),
    pytest.param(lambda: make_named_channel("bit_flip", p="0.5"),
                 "flip probability must be a real number", id="bit-flip-string-p"),
    pytest.param(lambda: make_named_channel("phase_flip", p="0.5"),
                 "flip probability must be a real number", id="phase-flip-string-p"),
    pytest.param(lambda: make_named_channel("unitary"), "needs the parameter 'u'",
                 id="unitary-without-u"),
    pytest.param(lambda: make_named_channel("scaled", channel=_BIT_FLIP),
                 "needs the parameter 'alpha'", id="scaled-without-alpha"),
    pytest.param(lambda: make_named_channel("scaled", alpha="0.5", channel=_BIT_FLIP),
                 "scale must be a real number", id="scaled-string-alpha"),
    pytest.param(lambda: make_named_channel("random_cp", d=2, rank=2.5, seed=0),
                 "rank must be a whole number", id="random-cp-fractional-rank"),
    pytest.param(lambda: make_named_channel("random_cp", d=0, rank=2, seed=0),
                 "dimension must be >= 1", id="random-cp-zero-d"),
    pytest.param(lambda: make_named_channel("random_cp", d=2, rank=2),
                 "needs the parameter 'seed'", id="random-cp-without-seed"),
    pytest.param(lambda: amplitude_damping("0.1"), "damping rate must be a real number",
                 id="damping-string"),
    pytest.param(lambda: pauli_sandwich_processes(pauli("x"), pauli("z"), np.inf),
                 "coupling must be finite", id="sandwich-inf-g"),
    pytest.param(lambda: pauli_sandwich_processes(pauli("x"), pauli("z"), "1"),
                 "coupling must be a real number", id="sandwich-string-g"),
    pytest.param(lambda: min_hamiltonian_count("3"), "dimension must be a whole number",
                 id="min-count-string"),
    pytest.param(lambda: min_hamiltonian_count(2.5), "dimension must be a whole number",
                 id="min-count-fraction"),
    pytest.param(lambda: dataset_from_json({**_DATASET_RECORD, "x01_bar": "0.5"}),
                 "x01_bar must be a real number", id="dataset-string-x01"),
    pytest.param(lambda: dataset_from_json({**_DATASET_RECORD, "x01_bar": True}),
                 "x01_bar must be a real number", id="dataset-bool-x01"),
    pytest.param(lambda: pauli("q"), "a Pauli string is a non-empty string", id="pauli-q"),
    pytest.param(lambda: pauli(""), "a Pauli string is a non-empty string", id="pauli-empty"),
    pytest.param(lambda: pauli(3), "a Pauli string is a non-empty string", id="pauli-int"),
    pytest.param(lambda: make_named_channel("scaled", alpha=0.5, channel=3),
                 "a scaled channel needs a KrausChannel, got int", id="scaled-int-channel"),
    pytest.param(lambda: make_named_channel("random_cp", d=2, rank=2, seed="x"),
                 "seed must be a whole number", id="random-cp-string-seed"),
    pytest.param(lambda: make_named_channel("random_cp", d=2, rank=2, seed=-1),
                 "seed must be >= 0", id="random-cp-negative-seed"),
    pytest.param(lambda: DensityMatrix("2", np.eye(2) / 2),
                 "state dimension must be a whole number", id="state-string-d"),
    pytest.param(lambda: DensityMatrix(2.5, np.eye(2) / 2),
                 "state dimension must be a whole number", id="state-fractional-d"),
    pytest.param(lambda: Povm("2", np.eye(2)[None]),
                 "detector dimension must be a whole number", id="povm-string-d"),
    pytest.param(lambda: KrausChannel(2.5, np.eye(2)[None]),
                 "channel dimension must be a whole number", id="kraus-fractional-d"),
    pytest.param(lambda: povm_membership("0.5", np.zeros(3), build_basis(2)),
                 "c0 must be a real number", id="membership-string-c0"),
])
def test_probe_constructors_and_loaded_scalars_refuse_bad_scalars_by_name(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def test_whole_floats_are_read_as_dimensions_and_ranks():
    whole = make_named_channel("random_cp", d=2.0, rank=np.int64(3), seed=4)
    exact = make_named_channel("random_cp", d=2, rank=3, seed=4)
    assert whole.d == 2 and type(whole.d) is int
    np.testing.assert_array_equal(whole.kraus, exact.kraus)
    np.testing.assert_array_equal(build_basis(2.0).omegas, build_basis(2).omegas)
