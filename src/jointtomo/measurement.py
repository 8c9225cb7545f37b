"""States, detectors, Born statistics, and the finite-shot data protocol.

A full dataset for one experiment holds, per process a and outcome j, the
empirical frequencies ``y_hat[a, j]`` of applying the unknown detector to the
evolved unknown state, plus three auxiliary calibrations:

* ``x_a0_hat[a]``: trace of the output state over sqrt(d), measured with the
  identity operator on non-trace-preserving processes and fixed to exactly
  1/sqrt(d) otherwise,
* ``c_j0_hat[j]``: detector trace components, measured on the maximally mixed
  state,
* ``x01_bar``: one coherence coordinate of the input state, measured directly
  through the matching basis observable to pin the scale of the bilinear
  reconstruction.

Every configuration consumes ``n0`` state copies; the grand total is
``(2L+2) n0`` when any process loses trace and ``(L+2) n0`` otherwise.

Each check runs where its input is made, once.  The probabilities the
protocol samples (the outcome rows of every process, the trace components
and the scale observable's outcomes) are fixed by the ensemble and the truth:
``ideal_statistics`` checks them, pads them with the loss outcome and
normalizes them into read-only tables, and each simulated trial only draws
from those tables, so its dataset is valid as drawn and is not checked
again.  The statistics are computed once per process for each (ensemble,
truth, anchor, basis): the last few records are kept on the ensemble, and
every ``simulate_dataset`` call reads its record there, while the truth's
arrays hold the bytes they held when it was made.  Shot counts must be
whole numbers >= 1, and a sampled draw takes at most 2**63 - 1 of them.

Datasets, states and detectors are each checked by one stacked pass, of
which the constructors are the case T = 1, and a failing stack raises the
message the constructor raises for its first failing member.  T datasets of
one protocol form one record, ``DatasetStack`` (``y_hat`` ``(T, L, M)``,
``x_a0_hat`` ``(T, L)``, ``c_j0_hat`` ``(T, M)``, ``x01_bar`` ``(T,)``),
checked once; a Monte-Carlo loop draws each trial from its own stream and
gathers a block of trials into one record (``DatasetStack.of``), or draws
the block as one record (``simulate_datasets``, whose member ``t`` is
``simulate_dataset`` on seed ``t``, bit for bit).  On a large ensemble that
record's outcome draws run on two threads.  A process subset is an index
on the process axis.  States and detectors are checked
over ``(T, d, d)`` and ``(T, M, d, d)`` stacks (``DensityMatrix.checked``,
``Povm.checked``); a non-finite entry fails before any other test reads it.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np

from .basis import OperatorBasis, _skewed, build_basis
from .channels import ProcessEnsemble
from .errors import ValidationError, _array, _bounded, _new, _record, _rng, _whole

# A state or detector element is refused with an eigenvalue below -PSD_TOL,
# and a state with a trace further than PSD_TOL from 1.
PSD_TOL = 1e-10
# A detector is complete when ||sum_j P_j - I|| <= COMPLETENESS_TOL d (Frobenius
# norm); the corrected detectors of ``estimator`` are held to the same test.
COMPLETENESS_TOL = 1e-10
# A probability or frequency, or a row's sum of them, may exceed 1 by this much.
UNIT_MASS_TOL = 1e-9
# A probability may be negative by this much (roundoff) and is read as zero.
NEGATIVE_PROB_TOL = 1e-12
# The most shots one sampled draw takes: numpy's samplers read n as a C long.
_MAX_DRAWN_SHOTS = 2 ** 63 - 1
# Outcome-table rows (processes) from which the outcome draws of a stack of
# datasets run on two threads (``_outcome_draws``).  Each draw is numpy's
# multinomial, which runs with the GIL released; below this size a draw is
# too short for the overlap to pay for the thread and the GIL handoffs.  On
# a 2-vCPU machine a 50-trial stack drawn on two threads beat one
# ``simulate_dataset`` call per trial in the median from 256 rows on, and
# lost at 128 in one of two runs (the README's crossover table).
THREADED_DRAW_ROWS = 256


def _hermitian_psd(x: np.ndarray) -> tuple:
    """The tests states and detector elements share, over ``(..., d, d)``:
    the Hermitian parts, and the finite, skewed and negative-eigenvalue
    flags.  A non-finite matrix is read as zeros, so it warns nowhere."""
    finite = np.isfinite(x).all(axis=(-2, -1))
    if not finite.all():
        x = np.where(finite[..., None, None], x, 0.0)
    skewed = _skewed(x)
    x = (x + x.conj().swapaxes(-1, -2)) / 2.0
    negative = np.linalg.eigvalsh(x)[..., 0] < -PSD_TOL
    return x, finite, skewed, negative


def _checked_states(d: int, rho: np.ndarray) -> np.ndarray:
    """The state check on a stack ``(T, d, d)``: the Hermitian parts of the T
    matrices, refused with the message ``DensityMatrix`` raises for the first
    member that fails.  A member with a non-finite entry fails first."""
    if rho.ndim != 3 or rho.shape[1:] != (d, d):
        raise ValidationError(f"state must be {d}x{d}, got {rho.shape[1:]}")
    rho, finite, skewed, negative = _hermitian_psd(rho)
    tr = np.trace(rho, axis1=1, axis2=2).real
    off = np.abs(tr - 1.0) > PSD_TOL
    bad = ~finite | skewed | negative | off
    if bad.any():
        t = bad.argmax()
        if not finite[t]:
            raise ValidationError("state has a non-finite entry")
        if skewed[t]:
            raise ValidationError("state is not Hermitian")
        if negative[t]:
            raise ValidationError("state has a negative eigenvalue beyond tolerance")
        raise ValidationError(f"state trace is {tr[t]:.12g}, not 1")
    return rho


def _checked_povms(d: int, elements: np.ndarray) -> np.ndarray:
    """The detector check on a stack ``(T, M, d, d)``: the Hermitian parts of
    the T detectors' elements, refused with the message ``Povm`` raises for
    the first member that fails.  An element with a non-finite entry fails
    first."""
    if elements.ndim != 4 or elements.shape[2:] != (d, d):
        raise ValidationError(f"elements must have shape (M, {d}, {d}), got {elements.shape[1:]}")
    elements, finite, skewed, negative = _hermitian_psd(elements)
    incomplete = (np.linalg.norm(elements.sum(axis=1) - np.eye(d), axis=(-2, -1))
                  > COMPLETENESS_TOL * d)
    bad = (~finite).any(axis=1) | skewed.any(axis=1) | negative.any(axis=1) | incomplete
    if bad.any():
        t = bad.argmax()
        if not finite[t].all():
            raise ValidationError(f"element {finite[t].argmin()} has a non-finite entry")
        if skewed[t].any():
            raise ValidationError(f"element {skewed[t].argmax()} is not Hermitian")
        if negative[t].any():
            raise ValidationError(
                f"element {negative[t].argmax()} has a negative eigenvalue beyond tolerance")
        raise ValidationError("elements do not sum to the identity")
    return elements


@dataclass(frozen=True)
class DensityMatrix:
    """A valid quantum state: Hermitian, PSD, unit trace (to tolerance)."""

    d: int
    rho: np.ndarray

    def __post_init__(self):
        d = _whole(self.d, "state dimension", 1)
        rho = _array(self.rho, "state", dtype=complex, nonfinite=None)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "rho", _checked_states(d, rho[None])[0])

    @classmethod
    def checked(cls, d: int, rho) -> np.ndarray:
        """The Hermitian parts of a stack ``(T, d, d)`` of states, checked by
        one stacked pass that applies the constructor's tests and tolerances
        to every member and raises the constructor's message for the first
        that fails."""
        d = _whole(d, "state dimension", 1)
        rho = _array(rho, "a stack of states", 3, complex, nonfinite=None)
        return _checked_states(d, rho)


@dataclass(frozen=True)
class Povm:
    """A detector: Hermitian PSD elements summing to the identity."""

    d: int
    elements: np.ndarray

    def __post_init__(self):
        d = _whole(self.d, "detector dimension", 1)
        elements = _array(self.elements, "elements", dtype=complex, nonfinite=None)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "elements", _checked_povms(d, elements[None])[0])

    @classmethod
    def checked(cls, d: int, elements) -> np.ndarray:
        """The Hermitian parts of a stack ``(T, M, d, d)`` of detectors'
        elements, checked by one stacked pass that applies the constructor's
        tests and tolerances to every member and raises the constructor's
        message for the first that fails."""
        d = _whole(d, "detector dimension", 1)
        elements = _array(elements, "a stack of detectors", 4, complex, nonfinite=None)
        return _checked_povms(d, elements)

    @property
    def m(self) -> int:
        return len(self.elements)


def born_probabilities(state, povm: Povm) -> np.ndarray:
    """Outcome probabilities ``Tr(P_j rho)``.

    Accepts a DensityMatrix or a raw (possibly sub-normalized) matrix, so it
    also serves for outputs of trace-decreasing processes.  A stack of raw
    matrices, shape ``(L, d, d)``, gives one row of probabilities per matrix.
    """
    _record(povm, Povm, "povm")
    rho = (state.rho if isinstance(state, DensityMatrix)
           else _array(state, "state", (2, 3), complex))
    if rho.shape[-2:] != (povm.d, povm.d):
        raise ValidationError(f"dimension mismatch: state {rho.shape}, detector d={povm.d}")
    p = np.real(np.einsum("jik,...ki->...j", povm.elements, rho))
    if np.min(p) < -NEGATIVE_PROB_TOL:
        raise ValidationError(f"negative Born probability {np.min(p):.3e}")
    return np.clip(p, 0.0, None)


def _process_indices(indices, n_processes: int) -> np.ndarray:
    """``indices`` as an int array, refused unless it is a non-empty sequence
    of distinct whole numbers in ``0..n_processes - 1``."""
    idx = _array(indices, "process indices", 1)
    if idx.size == 0:
        raise ValidationError("process indices must be a non-empty sequence")
    if idx.dtype.kind not in "iuf" or np.any(idx != np.round(idx)):
        raise ValidationError(f"process indices must be whole numbers, got {idx.tolist()}")
    if idx.min() < 0 or idx.max() >= n_processes:
        raise ValidationError(
            f"process indices must lie in 0..{n_processes - 1}, got {idx.tolist()}")
    idx = idx.astype(int)
    if len(np.unique(idx)) != len(idx):
        raise ValidationError(f"process indices must not repeat, got {idx.tolist()}")
    return idx


def sampling_table(p) -> np.ndarray:
    """The probabilities one multinomial draw samples from, checked once.

    ``p`` must be non-empty, finite, non-negative (to ``NEGATIVE_PROB_TOL``)
    and sum to at most 1 (to ``UNIT_MASS_TOL``) along its last axis.  The
    mass missing from ``sum(p) < 1`` becomes a trailing loss outcome, and
    each row is normalized, so the table can be passed to
    ``Generator.multinomial`` as it is, draw after draw.
    """
    p = _array(p, "probabilities", dtype=float)
    if p.size == 0 or p.ndim == 0:
        raise ValidationError(f"need at least one outcome to sample, got shape {p.shape}")
    if p.min() < -NEGATIVE_PROB_TOL:
        raise ValidationError(f"negative probability {p.min():.3e}")
    if p.max() > 1.0 + UNIT_MASS_TOL:  # before the sum, which a huge entry would overflow
        raise ValidationError(f"probability {p.max():.12g} > 1")
    p = np.clip(p, 0.0, None)
    total = p.sum(axis=-1, keepdims=True)
    if (total > 1.0 + UNIT_MASS_TOL).any():
        raise ValidationError(f"probabilities sum to {total.max():.12g} > 1")
    full = np.concatenate([p, np.maximum(1.0 - total, 0.0)], axis=-1)
    return full / full.sum(axis=-1, keepdims=True)


def _draw(table: np.ndarray, n0: int, rng) -> np.ndarray:
    """Frequencies of ``n0`` multinomial shots from a ``sampling_table``,
    with the loss outcome dropped; one independent draw per row.  ``n0`` has
    passed ``_drawable``."""
    return rng.multinomial(n0, table)[..., :-1] / float(n0)


def _drawable(n0: int) -> int:
    """``n0``, refused above ``_MAX_DRAWN_SHOTS``, the most shots a sampled
    draw takes."""
    if n0 > _MAX_DRAWN_SHOTS:
        raise ValidationError(
            f"a sampled draw takes at most {_MAX_DRAWN_SHOTS} shots, got n0={n0}")
    return n0


def _outcome_draws(table: np.ndarray, n0: int, rngs: list) -> np.ndarray:
    """The frequencies of ``n0`` shots drawn from ``table`` (``_draw``) by
    each generator of ``rngs``, stacked in their order: ``(T, rows,
    outcomes - 1)``.

    A stack of two or more draws from a table of at least
    ``THREADED_DRAW_ROWS`` rows is drawn by the calling thread and one
    worker thread.  Both take the next generator from one shared iterator
    and store its counts at the generator's own place, so the result is the
    serial one bit for bit.  They do nothing else while the worker runs,
    and numpy's multinomial releases the GIL, so the two draws overlap.  The
    worker is joined before this returns or raises.  A failed draw stops
    both threads from taking another generator, and the error of the lowest
    failing one is raised, whichever thread drew it.
    """
    freqs = np.empty((len(rngs), len(table), table.shape[-1] - 1))
    todo, failed, lock = iter(range(len(rngs))), {}, threading.Lock()

    def work(catch):
        while not failed:
            with lock:
                t = next(todo, None)
            if t is None:
                return
            try:
                freqs[t] = rngs[t].multinomial(n0, table)[..., :-1]
            except catch as exc:
                failed[t] = exc

    if len(rngs) < 2 or len(table) < THREADED_DRAW_ROWS:
        work(Exception)
    else:
        # The worker keeps every error for the caller to raise; the caller's
        # own draws let an interrupt through at once.
        worker = threading.Thread(target=work, args=(BaseException,), name="jointtomo-draw")
        worker.start()
        try:
            work(Exception)
        finally:
            worker.join()
    if failed:
        raise failed[min(failed)]
    freqs /= float(n0)  # the counts became floats as _draw's division makes them
    return freqs


def sample_frequencies(p: np.ndarray, n0: int, rng) -> np.ndarray:
    """One multinomial draw of ``n0`` shots over the given outcomes.

    Probability mass missing from ``sum(p) < 1`` goes to an implicit loss
    outcome that is dropped from the returned frequency vector.  A matrix of
    probabilities is one independent draw per row, taken from the stream in
    row order, exactly as one call per row would take them.  This is
    ``sampling_table`` then one draw; a caller that draws from the same
    probabilities many times keeps the table instead (``ideal_statistics``).
    """
    n0 = _drawable(_whole(n0, "shot count", 1))
    return _draw(sampling_table(p), n0, _rng(rng))


def _checked_datasets(y_hat, x_a0_hat, c_j0_hat, x01_bar, n0, tp_flags,
                      anchor_index) -> tuple:
    """The dataset check on a stack of T datasets: ``y_hat`` ``(T, L, M)``,
    ``x_a0_hat`` ``(T, L)``, ``c_j0_hat`` ``(T, M)`` and ``x01_bar`` ``(T,)``,
    with the copy count, the processes' trace flags and the anchor index
    they share.  Returns the fields as arrays and ints, refused with the
    message ``MeasurementDataset`` raises.  Frequencies must be finite and
    non-negative, no row of ``y_hat`` may sum above 1, and ``x_a0_hat``,
    ``c_j0_hat`` and ``x01_bar`` are held to the magnitude rule
    (``errors._bounded``), which keeps the estimators' sums finite."""
    y, x_a0, c_j0, x01 = (_array(v, name, dtype=float) for v, name in (
        (y_hat, "y_hat"), (x_a0_hat, "x_a0_hat"), (c_j0_hat, "c_j0_hat"), (x01_bar, "x01_bar")))
    tp_flags = _array(tp_flags, "tp_flags").astype(bool, copy=False)
    if y.ndim != 3:
        raise ValidationError(f"y_hat must be an L x M matrix, got shape {y.shape[1:]}")
    for name, values in (("y_hat", y), ("x_a0_hat", x_a0), ("c_j0_hat", c_j0)):
        if values.size and values.min() < 0.0:
            raise ValidationError(f"{name} has a negative frequency {values.min():.3e}")
    # before the sum, which a huge entry would overflow
    if y.size and y.max() > 1.0 + UNIT_MASS_TOL:
        raise ValidationError(f"y_hat has a frequency {y.max():.12g} above 1")
    if (y.sum(axis=-1) > 1.0 + UNIT_MASS_TOL).any():
        raise ValidationError("a frequency row sums above 1")
    for name, values in (("x_a0_hat", x_a0), ("c_j0_hat", c_j0), ("x01_bar", x01)):
        _bounded(values, name)
    t, l, m = y.shape
    if x_a0.shape[:1] != (t,) or c_j0.shape[:1] != (t,) or x01.shape != (t,):
        raise ValidationError(f"every field of a stack of {t} datasets needs {t} entries")
    if x_a0.shape[1:] != (l,) or tp_flags.shape != (l,):
        raise ValidationError(
            f"per-process fields must have length L: need shape ({l},), got "
            f"x_a0_hat {x_a0.shape[1:]} and tp_flags {tp_flags.shape}")
    if c_j0.shape[1:] != (m,):
        raise ValidationError(f"c_j0_hat must have length M: need shape ({m},), "
                              f"got {c_j0.shape[1:]}")
    n0 = _whole(n0, "shot count", 1)
    anchor = _whole(anchor_index, "anchor index", 1)
    return y, x_a0, c_j0, x01, n0, tp_flags, anchor


class _Datasets:
    """What a dataset and a stack of datasets derive from their fields.

    The process and outcome axes are the last two of ``y_hat``, so one
    dataset is read like a stack of one.
    """

    @property
    def n_processes(self) -> int:
        return self.y_hat.shape[-2]

    @property
    def n_outcomes(self) -> int:
        return self.y_hat.shape[-1]

    @property
    def total_copies(self) -> int:
        l = self.n_processes
        factor = (2 * l + 2) if not self.tp_flags.all() else (l + 2)
        return int(factor * self.n0)

    def subset(self, indices):
        """Restrict to a subset of processes (used for paired comparisons):
        an index on the process axis, checked by ``_process_indices``.  Rows
        of checked data are not checked again."""
        idx = _process_indices(indices, self.n_processes)
        return _new(type(self), y_hat=self.y_hat[..., idx, :], x_a0_hat=self.x_a0_hat[..., idx],
                    c_j0_hat=self.c_j0_hat, x01_bar=self.x01_bar, n0=self.n0,
                    tp_flags=self.tp_flags[idx], anchor_index=self.anchor_index)


@dataclass(frozen=True)
class MeasurementDataset(_Datasets):
    """Frequencies and calibration estimates from one experiment run.

    Its check is the stack check (``DatasetStack``) on a stack of one.
    """

    y_hat: np.ndarray
    x_a0_hat: np.ndarray
    c_j0_hat: np.ndarray
    x01_bar: float
    n0: int
    tp_flags: np.ndarray
    anchor_index: int = 1

    def __post_init__(self):
        y, x_a0, c_j0, x01, n0, tp_flags, anchor = _checked_datasets(
            [self.y_hat], [self.x_a0_hat], [self.c_j0_hat], [self.x01_bar], self.n0,
            self.tp_flags, self.anchor_index)
        for name, value in (("y_hat", y[0]), ("x_a0_hat", x_a0[0]), ("c_j0_hat", c_j0[0]),
                            ("x01_bar", float(x01[0])), ("tp_flags", tp_flags), ("n0", n0),
                            ("anchor_index", anchor)):
            object.__setattr__(self, name, value)

    def as_stack(self) -> "DatasetStack":
        """This dataset as a stack of one, made of views of its arrays and
        not checked again."""
        return _new(DatasetStack, y_hat=self.y_hat[None], x_a0_hat=self.x_a0_hat[None],
                    c_j0_hat=self.c_j0_hat[None], x01_bar=np.array([float(self.x01_bar)]),
                    n0=self.n0, tp_flags=self.tp_flags, anchor_index=self.anchor_index)


@dataclass(frozen=True)
class DatasetStack(_Datasets):
    """T datasets of one protocol as one record: ``y_hat`` ``(T, L, M)``,
    ``x_a0_hat`` ``(T, L)``, ``c_j0_hat`` ``(T, M)`` and ``x01_bar`` ``(T,)``,
    with the copy count, trace flags and anchor index they share.

    It is checked by one stacked pass that applies ``MeasurementDataset``'s
    tests, tolerances and messages to every member.
    """

    y_hat: np.ndarray
    x_a0_hat: np.ndarray
    c_j0_hat: np.ndarray
    x01_bar: np.ndarray
    n0: int
    tp_flags: np.ndarray
    anchor_index: int = 1

    def __post_init__(self):
        checked = _checked_datasets(self.y_hat, self.x_a0_hat, self.c_j0_hat, self.x01_bar,
                                    self.n0, self.tp_flags, self.anchor_index)
        for name, value in zip(("y_hat", "x_a0_hat", "c_j0_hat", "x01_bar", "n0", "tp_flags",
                                "anchor_index"), checked):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.y_hat)

    @classmethod
    def of(cls, datasets) -> "DatasetStack":
        """The stack of MeasurementDatasets that share their shape, copy
        count, trace flags and anchor index, checked once; a list that mixes
        them is refused, as is a member of another type."""
        datasets = [_record(ds, MeasurementDataset, f"stack member {i}")
                    for i, ds in enumerate(datasets)]
        if not datasets:
            raise ValidationError("a stack needs at least one dataset")
        first = datasets[0]
        for what, same in (
                ("frequency shape", lambda ds: ds.y_hat.shape == first.y_hat.shape),
                ("copy count", lambda ds: ds.n0 == first.n0),
                ("anchor index", lambda ds: ds.anchor_index == first.anchor_index),
                ("trace flags", lambda ds: (ds.tp_flags is first.tp_flags
                                            or np.array_equal(ds.tp_flags, first.tp_flags)))):
            if not all(map(same, datasets)):
                raise ValidationError(f"the datasets of one stack must share their {what}")
        return cls(
            y_hat=np.stack([ds.y_hat for ds in datasets]),
            x_a0_hat=np.stack([ds.x_a0_hat for ds in datasets]),
            c_j0_hat=np.stack([ds.c_j0_hat for ds in datasets]),
            x01_bar=np.array([ds.x01_bar for ds in datasets], dtype=float),
            n0=first.n0, tp_flags=first.tp_flags, anchor_index=first.anchor_index,
        )


@dataclass(frozen=True)
class IdealStatistics:
    """The noiseless statistics of one (ensemble, truth, scale observable).

    They depend on neither the shot count nor the random stream, so they are
    computed once (``ideal_statistics``) and read by every
    ``simulate_dataset`` call.  ``anchor_index`` is the scale observable's
    index, ``probabilities`` the Born probabilities after each process,
    ``survival`` the output traces (read on lossy processes only),
    ``trace_probabilities`` the detector's outcomes on the maximally mixed
    state, and ``scale_eigenvalues``/``scale_probabilities`` the spectrum of
    the scale observable and its outcome probabilities on the truth.

    The three probability sets the protocol samples are also kept as the
    tables its multinomial draws read (``sampling_table``: checked, padded
    with the loss outcome and normalized here, once): ``outcome_table`` has
    one row per process, ``trace_table`` and ``scale_table`` one row each.
    So a trial only draws.  Every array is read-only, since every trial
    shares it.
    """

    anchor_index: int
    probabilities: np.ndarray
    survival: np.ndarray
    trace_probabilities: np.ndarray
    scale_eigenvalues: np.ndarray
    scale_probabilities: np.ndarray
    outcome_table: np.ndarray
    trace_table: np.ndarray
    scale_table: np.ndarray


# How many truths ``ideal_statistics`` keeps the statistics of per ensemble.
_MEMO_SIZE = 4


def _memo(ens: ProcessEnsemble) -> list:
    """The records ``ideal_statistics`` keeps for ``ens``, most recently used
    first, each as ``(record, objects, key)``: the state, detector and basis
    it was made for, held so that their ids in ``key`` stay theirs, and
    ``key``, those ids, the anchor and the bytes of the truth's arrays.  The
    list is kept on the ensemble itself, so it lives as long as the ensemble."""
    return ens.__dict__.setdefault("_ideal_statistics", [])


def ideal_statistics(
    ens: ProcessEnsemble,
    truth_state: DensityMatrix,
    truth_povm: Povm,
    scale_observable: int = 1,
    basis: OperatorBasis = None,
) -> IdealStatistics:
    """Every probability the data-collection protocol samples from, with
    the checked tables its draws read, computed once per process for each
    (ensemble, truth, anchor, basis).

    ``scale_observable`` selects which basis operator Omega_k is measured on
    the input state to pin the reconstruction scale: a whole number k in
    ``1..d^2-1``.  ``basis`` None means ``build_basis(d)``.

    The last ``_MEMO_SIZE`` records made here for each ensemble are kept, on
    that ensemble, so they are freed with it.  A call with the same
    ensemble, state, detector and basis objects and the same anchor returns
    its record as it is while the state's ``rho`` and the detector's
    ``elements`` hold the bytes they held when it was made (for the finite
    arrays of a checked truth, equal bytes are equal values).  Otherwise the
    statistics are computed anew, and the record replaces the least recently
    used one: after writing into either array in place, or for another
    anchor, basis object or truth object.  Refused inputs are never kept.
    """
    _record(ens, ProcessEnsemble, "ensemble")
    _record(truth_state, DensityMatrix, "truth state")
    _record(truth_povm, Povm, "truth detector")
    d = ens.d
    if d != truth_state.d or d != truth_povm.d:
        raise ValidationError("ensemble, state and detector dimensions must agree")
    if basis is None:
        basis = build_basis(d)
    elif _record(basis, OperatorBasis, "basis").d != d:
        raise ValidationError(f"the basis is for d={basis.d}, the ensemble has d={d}")
    anchor = _whole(scale_observable, "scale observable index")
    memo = _memo(ens)
    key = (id(truth_state), id(truth_povm), id(basis), anchor, truth_state.rho.tobytes(),
           truth_povm.elements.tobytes())
    for i, (ideal, _, kept) in enumerate(memo):
        if kept == key:
            if i:
                memo.insert(0, memo.pop(i))
            return ideal
    # Read only on a miss: an index out of range is never kept.
    if not 1 <= anchor <= basis.n_traceless:
        raise ValidationError(
            f"scale observable index must be in 1..{basis.n_traceless}, got {anchor}")
    # All processes in one stacked pass: outputs, then their probabilities.
    rho_out = ens.apply(truth_state.rho)
    p = born_probabilities(rho_out, truth_povm)
    survival = np.clip(np.real(np.trace(rho_out, axis1=1, axis2=2)), 0.0, 1.0)
    q = np.real(np.einsum("jii->j", truth_povm.elements)) / d
    lam, vecs = np.linalg.eigh(basis.omegas[anchor])
    probs = np.clip(np.real(np.einsum("ik,ij,jk->k", vecs.conj(), truth_state.rho, vecs)), 0.0, None)
    probs = probs / probs.sum()
    arrays = (p, survival, q, lam, probs,
              sampling_table(p), sampling_table(q), sampling_table(probs))
    for a in arrays:
        a.setflags(write=False)
    ideal = IdealStatistics(anchor, *arrays)
    memo.insert(0, (ideal, (truth_state, truth_povm, basis), key))
    del memo[_MEMO_SIZE:]
    return ideal


def _calibration_draws(ens: ProcessEnsemble, ideal: IdealStatistics, n0: int, rng,
                       exact: bool) -> tuple:
    """One stream's draws after its outcome draw, in the protocol's order:
    the lossy processes' survival counts, the detector's trace components
    on the maximally mixed probe state, and the scale observable measured
    projectively in its own eigenbasis.  Returns ``x_a0_hat``, ``c_j0_hat``
    and ``x01_bar``; ``exact`` records the ideal values instead."""
    sqd = math.sqrt(ens.d)
    x_a0 = np.full(len(ens), 1.0 / sqd)
    lossy = ~ens.tp_flags
    if lossy.any():
        survival = ideal.survival[lossy]
        x_a0[lossy] = (survival if exact else rng.binomial(n0, survival) / float(n0)) / sqd
    q = ideal.trace_probabilities if exact else _draw(ideal.trace_table, n0, rng)
    weights = ideal.scale_probabilities if exact else _draw(ideal.scale_table, n0, rng)
    return x_a0, sqd * q, float(np.dot(ideal.scale_eigenvalues, weights))


def simulate_dataset(
    ens: ProcessEnsemble,
    truth_state: DensityMatrix,
    truth_povm: Povm,
    n0: int,
    seed=0,
    scale_observable: int = 1,
    exact: bool = False,
    basis: OperatorBasis = None,
) -> MeasurementDataset:
    """Simulate the full data-collection protocol with ``n0`` shots per setup.

    ``seed`` is None, a whole number >= 0, a SeedSequence, a BitGenerator or
    a Generator; any other seed is refused.

    ``scale_observable`` selects which basis operator Omega_k is measured on
    the input state to pin the reconstruction scale; its eigenbasis statistics
    are sampled with ``n0`` shots like every other configuration.  ``exact``
    bypasses all sampling and records the ideal values (a simulation switch
    for pipeline-exactness checks, not a physical claim).  The statistics
    are the record ``ideal_statistics`` keeps for these inputs, computed on
    the first call.  Each draw is one multinomial per table of that record,
    whose probabilities were checked when it was made, and a binomial for
    the lossy processes' survival, so the dataset is valid as drawn and is
    not checked again.  The outcome draw, one row per process, comes first,
    then the calibrations' draws (``_calibration_draws``).
    """
    n0 = _whole(n0, "shot count", 1)
    ideal = ideal_statistics(ens, truth_state, truth_povm, scale_observable, basis)
    rng = _rng(seed)
    y_hat = (ideal.probabilities.copy() if exact
             else _draw(ideal.outcome_table, _drawable(n0), rng))
    x_a0, c_j0, x01 = _calibration_draws(ens, ideal, n0, rng, exact)
    # Drawn from checked tables, the dataset is valid as it is: not checked again.
    return _new(MeasurementDataset, y_hat=y_hat, x_a0_hat=x_a0, c_j0_hat=c_j0, x01_bar=x01,
                n0=n0, tp_flags=ens.tp_flags, anchor_index=ideal.anchor_index)


def simulate_datasets(
    ens: ProcessEnsemble,
    truth_state: DensityMatrix,
    truth_povm: Povm,
    n0: int,
    seeds,
    scale_observable: int = 1,
    exact: bool = False,
    basis: OperatorBasis = None,
) -> DatasetStack:
    """One simulated dataset per seed of ``seeds``, as one ``DatasetStack``.

    Member ``t`` is the dataset ``simulate_dataset`` draws from
    ``seeds[t]``, bit for bit: each seed is read as ``simulate_dataset``
    reads it, and each stream makes the same draws in the same order, its
    outcome draw first (``_outcome_draws``, on two threads for a large
    ensemble), then its calibrations' draws.  Two seeds that share a bit
    generator are refused, since their draws would depend on the order of
    the members.  The stack, drawn from checked tables, is not checked
    again.
    """
    n0 = _whole(n0, "shot count", 1)
    ideal = ideal_statistics(ens, truth_state, truth_povm, scale_observable, basis)
    rngs = [_rng(seed) for seed in seeds]
    if not rngs:
        raise ValidationError("a stack needs at least one dataset")
    if len({id(rng.bit_generator) for rng in rngs}) < len(rngs):
        raise ValidationError("the datasets of one stack need a bit generator each")
    y_hat = (np.repeat(ideal.probabilities[None], len(rngs), axis=0) if exact
             else _outcome_draws(ideal.outcome_table, _drawable(n0), rngs))
    x_a0, c_j0, x01 = zip(*(_calibration_draws(ens, ideal, n0, rng, exact) for rng in rngs))
    return _new(DatasetStack, y_hat=y_hat, x_a0_hat=np.stack(x_a0), c_j0_hat=np.stack(c_j0),
                x01_bar=np.array(x01, dtype=float), n0=n0, tp_flags=ens.tp_flags,
                anchor_index=ideal.anchor_index)
