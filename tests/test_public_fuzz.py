"""An introspective fuzz of the package's public names.

Every callable that ``dir(jointtomo)`` lists (the exporter's lazily loaded
names included) is called with valid arguments in every position but one,
which gets one hostile value.  The call must return, raise TomographyError,
or raise one of the exemptions below; a warning fails it.  A name added to
the package later is called without editing this file: a parameter the
table of valid values does not know is filled with its default or, lacking
one, with ``None``.
"""

import inspect
import os
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import jointtomo
from jointtomo import (
    Stage1Config,
    TomographyError,
    build_basis,
    build_regression_matrices,
    estimate_joint_v1,
    hamiltonian_generator,
    nearest_kronecker,
    pauli,
    preset,
    run_mse_experiment,
    simulate_dataset,
)

# Exceptions a call may raise besides TomographyError, each with its reason.
EXEMPT = {
    # factor_design documents it: LAPACK's SVD did not converge.
    ("factor_design", np.linalg.LinAlgError),
    # a path that names no file to read, or no place to write one ("")
    ("load_sos_problem", FileNotFoundError),
    ("export_sos_problem", FileNotFoundError),
}

# Hostile values: wrong records, strings, None, non-finite numbers, ragged
# and wrongly shaped arrays, bools, and small ints (an int where a path goes
# is a file descriptor).  No large whole number: in a count position
# (``trials``, ``iters``, ``n``, ``samples``, ``rank``) it is valid input and
# would loop or allocate without bound.
HOSTILE = (
    None, "x", "", float("nan"), float("inf"), float("-inf"), [[1.0, 2.0], [3.0]],
    np.ones((2, 3)), np.ones(5), np.zeros((0, 2)), np.array([np.nan, 1.0]), True, False,
    0, 1, 2, -1, 1j, object(), Stage1Config(), build_basis(3),
)


def _valid_arguments() -> tuple:
    """One valid value per parameter name, taken from a small d = 2 preset,
    and the values of the callables whose parameters mean something else."""
    sc = preset("one_qubit_closed_complete")
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 100, seed=1,
                          scale_observable=sc.anchor_index, basis=sc.basis)
    config = Stage1Config("mp_inverse")
    est = estimate_joint_v1(ds, reg.b, sc.basis, config)
    rho, elements = sc.truth_state.rho, sc.truth_povm.elements
    stack = ds.as_stack()
    specific = {
        "DatasetStack": {"y_hat": stack.y_hat, "x_a0_hat": stack.x_a0_hat,
                         "c_j0_hat": stack.c_j0_hat, "x01_bar": stack.x01_bar},
        "discretize_hamiltonian": {"r": hamiltonian_generator(pauli("z"), sc.basis)},
        "fit_loglog_slope": {"table": run_mse_experiment(sc, [10, 100, 1000], 2, config=config)},
        "pauli": {"name": "z"},
        "run_method_comparison": {"configs": [("mp", config, None)]},
    }
    return specific, {
        "basis": sc.basis, "d": 2, "ds": ds, "b": reg.b, "b_natural": reg.b_natural,
        "init": est, "ens": sc.ensemble, "ensemble": sc.ensemble, "sc": sc,
        "truth_state": sc.truth_state, "truth_povm": sc.truth_povm, "state": sc.truth_state,
        "povm": sc.truth_povm, "rho": rho, "rho_bar": rho, "rho_hat": sc.truth_state,
        "elements": elements, "povm_bar": elements, "povm_hat": sc.truth_povm,
        "channel": sc.ensemble.channels[0], "channels": sc.ensemble.channels,
        "kraus": sc.ensemble.channels[0].kraus, "x": np.zeros(3), "c": np.zeros(3),
        "c0": 0.5, "coords": np.zeros(4), "mats": rho, "a": rho, "v": np.zeros(4),
        "m": np.eye(3), "z": np.eye(4), "rows": 2, "cols": 2, "h": pauli("z"),
        "r": np.zeros(3), "dt": 0.1, "n": 2, "gamma": 0.1, "g": 0.1, "v1": np.eye(2),
        "v2": np.eye(2), "name": "one_qubit_closed_complete", "kind": "bit_flip",
        "n0": 100, "n0_grid": [100], "trials": 2, "seed": 0, "seeds": [1, 2],
        "config": config, "y": reg.b[:, :1],
        "fac": nearest_kronecker(np.kron(np.ones(3), np.ones(3)), 3, 3), "x01_bar": 1.0,
        "candidates": np.ones((2, 3)), "p": np.full((3, 2), 0.5), "rng": np.random.default_rng(0),
        "path": "out.txt", "iters": 2, "column": "mse_state",
        "y_hat": ds.y_hat, "x_a0_hat": ds.x_a0_hat, "c_j0_hat": ds.c_j0_hat,
        "tp_flags": ds.tp_flags, "omegas": sc.basis.omegas,
    }


def _callables() -> list:
    """The public callables of the package, with their named parameters."""
    found = []
    for name in dir(jointtomo):
        value = getattr(jointtomo, name)
        if name.startswith("_") or not callable(value):
            continue
        try:
            params = inspect.signature(value).parameters.values()
        except ValueError:  # a builtin exception class
            params = ()
        found.append((name, value, [p for p in params if p.kind not in (p.VAR_POSITIONAL,
                                                                          p.VAR_KEYWORD)]))
    return found


SPECIFIC, VALID = _valid_arguments()
CALLABLES = _callables()


def test_the_walk_reaches_the_lazily_loaded_exporter():
    names = {name for name, _, _ in CALLABLES}
    assert {"refine_alternating", "export_sos_problem", "load_sos_problem", "preset"} <= names


@pytest.fixture
def protected(tmp_path, monkeypatch):
    """Run in ``tmp_path`` with stdin on /dev/null.  The fixture is the
    function that puts back whichever of descriptors 0, 1 and 2 a call
    closed, and returns them."""
    monkeypatch.chdir(tmp_path)
    saved = [os.dup(fd) for fd in (0, 1, 2)]
    devnull = os.open(os.devnull, os.O_RDONLY)
    os.dup2(devnull, 0)
    os.close(devnull)

    def restore() -> list:
        closed = []
        for fd, copy in zip((0, 1, 2), saved):
            try:
                os.fstat(fd)
            except OSError:
                closed.append(fd)
                os.dup2(copy, fd)
        return closed

    try:
        yield restore
    finally:
        restore()
        os.dup2(saved[0], 0)
        for copy in saved:
            os.close(copy)


@settings(max_examples=4 * len(HOSTILE), deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(HOSTILE))
def test_every_public_call_returns_or_refuses_one_hostile_argument(protected, hostile):
    """Each draw is one hostile value, put into every parameter of every
    callable in turn (a callable without parameters is called once)."""
    for name, func, params in CALLABLES:
        valid = {p.name: SPECIFIC.get(name, {}).get(
            p.name, VALID.get(p.name, None if p.default is p.empty else p.default))
            for p in params}
        for param in params or [None]:
            args = valid if param is None else {**valid, param.name: hostile}
            call = f"{name}({param and param.name}={hostile!r})"
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    func(**args)
            except TomographyError:
                pass
            except Exception as exc:
                if not any(name == n and isinstance(exc, e) for n, e in EXEMPT):
                    raise AssertionError(f"{call} raised {exc!r}") from exc
            finally:
                closed = protected()
            assert closed == [], f"{call} closed descriptors {closed}"
