"""An introspective fuzz of the package's public names.

Every callable that ``dir(jointtomo)`` lists (the exporter's lazily loaded
names included), every public method of an exported class, called on an
instance built from a preset, and every public function of
``jointtomo.serialize`` is called with valid arguments in every position but
one, which gets one hostile value.  The call must return, raise
TomographyError, or raise one of the exemptions below; a warning fails it.
A name added to the package later is called without editing this file: a
parameter the table of valid values does not know is filled with its
default or, lacking one, with ``None``.
"""

import inspect
import os
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import jointtomo
import jointtomo.serialize
from jointtomo import (
    SosProblem,
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
    *((name, FileNotFoundError) for name in (
        "load_sos_problem", "export_sos_problem", "SosProblem.write", "MseTable.to_csv",
        "MseTable.write_metadata", "serialize.load_dataset", "serialize.load_ensemble",
        "serialize.load_hamiltonians", "serialize.load_povm", "serialize.load_state",
        "serialize.save_dataset", "serialize.save_ensemble", "serialize.save_povm",
        "serialize.save_result", "serialize.save_state")),
}
# The files the loaders read, written into the working directory by
# ``_write_files`` before the calls.
FILES = {"dataset": "dataset.json", "ensemble": "ensemble.json",
         "hamiltonians": "hamiltonians.json", "povm": "povm.json", "state": "state.json"}

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
    table = run_mse_experiment(sc, [10, 100, 1000], 2, config=config)
    channel = sc.ensemble.channels[0]
    specific = {
        "DatasetStack": {"y_hat": stack.y_hat, "x_a0_hat": stack.x_a0_hat,
                         "c_j0_hat": stack.c_j0_hat, "x01_bar": stack.x01_bar},
        "discretize_hamiltonian": {"r": hamiltonian_generator(pauli("z"), sc.basis)},
        "fit_loglog_slope": {"table": table},
        "pauli": {"name": "z"},
        "run_method_comparison": {"configs": [("mp", config, None)]},
        "DatasetStack.of": {"datasets": [ds, ds]},
        "DensityMatrix.checked": {"rho": rho[None]},
        "KrausChannel.stacked": {"kraus": channel.kraus[None], "labels": ["a"]},
        "MseTable.column": {"name": "mse_state"},
        "Povm.checked": {"elements": elements[None]},
        "SosProblem.evaluate_objective": {"values": np.ones(2)},
        "Stage1Config.resolved": {"total_copies": 100},
        "serialize.channel_from_json": {"data": jointtomo.serialize.channel_to_json(channel)},
        "serialize.dataset_from_json": {"data": jointtomo.serialize.dataset_to_json(ds)},
        "serialize.matrix_from_json": {"data": jointtomo.serialize.matrix_to_json(rho)},
        **{f"serialize.load_{kind}": {"path": path} for kind, path in FILES.items()},
    }
    instances = {
        "DatasetStack": stack, "DensityMatrix": sc.truth_state, "KrausChannel": channel,
        "MeasurementDataset": ds, "MseTable": table, "Povm": sc.truth_povm,
        "ProcessEnsemble": sc.ensemble, "Stage1Config": config,
        "SosProblem": SosProblem(dim=2, m=2, variables=("x1", "x2"),
                                 objective={(2, 0): 1.0, (0, 1): -0.5}),
    }
    return specific, instances, {
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
        "tp_flags": ds.tp_flags, "omegas": sc.basis.omegas, "indices": [0, 1], "ch": channel,
        "result": est,
    }


def _public(namespace, prefix: str = "") -> list:
    """``namespace``'s public callables (each named ``prefix`` + its name),
    with their named parameters."""
    found = []
    for name in dir(namespace):
        value = getattr(namespace, name)
        if name.startswith("_") or not callable(value):
            continue
        try:
            params = inspect.signature(value).parameters.values()
        except ValueError:  # a builtin exception class
            params = ()
        found.append((prefix + name, value, [p for p in params if p.kind not in (
            p.VAR_POSITIONAL, p.VAR_KEYWORD)]))
    return found


def _callables() -> list:
    """The public callables of the package; the public methods of each
    exported class that has them, bound to ``INSTANCES``' instance of it; and
    serialize's public functions, its imported names left out."""
    found = _public(jointtomo)
    for cls in [value for _, value, _ in found
                if inspect.isclass(value) and not issubclass(value, BaseException)]:
        if _public(cls):
            assert cls.__name__ in INSTANCES, f"no instance of {cls.__name__}"
            found += _public(INSTANCES[cls.__name__], cls.__name__ + ".")
    serialize = jointtomo.serialize
    return found + [entry for entry in _public(serialize, "serialize.")
                    if inspect.getmodule(entry[1]) is serialize]


def _write_files() -> None:
    """Write the files ``FILES`` names into the working directory."""
    serialize, sc = jointtomo.serialize, preset("one_qubit_closed_complete")
    serialize.save_dataset(VALID["ds"], FILES["dataset"])
    serialize.save_ensemble(sc.ensemble, FILES["ensemble"])
    serialize.save_povm(sc.truth_povm, FILES["povm"])
    serialize.save_state(sc.truth_state, FILES["state"])
    with open(FILES["hamiltonians"], "w", encoding="utf-8") as fh:
        fh.write('[{"d": 2, "h": [[[0.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]], "dt_us": 0.5}]')


SPECIFIC, INSTANCES, VALID = _valid_arguments()
CALLABLES = _callables()


def test_the_walk_reaches_the_lazily_loaded_exporter():
    names = {name for name, _, _ in CALLABLES}
    assert {"refine_alternating", "export_sos_problem", "load_sos_problem", "preset"} <= names


def test_the_walk_reaches_the_methods_and_the_file_formats():
    names = {name for name, _, _ in CALLABLES}
    assert {"MseTable.column", "Stage1Config.resolved", "DatasetStack.of",
            "ProcessEnsemble.apply", "KrausChannel.stacked", "SosProblem.write",
            "serialize.channel_from_json", "serialize.save_result"} <= names
    assert "serialize.KrausChannel" not in names


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
    _write_files()
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
