"""The package runs on numpy alone: no path of it, everyday or not, loads
any scipy module, and numpy is its one runtime requirement; and importing
the package loads neither the exporter, the file formats nor numpy.random.
Run in a fresh interpreter, since this one has scipy and the exporter
loaded.  CI's step "Installed package runs on numpy alone" runs the same
three scripts (``SCRIPT``, ``LAZY_EXPORTER``, ``LAZY_RANDOM``) against the
installed package, so they are the one copy of these checks."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys

import numpy as np

import jointtomo as jt
from jointtomo.cli import main


def scipy():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


assert scipy() == [], ("import", scipy())
sc = jt.preset("two_qubit_mixed_unitary")
jt.run_mse_experiment(sc, [1000], trials=2, seed=0)
ds = jt.simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 1000, seed=1,
                         basis=sc.basis)
est = jt.estimate_joint_v1(ds, sc.regression.b, sc.basis, sc.stage1)
jt.estimate_joint_v2(ds, sc.regression.b_natural, jt.Stage1Config(method="mp_inverse"))
qubit = jt.preset("one_qubit_closed_complete")  # the exporter takes d <= 3
jt.export_sos_problem(
    jt.simulate_dataset(qubit.ensemble, qubit.truth_state, qubit.truth_povm, 1000, seed=1,
                        basis=qubit.basis),
    qubit.regression.b, qubit.basis, "problem.sos")
cli = ("--preset", "one_qubit_closed_incomplete", "--quiet")
for argv in (["simulate", *cli, "--n0", "1000", "--out", "ds.json"],
             ["estimate", *cli, "--dataset", "ds.json", "--method", "mp", "--out", "est.json"],
             ["refine", *cli, "--dataset", "ds.json", "--method", "mp", "--out", "ref.json"],
             ["export-sos", *cli, "--dataset", "ds.json", "--out", "cli.sos"],
             ["rank-check", *cli],
             ["bench", *cli, "--n0-grid", "1e3,1e4", "--trials", "2", "--out", "mse.csv"]):
    assert main(argv) == 0, argv
    assert scipy() == [], (argv[0], scipy())
jt.refine_alternating(ds, sc.regression.b, sc.basis, est, iters=2)
assert scipy() == [], ("refine", scipy())
# the calls that used scipy.linalg: the exponential and the SVD fallback
jt.discretize_hamiltonian(jt.hamiltonian_generator(jt.pauli("xz") / 2, sc.basis), 0.5, 3)


def failing_svd(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


b = np.random.default_rng(0).normal(size=(12, 9))
svd, np.linalg.svd = np.linalg.svd, failing_svd
design = jt.factor_design(b)
np.linalg.svd = svd
assert design.rank == 9 and np.abs(design.u * design.s @ design.vh - b).max() < 1e-12
assert scipy() == [], ("exponential and SVD fallback", scipy())
print("ok")
"""


def test_the_package_runs_on_numpy_alone(tmp_path):
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    listed = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)
    assert re.findall(r'"([^"]*)"', listed) == ["numpy>=1.24"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


LAZY_EXPORTER = """
import sys

import jointtomo as jt

names = ("SemialgebraicCert", "SosProblem", "export_sos_problem", "in_physical_set",
         "k_coefficients", "load_sos_problem", "povm_membership")
loaded = sorted(m for m in ("jointtomo.sos", "jointtomo.serialize") if m in sys.modules)
assert loaded == [], loaded
listed = dir(jt)
assert all(name in listed for name in names), sorted(set(names) - set(listed))
assert "jointtomo.sos" not in sys.modules
from jointtomo import sos

assert all(getattr(jt, name) is getattr(sos, name) for name in names)
try:
    jt.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
print("ok")
"""


def test_the_exporter_loads_on_first_use(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", LAZY_EXPORTER], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


LAZY_RANDOM = """
import sys

import jointtomo as jt
from jointtomo.cli import main

assert "numpy.random" not in sys.modules, "import"
with open("h.json", "w") as fh:
    fh.write('[{"d": 2, "h": [[[0.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]], "dt_us": 0.5}]')
assert main(["rank-check", "--hamiltonians", "h.json", "--samples", "3", "--quiet"]) == 0
assert "numpy.random" not in sys.modules, "rank-check"
jt.simulate_dataset(*(lambda sc: (sc.ensemble, sc.truth_state, sc.truth_povm))(
    jt.preset("one_qubit_closed_complete")), 10, seed=1)
assert "numpy.random" in sys.modules, "a draw"
print("ok")
"""


def test_numpy_random_loads_on_the_first_draw(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", LAZY_RANDOM], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
