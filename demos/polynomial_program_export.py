"""Export the reconstruction as a constrained polynomial program.

The residual objective is a polynomial in the state and detector coordinates,
and physicality is a semialgebraic set: the characteristic-polynomial
coefficients k_p of the parameterized matrices must be nonnegative.  For one
qubit that is literally the Bloch ball.  The exported text file is solver
agnostic; any SOS/SDP front end can consume it to certify a lower bound on
the residual (the "minimize -gamma" convention in the header).
"""

import pathlib

import numpy as np

import jointtomo as jt
from jointtomo import build_targets_v1, export_sos_problem, load_sos_problem

sc = jt.preset("one_qubit_closed_complete")
reg = jt.build_regression_matrices(sc.ensemble, sc.basis)
ds = jt.simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 10 ** 5, seed=4,
                         basis=sc.basis)

out = pathlib.Path(__file__).with_name("one_qubit_problem.sos")
prob = export_sos_problem(ds, reg.b, sc.basis, out)
print(f"wrote {out}")
print(f"variables ({len(prob.variables)}): {' '.join(prob.variables)}")
print("equalities:", ", ".join(name for name, _ in prob.equalities))
print("inequalities:", ", ".join(name for name, _ in prob.inequalities))

# The state constraint for d = 2 is the Bloch ball  x1^2 + x2^2 + x3^2 <= 1/2.
ball = dict(prob.inequalities)["state_ball_p2"]
terms = sorted(ball.items())
print("\nstate positivity polynomial (must be >= 0):")
for exps, coeff in terms:
    mono = "*".join(f"{v}^{e}" for v, e in zip(prob.variables, exps) if e) or "1"
    print(f"  {coeff:+g} {mono}")

# Evaluating the exported objective at the true coordinates reproduces the
# directly computed residual, so nothing was lost in the expansion.  The
# program's variables are the coherence vectors: each matrix's coordinates
# (one stacked map for the three detector elements) without the trace
# component.
x = jt.to_coords(sc.truth_state.rho, sc.basis)[1:]
cs = jt.to_coords(sc.truth_povm.elements, sc.basis)[:, 1:]
vals = np.concatenate([x, *cs])
y = build_targets_v1(ds, sc.basis)
direct = sum(np.linalg.norm(y[:, j] - reg.b @ np.kron(x, cs[j])) ** 2 for j in range(3))
loaded = load_sos_problem(out)
print(f"\nobjective at the truth, from the file: {loaded.evaluate_objective(vals):.10e}")
print(f"directly computed residual:            {direct:.10e}")

# Pure-input variant: the state lives on the unit sphere of amplitudes
# instead of inside the Bloch ball.
pure_out = pathlib.Path(__file__).with_name("one_qubit_pure_problem.sos")
scp = jt.preset("one_qubit_random_pure")
regp = jt.build_regression_matrices(scp.ensemble, scp.basis)
dsp = jt.simulate_dataset(scp.ensemble, scp.truth_state, scp.truth_povm, 10 ** 5,
                          seed=5, basis=scp.basis)
prob_pure = export_sos_problem(dsp, regp.b_natural, scp.basis, pure_out, pure=True)
print(f"\npure-state program written to {pure_out}:")
print("equalities:", ", ".join(name for name, _ in prob_pure.equalities))
print("inequalities:", ", ".join(name for name, _ in prob_pure.inequalities))
