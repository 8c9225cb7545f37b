"""Command-line entry point.

Subcommands: simulate, estimate, refine, export-sos, rank-check, bench.
Exit codes: 0 success, 2 validation error, 3 numerical degeneracy, 4 I/O.
"""

import argparse
import json
import sys

import numpy as np

from . import bench as bench_mod
from . import refine as refine_mod
from . import serialize
from .basis import build_basis
from .channels import (
    ProcessEnsemble,
    build_regression_matrices,
    closed_system_channels,
    min_hamiltonian_count,
    rank_bound,
)
from .errors import DegeneracyError, ValidationError, _whole
from .estimator import (
    Stage1Config,
    estimate_joint_v1,
    estimate_joint_v2,
    project_pure,
)
from .measurement import simulate_dataset

_METHOD_NAMES = {"ls": "plain_ls", "plain_ls": "plain_ls", "mp": "mp_inverse",
                 "mp_inverse": "mp_inverse", "tikhonov": "tikhonov"}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ValidationError, so that it exits 2
    with an ``error:`` line like every other invalid input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(f"{self.prog}: {message}")


def _print_config(args, quiet: bool) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    stream = sys.stderr if quiet else sys.stdout
    print("config: " + json.dumps(resolved, default=str), file=stream)


def _processes(args):
    """The ensemble, its basis, and the preset's scenario (None for a file)."""
    if args.samples is not None and not args.hamiltonians:
        raise ValidationError("--samples needs --hamiltonians")
    if args.preset:
        sc = bench_mod.preset(args.preset, seed=args.seed)
        return sc.ensemble, sc.basis, sc
    if args.channels:
        ens = serialize.load_ensemble(args.channels)
    else:
        records = serialize.load_hamiltonians(args.hamiltonians)
        samples = 3 if args.samples is None else args.samples
        ens = ProcessEnsemble(tuple(closed_system_channels(records, samples)))
    return ens, build_basis(ens.d), None


def _v1_misfit(ens):
    """Index of the first process the coherence-vector (v1) model does not
    describe (one not generalized-unital), or None, read off the stacked
    ``ProcessEnsemble.unital_flags``, for a preset's ensemble as for a file's."""
    flags = ens.unital_flags
    return None if flags.all() else int(flags.argmin())


def _require_v1(ens) -> None:
    """Refuses, before the dataset is read, an ensemble with a ``_v1_misfit``."""
    a = _v1_misfit(ens)
    if a is not None:
        label = ens.channels[a].label
        raise ValidationError(
            f"process {a + 1}{f' ({label})' if label else ''} is not generalized-unital, so "
            "the coherence-vector (v1) model does not describe it; use estimate --version v2 "
            "or export-sos --pure")


def _truth(args, sc):
    """The truth state and detector: the preset's, or the --state/--povm files."""
    if sc is not None:
        if args.state or args.povm:
            raise ValidationError("--state/--povm cannot be combined with --preset, "
                                  "which supplies its own truth")
        return sc.truth_state, sc.truth_povm
    return (serialize.load_state(args.state) if args.state else None,
            serialize.load_povm(args.povm) if args.povm else None)


def _stage1_config(args):
    """The stage-1 settings of ``--method`` and ``--reg-scale``.

    ``estimate`` and ``refine`` default to ``--method ls``.  Only ``bench``
    may leave the method out; then this returns None and the preset's own
    choice applies.
    """
    reg_scale = None
    if args.reg_scale != "auto":
        try:
            reg_scale = float(args.reg_scale)
        except ValueError:
            raise ValidationError(
                f"--reg-scale must be a number or 'auto', got {args.reg_scale!r}") from None
    if args.method is None:
        if reg_scale is not None:
            raise ValidationError("--reg-scale needs --method")
        return None
    return Stage1Config(method=_METHOD_NAMES[args.method], reg_scale=reg_scale)


def _number(token: str):
    """A token as an int when it is an integer literal, so a count above
    2**53 keeps its value, and as a float otherwise."""
    try:
        return int(token)
    except ValueError:
        return float(token)


def _parse_grid(text: str) -> list:
    """The ``--n0-grid`` numbers, which the experiment checks as shot counts
    (so ``1e3`` is 1000 and ``2.5`` is refused, not truncated)."""
    try:
        return [_number(tok) for tok in text.split(",")]
    except ValueError:
        raise ValidationError(
            f"--n0-grid must be comma-separated shot counts, got {text!r}") from None


def _cmd_simulate(args) -> int:
    ens, basis, sc = _processes(args)
    state, povm = _truth(args, sc)
    if state is None or povm is None:
        raise ValidationError("simulate needs a preset or explicit --state and --povm files")
    ds = simulate_dataset(ens, state, povm, args.n0, seed=args.seed,
                          scale_observable=args.anchor, exact=args.exact, basis=basis)
    serialize.save_dataset(ds, args.out)
    if not args.quiet:
        print(f"wrote dataset with {ds.n_processes} processes x {ds.n_outcomes} outcomes "
              f"({ds.total_copies} copies) to {args.out}")
    return 0


def _report_errors(result, state, povm, quiet: bool) -> None:
    if state is None or quiet:
        return
    if state.rho.shape != result.rho_bar.shape or (
            povm is not None and povm.elements.shape != result.povm_bar.shape):
        raise ValidationError("--state/--povm do not match the estimate's dimension or "
                              "outcome count")
    pre_s = np.linalg.norm(result.rho_bar - state.rho)
    post_s = np.linalg.norm(result.rho_hat.rho - state.rho)
    print(f"state error (Frobenius): pre-correction {pre_s:.6e}, post-correction {post_s:.6e}")
    if povm is not None:
        pre_p = np.sqrt(np.sum(np.abs(result.povm_bar - povm.elements) ** 2))
        post_p = np.sqrt(np.sum(np.abs(result.povm_hat.elements - povm.elements) ** 2))
        print(f"detector error (Frobenius): pre-correction {pre_p:.6e}, "
              f"post-correction {post_p:.6e}")


def _cmd_estimate(args) -> int:
    ens, basis, sc = _processes(args)
    state, povm = _truth(args, sc)
    version = args.version or (sc.estimator if sc else "v1")
    if version == "v1":
        _require_v1(ens)
    ds = serialize.load_dataset(args.dataset)
    reg = build_regression_matrices(ens, basis)
    config = _stage1_config(args)
    if version == "v2":
        result = estimate_joint_v2(ds, reg.design_natural, config)
    else:
        result = estimate_joint_v1(ds, reg.design, basis, config)
    if args.pure:
        from dataclasses import replace
        result = replace(result, rho_hat=project_pure(result.rho_hat))
    _report_errors(result, state, povm, args.quiet)  # refuses a mismatch before writing
    serialize.save_result(result, args.out)
    if not args.quiet:
        print(f"wrote estimate to {args.out}")
    return 0


def _cmd_refine(args) -> int:
    _whole(args.iters, "iters", 0)  # refine_alternating's check, before any file is read
    ens, basis, sc = _processes(args)
    state, povm = _truth(args, sc)
    _require_v1(ens)
    ds = serialize.load_dataset(args.dataset)
    reg = build_regression_matrices(ens, basis)
    init = estimate_joint_v1(ds, reg.design, basis, _stage1_config(args))
    result = refine_mod.refine_alternating(ds, reg.design, basis, init, iters=args.iters)
    _report_errors(result, state, povm, args.quiet)
    serialize.save_result(result, args.out)
    if not args.quiet:
        diag = result.diagnostics
        tr = diag["objective_trajectory"]
        print(f"objective {tr[0]:.6e} -> {tr[-1]:.6e} in {diag['sweeps_accepted']} accepted "
              f"sweeps of {diag['sweeps_run']} run (stopped: {diag['stop_reason']}); "
              f"corrected objective {diag['corrected_objective']:.6e}; wrote {args.out}")
    return 0


def _cmd_export_sos(args) -> int:
    from .sos import export_sos_problem  # the one command that needs the exporter

    ens, basis, _ = _processes(args)
    if not args.pure:
        _require_v1(ens)
    ds = serialize.load_dataset(args.dataset)
    reg = build_regression_matrices(ens, basis)
    problem = export_sos_problem(ds, reg.b_natural if args.pure else reg.b, basis, args.out,
                                 pure=args.pure)
    if not args.quiet:
        print(f"wrote polynomial program with {len(problem.variables)} variables, "
              f"{len(problem.equalities)} equalities, {len(problem.inequalities)} "
              f"inequalities to {args.out}")
    return 0


def _cmd_rank_check(args) -> int:
    ens, basis, _ = _processes(args)
    reg = build_regression_matrices(ens, basis)
    d = basis.d
    n2 = basis.n_traceless ** 2
    bound = rank_bound(ens)
    count, n_min = min_hamiltonian_count(d)
    print(f"L = {len(ens)} processes, d = {d}")
    print(f"rank(B) = {reg.rank_b} of {n2}")
    print(f"rank(B_natural) = {reg.rank_b_natural} <= bound {bound} (cap {d ** 4})")
    misfit = _v1_misfit(ens)
    print("v1 model applies: " + ("yes" if misfit is None else
                                  f"no (process {misfit + 1} is not generalized-unital)"))
    print(f"complete (v1): {'yes' if reg.complete_v1 else 'no'}")
    print(f"complete (v2): {'yes' if reg.complete_v2 else 'no'}")
    print(f"minimum Hamiltonians for d={d}: {count} (n_min = {n_min})")
    return 0


def _cmd_bench(args) -> int:
    sc = bench_mod.preset(args.preset, seed=args.seed)
    table = bench_mod.run_mse_experiment(sc, _parse_grid(args.n0_grid), trials=args.trials,
                                         seed=args.seed, exact=args.exact,
                                         config=_stage1_config(args))
    table.to_csv(args.out)
    table.write_metadata(args.out + ".meta.json")
    if not args.quiet:
        fits = []
        for column, name in (("mse_state", "state"), ("mse_povm", "detector")):
            try:
                slope, _, r2 = bench_mod.fit_loglog_slope(table, column)
                fits.append(f"{name} slope {slope:+.3f} (r2 {r2:.3f})")
            except ValidationError as exc:  # the table is written; only the fit is missing
                fits.append(f"no {name} slope: {exc}")
        print(f"{', '.join(fits)}; {table.failures} failed trials; wrote {args.out}")
    return 0


def _stage1_flags(method) -> argparse.ArgumentParser:
    """A parent parser of ``--method`` (default ``method``) and ``--reg-scale``.
    One per default: its children share its actions, defaults included."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--method", choices=sorted(_METHOD_NAMES), default=method)
    p.add_argument("--reg-scale", default="auto", help="Tikhonov scale, or 'auto' for 100/N")
    return p


def build_parser() -> argparse.ArgumentParser:
    """One sub-parser per command, with only the flags it reads, none abbreviated."""
    parser = _Parser(
        prog="jointtomo", allow_abbrev=False,
        description="Joint quantum state and detector reconstruction toolkit",
    )
    source = argparse.ArgumentParser(add_help=False)
    group = source.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=bench_mod.PRESET_NAMES)
    group.add_argument("--channels", help="ensemble JSON file")
    group.add_argument("--hamiltonians", help="Hamiltonian JSON file")
    source.add_argument("--samples", type=int, help="points per Hamiltonian (default 3)")
    source.add_argument("--seed", type=int, default=0)
    truth = argparse.ArgumentParser(add_help=False)
    truth.add_argument("--state", help="truth state JSON file")
    truth.add_argument("--povm", help="truth detector JSON file")
    fit = [source, truth, _stage1_flags("ls")]
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, parents, out=None):
        p = sub.add_parser(name, help=help, parents=parents, allow_abbrev=False)
        if out:
            p.add_argument("--out", default=out)
        p.add_argument("--quiet", action="store_true")
        p.set_defaults(func=fn)
        return p

    p = command("simulate", _cmd_simulate, "simulate a measurement dataset", [source, truth],
                "dataset.json")
    p.add_argument("--n0", type=int, default=10000, help="shots per configuration")
    p.add_argument("--exact", action="store_true", help="noiseless simulation")
    p.add_argument("--anchor", type=int, default=1, help="scale observable index")
    p = command("estimate", _cmd_estimate, "estimate from a dataset", fit, "estimate.json")
    p.add_argument("--dataset", required=True)
    p.add_argument("--version", choices=("v1", "v2"), default=None)
    p.add_argument("--pure", action="store_true", help="project the state estimate to rank 1")
    p = command("refine", _cmd_refine, "refine from a dataset", fit, "refine.json")
    p.add_argument("--dataset", required=True)
    p.add_argument("--iters", type=int, default=100)
    p = command("export-sos", _cmd_export_sos, "write the polynomial program to a file",
                [source], "problem.sos")
    p.add_argument("--dataset", required=True)
    p.add_argument("--pure", action="store_true")
    command("rank-check", _cmd_rank_check, "informational-completeness diagnostics", [source])
    p = command("bench", _cmd_bench, "MSE scaling experiment over a shot grid",
                [_stage1_flags(None)], "mse.csv")
    p.add_argument("--preset", choices=bench_mod.PRESET_NAMES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact", action="store_true", help="noiseless simulation")
    p.add_argument("--n0-grid", default="1000,10000,100000,1000000")
    p.add_argument("--trials", type=int, default=50)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _print_config(args, args.quiet)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegeneracyError as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
