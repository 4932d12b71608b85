"""Batch command line front end.

Verbs: hmin, hmax, qcorr, qdecpl (bipartite state files), pguess, psecr
(cq ensemble files), fidmax (state plus pure target file), gen (write the
named state library), verify (run the acceptance checks).  Text mode
prints values in bits with six decimal places; JSON mode emits exactly
one object at full precision.  Exit codes: 0 success, 1 solver failure
or failed verification, 2 input or validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import verify as verify_mod
from .core import (
    BipartiteState,
    CqEnsemble,
    DensityOperator,
    PureState,
    load_ensemble,
    load_state,
    maximally_entangled,
    random_density,
    save_ensemble,
    save_state,
    StateFormatError,
)
from .entropy import (
    decoupling_accuracy,
    guessing_probability,
    key_secrecy,
    max_entropy,
    max_target_fidelity,
    min_entropy,
    report_to_json,
    singlet_fraction,
)
from .sdp import SolverError

__all__ = ["main", "run"]

_STATE_VERBS = ("hmin", "hmax", "qcorr", "qdecpl")
_ENSEMBLE_VERBS = ("pguess", "psecr")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minmaxent",
        description="Single-shot conditional min/max-entropies via semidefinite programming.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    for verb, text in (
        ("hmin", "min-entropy of A conditioned on B"),
        ("hmax", "max-entropy of A conditioned on B"),
        ("qcorr", "maximal singlet fraction with recovery channel"),
        ("qdecpl", "decoupling accuracy"),
    ):
        p = add(verb, text)
        p.add_argument("--input", required=True, help="bipartite state file")
    for verb, text in (
        ("pguess", "optimal guessing probability of X from B"),
        ("psecr", "key secrecy of X relative to B"),
    ):
        p = add(verb, text)
        p.add_argument("--input", required=True, help="cq ensemble file")
    p = add("fidmax", "best channel fidelity with a pure target on A (x) A'")
    p.add_argument("--input", required=True, help="bipartite state file")
    p.add_argument("--target", required=True, help="pure target state file (projector)")
    p = add("gen", "write the named state library")
    p.add_argument("--input", default=".", help="output directory for the library")
    p.add_argument("--seed", type=int, default=0)
    p = add("verify", "run the acceptance checks against their oracles")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None, help="override per-criterion trial counts")
    p.add_argument("--tol", type=float, default=None, help="override per-check tolerances")
    return parser


def _emit(args: argparse.Namespace, obj: dict) -> None:
    if args.format == "json":
        print(json.dumps(obj))
        return
    for key, val in obj.items():
        if isinstance(val, float):
            print(f"{key} = {val:.6f}")
        else:
            print(f"{key} = {val}")


def _load_target(path: str, d_a: int) -> PureState:
    proj = load_state(path)
    if proj.d_A != d_a or proj.d_B != d_a:
        raise StateFormatError(
            f"target must have d_A = d_B = {d_a}, got {proj.d_A} x {proj.d_B}"
        )
    w, v = np.linalg.eigh(proj.mat)
    if w[-1] < 1.0 - 1e-9:
        raise StateFormatError(f"target is not pure (largest eigenvalue {w[-1]!r})")
    return PureState(v[:, -1])


def _cmd_state(args: argparse.Namespace) -> int:
    state = load_state(args.input)
    if args.verb in ("hmin", "hmax"):
        rep = min_entropy(state) if args.verb == "hmin" else max_entropy(state)
        fields = json.loads(report_to_json(rep))
        value = 2.0 ** (-rep.value_bits) if args.verb == "hmin" else 2.0**rep.value_bits
        # keys repeated from the report keep their first position
        _emit(args, {"quantity": rep.quantity, "value_bits": rep.value_bits, "value": value, **fields})
    elif args.verb == "qcorr":
        value, cert = singlet_fraction(state)
        _emit(
            args,
            {
                "quantity": "singlet_fraction",
                "value": value,
                "value_bits": -math.log2(value),
                "achieved_overlap": cert.achieved_overlap,
                "predicted_overlap": cert.predicted,
            },
        )
    else:
        value, _ = decoupling_accuracy(state)
        _emit(
            args,
            {
                "quantity": "decoupling_accuracy",
                "value": value,
                "value_bits": math.log2(value),
            },
        )
    return 0


def _cmd_ensemble(args: argparse.Namespace) -> int:
    ens = load_ensemble(args.input)
    if args.verb == "pguess":
        value, _ = guessing_probability(ens)
        _emit(
            args,
            {
                "quantity": "guessing_probability",
                "value": value,
                "value_bits": -math.log2(value),
            },
        )
    else:
        value = key_secrecy(ens)
        _emit(
            args,
            {"quantity": "key_secrecy", "value": value, "value_bits": math.log2(value)},
        )
    return 0


def _cmd_fidmax(args: argparse.Namespace) -> int:
    state = load_state(args.input)
    target = _load_target(args.target, state.d_A)
    value = max_target_fidelity(state, target)
    _emit(args, {"quantity": "max_target_fidelity", "value": value})
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    outdir = args.input
    os.makedirs(outdir, exist_ok=True)
    written: list[str] = []

    def put_state(name: str, state: BipartiteState) -> None:
        path = os.path.join(outdir, name)
        save_state(state, path)
        written.append(path)

    def put_ensemble(name: str, ens: CqEnsemble) -> None:
        path = os.path.join(outdir, name)
        save_ensemble(ens, path)
        written.append(path)

    for d in (2, 3, 4):
        phi = maximally_entangled(d)
        put_state(f"phi{d}.json", BipartiteState(DensityOperator(phi.projector()), d, d))
    tau2 = np.eye(2) / 2.0
    put_state(
        "product_2x2.json",
        BipartiteState(DensityOperator.from_matrix(np.kron(tau2, tau2)), 2, 2),
    )
    ket0 = DensityOperator.from_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    ketp = DensityOperator.from_matrix(np.full((2, 2), 0.5))
    put_ensemble("helstrom.json", CqEnsemble(np.array([0.5, 0.5]), (ket0, ketp)))
    for d_a, d_b in ((2, 2), (2, 3), (3, 3)):
        put_state(
            f"random_{d_a}x{d_b}.json",
            BipartiteState(random_density(d_a * d_b, args.seed), d_a, d_b),
        )
    rng_probs = np.array([0.3, 0.7])
    put_ensemble(
        "cq_random_2x2.json",
        CqEnsemble(
            rng_probs,
            (random_density(2, args.seed + 1), random_density(2, args.seed + 2)),
        ),
    )
    amp = np.zeros(4, dtype=complex)
    amp[0], amp[3] = math.sqrt(0.7), math.sqrt(0.3)
    put_state(
        "target_2.json", BipartiteState(DensityOperator(PureState(amp).projector()), 2, 2)
    )

    if args.format == "json":
        print(json.dumps({"written": sorted(written)}))
    else:
        for path in sorted(written):
            print(path)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = verify_mod.run_all(seed=args.seed, trials=args.trials, tol=args.tol)
    all_passed = all(r.passed for r in results)
    if args.format == "json":
        obj = {
            "criteria": [
                {
                    "index": r.index,
                    "title": r.title,
                    "passed": r.passed,
                    "checks": [
                        {
                            "quantity": c.quantity,
                            "oracle_value": c.oracle_value,
                            "main_value": c.main_value,
                            "gap": c.gap,
                            "tolerance": c.tolerance,
                            "method": c.method,
                            "passed": c.passed,
                        }
                        for c in r.reports
                    ],
                }
                for r in results
            ],
            "all_passed": all_passed,
        }
        print(json.dumps(obj))
    else:
        for r in results:
            for c in r.reports:
                flag = "ok " if c.passed else "FAIL"
                print(
                    f"  [{flag}] {c.quantity:<28s} main={c.main_value: .9f} "
                    f"oracle={c.oracle_value: .9f} gap={c.gap:.3e} tol={c.tolerance:.1e} "
                    f"({c.method})"
                )
            print(f"criterion {r.index:02d}  {r.title:<52s} {'PASS' if r.passed else 'FAIL'}")
        print(f"overall: {'PASS' if all_passed else 'FAIL'}")
    return 0 if all_passed else 1


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, dispatch, and return the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb in _STATE_VERBS:
            return _cmd_state(args)
        if args.verb in _ENSEMBLE_VERBS:
            return _cmd_ensemble(args)
        if args.verb == "fidmax":
            return _cmd_fidmax(args)
        if args.verb == "gen":
            return _cmd_gen(args)
        return _cmd_verify(args)
    except json.JSONDecodeError as exc:
        path = getattr(args, "input", "<input>")
        print(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"{exc.filename}: file not found", file=sys.stderr)
        return 2
    except (SolverError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError but is a numerical failure
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except (StateFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
