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
    _eigh,
    load_ensemble,
    load_state,
    maximally_entangled,
    random_density,
    save_ensemble,
    save_state,
    StateFormatError,
)
from .entropy import (
    EntropyReport,
    decoupling_accuracy,
    guessing_probability,
    key_secrecy,
    max_entropy,
    max_target_fidelity,
    min_entropy,
    singlet_fraction,
)
from .sdp import SolverError

__all__ = ["main", "run"]


def _int_from(low: int, kind: str):
    """An argument type for integers of at least low, rejected at parse time under the flag's name."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
        return value

    return parse


# numpy's generators take only non-negative seeds
_SEED = ("--seed", {"type": _int_from(0, "non-negative"), "default": 0})
_TRIALS = ("--trials", {"type": _int_from(1, "positive"), "help": "override per-criterion trial counts"})
_STATE = ("--input", {"required": True, "help": "bipartite state file"})

# input kind: the verb's arguments after --format
_INPUTS = {
    "state": (_STATE,),
    "ensemble": (("--input", {"required": True, "help": "cq ensemble file"}),),
    "state and target": (
        _STATE,
        ("--target", {"required": True, "help": "pure target state file (projector)"}),
    ),
    "library": (("--input", {"default": ".", "help": "output directory for the library"}), _SEED),
    "checks": (_SEED, _TRIALS),
}


def _entropy(rep: EntropyReport, sign: float) -> dict:
    """An entropy report led by its bits and its value 2^(sign * bits).

    primal_value is the sigma-side bound tr(sigma) and dual_value the
    E-side bound tr(rho E), the min{tr sigma : id (x) sigma >= rho} view.
    """
    sol = rep.certificate
    return {
        "quantity": rep.quantity,
        "value_bits": rep.value_bits,
        "value": 2.0 ** (sign * rep.value_bits),
        "gap": rep.gap,
        "primal_value": -sol.dual_value,
        "dual_value": -sol.primal_value,
        "status": sol.status,
    }


def _bits(quantity: str, value: float, sign: float) -> dict:
    return {"quantity": quantity, "value": value, "value_bits": sign * math.log2(value)}


def _load_target(path: str, d_a: int) -> PureState:
    proj = load_state(path)
    w, v = _eigh(proj.mat)
    if proj.d_A != d_a or proj.d_B != d_a:
        exc = StateFormatError(f"target must have d_A = d_B = {d_a}, got {proj.d_A} x {proj.d_B}")
    elif w[-1] < 1.0 - 1e-9:
        exc = StateFormatError(f"target is not pure (largest eigenvalue {w[-1]!r})")
    else:
        return PureState(v[:, -1])
    exc.filename = path  # reported under its path, as core's loaders do
    raise exc


def _qcorr(args: argparse.Namespace) -> dict:
    value, cert = singlet_fraction(load_state(args.input))
    return {
        **_bits("singlet_fraction", value, -1.0),
        "achieved_overlap": cert.achieved_overlap,
        "predicted_overlap": cert.predicted,
    }


def _fidmax(args: argparse.Namespace) -> dict:
    state = load_state(args.input)
    target = _load_target(args.target, state.d_A)
    return {"quantity": "max_target_fidelity", "value": max_target_fidelity(state, target)}


def _gen(args: argparse.Namespace) -> dict:
    tau2 = np.eye(2) / 2.0
    ket0 = DensityOperator.from_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    ketp = DensityOperator.from_matrix(np.full((2, 2), 0.5))
    amp = np.zeros(4, dtype=complex)
    amp[0], amp[3] = math.sqrt(0.7), math.sqrt(0.3)
    # each random state has its own key (seed, k), k = 0..4, all of one length: numpy's
    # SeedSequence reads (s, k) and (s, k, 0) as one seed
    cq_states = (random_density(2, (args.seed, 3)), random_density(2, (args.seed, 4)))
    library = [
        *(
            (f"phi{d}.json", BipartiteState(DensityOperator(maximally_entangled(d).projector()), d, d))
            for d in (2, 3, 4)
        ),
        ("product_2x2.json", BipartiteState(DensityOperator.from_matrix(np.kron(tau2, tau2)), 2, 2)),
        ("helstrom.json", CqEnsemble(np.array([0.5, 0.5]), (ket0, ketp))),
        *(
            (f"random_{d_a}x{d_b}.json", BipartiteState(random_density(d_a * d_b, (args.seed, k)), d_a, d_b))
            for k, (d_a, d_b) in enumerate(((2, 2), (2, 3), (3, 3)))
        ),
        ("cq_random_2x2.json", CqEnsemble(np.array([0.3, 0.7]), cq_states)),
        ("target_2.json", BipartiteState(DensityOperator(PureState(amp).projector()), 2, 2)),
    ]
    os.makedirs(args.input, exist_ok=True)
    written = []
    for name, item in library:
        path = os.path.join(args.input, name)
        (save_ensemble if isinstance(item, CqEnsemble) else save_state)(item, path)
        written.append(path)
    return {"written": sorted(written)}


def _verify(args: argparse.Namespace) -> dict:
    results = verify_mod.run_all(seed=args.seed, trials=args.trials)
    keys = ("quantity", "oracle_value", "main_value", "gap", "tolerance", "method", "passed")
    criteria = [
        {
            "index": r.index,
            "title": r.title,
            "passed": r.passed,
            "checks": [{key: getattr(c, key) for key in keys} for c in r.reports],
        }
        for r in results
    ]
    return {"criteria": criteria, "all_passed": all(r.passed for r in results)}


# verb: (help text, input kind, parsed arguments -> output object); each call reads
# the module's bindings when it runs, so a binding patched from outside is the one used
_VERBS = {
    "hmin": ("min-entropy of A conditioned on B", "state",
             lambda args: _entropy(min_entropy(load_state(args.input)), -1.0)),
    "hmax": ("max-entropy of A conditioned on B", "state",
             lambda args: _entropy(max_entropy(load_state(args.input)), 1.0)),
    "qcorr": ("maximal singlet fraction with recovery channel", "state", _qcorr),
    "qdecpl": ("decoupling accuracy", "state",
               lambda args: _bits("decoupling_accuracy", decoupling_accuracy(load_state(args.input))[0], 1.0)),
    "pguess": ("optimal guessing probability of X from B", "ensemble",
               lambda args: _bits("guessing_probability", guessing_probability(load_ensemble(args.input))[0], -1.0)),
    "psecr": ("key secrecy of X relative to B", "ensemble",
              lambda args: _bits("key_secrecy", key_secrecy(load_ensemble(args.input)), 1.0)),
    "fidmax": ("best channel fidelity with a pure target on A (x) A'", "state and target", _fidmax),
    "gen": ("write the named state library", "library", _gen),
    "verify": ("run the acceptance checks against their oracles", "checks", _verify),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minmaxent",
        description="Single-shot conditional min/max-entropies via semidefinite programming.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (help_text, kind, _) in _VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--format", choices=("text", "json"), default="text")
        for flag, options in _INPUTS[kind]:
            p.add_argument(flag, **options)
    return parser


def _print_text(kind: str, obj: dict) -> None:
    """Text mode: the written paths, the table of checks, or one line per field."""
    if kind == "library":
        for path in obj["written"]:
            print(path)
    elif kind == "checks":
        for r in obj["criteria"]:
            for c in r["checks"]:
                flag = "ok " if c["passed"] else "FAIL"
                print(
                    f"  [{flag}] {c['quantity']:<28s} main={c['main_value']: .9f} "
                    f"oracle={c['oracle_value']: .9f} gap={c['gap']:.3e} tol={c['tolerance']:.1e} "
                    f"({c['method']})"
                )
            print(f"criterion {r['index']:02d}  {r['title']:<52s} {'PASS' if r['passed'] else 'FAIL'}")
        print(f"overall: {'PASS' if obj['all_passed'] else 'FAIL'}")
    else:
        for key, val in obj.items():
            print(f"{key} = {val:.6f}" if isinstance(val, float) else f"{key} = {val}")


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, dispatch, and return the process exit code."""
    args = _build_parser().parse_args(argv)
    _, kind, compute = _VERBS[args.verb]
    try:
        obj = compute(args)
    except json.JSONDecodeError as exc:  # core's loaders name the file that failed to parse
        print(f"{exc.filename}:{exc.lineno}:{exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    except OSError as exc:
        reason = "file not found" if isinstance(exc, FileNotFoundError) else exc.strerror
        print(f"{exc.filename}: {reason}", file=sys.stderr)
        return 2
    except (SolverError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError but is a numerical failure
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except (StateFormatError, ValueError) as exc:  # core's loaders name the file a StateFormatError is in
        print(f"{getattr(exc, 'filename', None) or 'error'}: {exc}", file=sys.stderr)
        return 2
    try:
        if args.format == "json":
            print(json.dumps(obj))
        else:
            _print_text(kind, obj)
        sys.stdout.flush()
    except BrokenPipeError as exc:  # stdout is unwritable; devnull keeps the final flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"<stdout>: {exc.strerror}", file=sys.stderr)
        return 2
    return 0 if obj.get("all_passed", True) else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
