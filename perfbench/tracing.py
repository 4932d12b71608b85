"""Spans around calls into minmaxent's modules, recorded from outside the library.

A span is (name, start, end, parent, op): the parent is the index of the
enclosing span and op the operation that caused it.  Calls are wrapped at
the binding the caller looks up (minmaxent.sdp.solve for entropy and
oracles, minmaxent.cli.load_state for the CLI, ...), so the library runs
unmodified.  Spans stay in memory until dump() writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from typing import Any, Callable

IO_FUNCTIONS = ("load_state", "load_ensemble", "save_state", "save_ensemble")


def schur_gflop(n: int, m: int) -> float:
    """Computed flops of one dense Schur assembly plus factorization, N = 2n.

    W A_i W for all i costs 4 m N^3, the m x m products 2 m^2 N^2 and the
    Cholesky factorization m^3 / 3.
    """
    big_n = 2 * n
    return (4.0 * m * big_n**3 + 2.0 * m * m * big_n**2 + m**3 / 3.0) / 1e9


def constraint_mb(n: int, m: int) -> float:
    """Computed size of the dense embedded constraint stack, m (2n)^2 doubles."""
    return m * (2 * n) ** 2 * 8 / 1e6


class Tracer:
    """Records spans and the (problem, solution) pair of every SDP solve."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._solves: list[tuple[Any, Any]] = []

    def _begin(self, name: str) -> dict:
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        return rec

    def _end(self, rec: dict, error: BaseException | None = None) -> None:
        rec["end"] = time.perf_counter()
        self._stack.pop()
        if error is not None:
            rec["error"] = type(error).__name__

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run fn inside a span called name."""
        rec = self._begin(name)
        if name == "sdp.solve":
            problem = args[0] if args else kwargs["problem"]
            rec.update(n=problem.dim, m=problem.n_constraints)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            self._end(rec, exc)
            raise
        self._end(rec)
        if name == "sdp.solve":
            rec.update(iterations=out.iterations, status=out.status)
            self._solves.append((problem, out))
        elif name == "sdp.build":
            rec.update(n=out.dim, m=out.n_constraints)
        return out

    def add(self, name: str, start: float, end: float, **attrs: Any) -> None:
        self.spans.append({"name": name, "start": start, "end": end, "parent": None, "op": self.op, **attrs})

    def patch(self, module: Any, attr: str, name: str) -> None:
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, orig, *args, **kwargs)

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, orig))

    def install(self) -> None:
        """Wrap every binding through which minmaxent's layers call each other."""
        sdp = sys.modules["minmaxent.sdp"]
        entropy = sys.modules["minmaxent.entropy"]
        self.patch(sdp, "solve", "sdp.solve")
        self.patch(sdp, "HermitianSdp", "sdp.build")
        self.patch(entropy, "adjoint_channel", "channels.adjoint_channel")
        self.patch(entropy, "purify", "core.purify")
        layers = [("core", IO_FUNCTIONS)]
        for layer in ("entropy", "oracles"):
            mod = sys.modules[f"minmaxent.{layer}"]
            layers.append((layer, [n for n in mod.__all__ if inspect.isfunction(getattr(mod, n))]))
        for caller in ("minmaxent.cli", "minmaxent.verify"):
            mod = sys.modules.get(caller)
            if mod is None:
                continue
            for layer, names in layers:
                for fn in names:
                    if hasattr(mod, fn):
                        self.patch(mod, fn, f"{layer}.{fn}")
        if "minmaxent.cli" in sys.modules:
            # psecr imports key_secrecy from the entropy module at call time
            self.patch(entropy, "key_secrecy", "entropy.key_secrecy")
        verify = sys.modules.get("minmaxent.verify")
        if verify is not None:
            wrapped = []
            for idx, title, trials, func in verify.CRITERIA:
                wrapped.append((idx, title, trials, functools.partial(self.call, f"verify.criterion.{idx:02d}", func)))
            self._patches.append((verify, "CRITERIA", verify.CRITERIA))
            verify.CRITERIA = wrapped

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    def check_solves(self) -> None:
        """check_certificate on every solve captured since the last call, each in a span."""
        from minmaxent.sdp import check_certificate

        solves, self._solves = self._solves, []
        for problem, sol in solves:
            rec = self._begin("sdp.check")
            rep = check_certificate(problem, sol)
            self._end(rec)
            rec["cert_ok"] = certificate_ok(rep)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def certificate_ok(rep: Any) -> bool:
    """Residuals recomputed by check_certificate are at solver-tolerance level."""
    scale = 1.0 + abs(rep.primal_value) + abs(rep.dual_value)
    return (
        rep.constraint_residual <= 1e-6
        and rep.dual_residual <= 1e-6
        and rep.min_eig_X >= -1e-6
        and rep.min_eig_Z >= -1e-6
        and abs(rep.gap) <= 1e-6 * scale
        and rep.value_mismatch <= 1e-6 * scale
        and rep.weak_duality_violation <= 1e-6 * scale
    )


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            child[rec["parent"]] += rec["end"] - rec["start"]
    return [rec["end"] - rec["start"] - c for rec, c in zip(spans, child)]


CRITERIA = tuple(f"{i:02d}" for i in range(1, 11))

# name -> (unit, better); the order is the order of the report
LAYER_METRICS = {
    "sdp.solve_calls": ("count", "lower"),
    "sdp.iterations": ("count", "lower"),
    "sdp.n_max": ("count", "lower"),
    "sdp.m_max": ("count", "lower"),
    "sdp.schur_gflop_computed": ("GFLOP", "lower"),
    "sdp.constraint_mb_computed": ("MB", "lower"),
    "sdp.solve_s": ("s", "lower"),
    "sdp.solve_share": ("fraction", "lower"),
    "sdp.s_per_iter": ("s", "lower"),
    "sdp.gflop_per_s": ("GFLOP/s", "higher"),
    "sdp.build_s": ("s", "lower"),
    "sdp.check_s": ("s", "lower"),
    "sdp.cert_fail": ("count", "lower"),
    "sdp.nonoptimal": ("count", "lower"),
    "sdp.linalg_errors": ("count", "lower"),
    "entropy.self_s": ("s", "lower"),
    "channels.s": ("s", "lower"),
    "core.purify_s": ("s", "lower"),
    "core.io_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.import_oracles_s": ("s", "lower"),
    "cli.run_s": ("s", "lower"),
    "oracles.s": ("s", "lower"),
    "oracles.calls": ("count", "lower"),
    **{f"verify.criterion_s.{c}": ("s", "lower") for c in CRITERIA},
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

COUNTERS = (
    "sdp.solve_calls",
    "sdp.iterations",
    "sdp.n_max",
    "sdp.m_max",
    "sdp.schur_gflop_computed",
    "sdp.constraint_mb_computed",
)


def cycle_metrics(spans: list[dict], op_seconds: float) -> dict[str, float]:
    """Per-layer totals over the spans of one traced cycle.

    op_seconds is the summed wall time of the cycle's operations, the base
    of sdp.solve_share.
    """
    own = self_times(spans)
    finished_s = 0.0
    out = {name: 0.0 for name in LAYER_METRICS}
    for k in ("sdp.solve_calls", "sdp.iterations", "sdp.n_max", "sdp.m_max", "sdp.cert_fail", "sdp.nonoptimal", "sdp.linalg_errors", "oracles.calls", "trace.spans"):
        out[k] = 0
    for rec, self_s in zip(spans, own):
        name = rec["name"]
        dur = rec["end"] - rec["start"]
        out["trace.spans"] += 1
        if name == "sdp.solve":
            out["sdp.solve_calls"] += 1
            out["sdp.solve_s"] += dur
            if rec.get("error") == "LinAlgError":
                out["sdp.linalg_errors"] += 1
            n, m = rec["n"], rec["m"]
            out["sdp.n_max"] = max(out["sdp.n_max"], n)
            out["sdp.m_max"] = max(out["sdp.m_max"], m)
            out["sdp.constraint_mb_computed"] = max(out["sdp.constraint_mb_computed"], constraint_mb(n, m))
            if "iterations" in rec:
                finished_s += dur
                out["sdp.iterations"] += rec["iterations"]
                out["sdp.schur_gflop_computed"] += rec["iterations"] * schur_gflop(n, m)
                if rec["status"] != "optimal":
                    out["sdp.nonoptimal"] += 1
        elif name == "sdp.build":
            out["sdp.build_s"] += dur
            if "m" in rec:
                out["sdp.n_max"] = max(out["sdp.n_max"], rec["n"])
                out["sdp.m_max"] = max(out["sdp.m_max"], rec["m"])
        elif name == "sdp.check":
            out["sdp.check_s"] += dur
            if not rec.get("cert_ok", True):
                out["sdp.cert_fail"] += 1
        elif name.startswith("verify.criterion."):
            out["verify.criterion_s." + name.rsplit(".", 1)[1]] += dur
        elif name == "core.purify":
            out["core.purify_s"] += dur
        elif name.startswith("core."):
            out["core.io_s"] += dur
        elif name == "cli.run":
            out["cli.run_s"] += dur
        elif _layer(name) == "channels":
            out["channels.s"] += dur
        elif _layer(name) == "oracles":
            out["oracles.s"] += dur
            out["oracles.calls"] += 1
        if _layer(name) == "entropy":
            out["entropy.self_s"] += self_s
    # per-iteration rates use only solves that returned, whose iterations are known
    if out["sdp.iterations"]:
        out["sdp.s_per_iter"] = finished_s / out["sdp.iterations"]
    if finished_s > 0.0:
        out["sdp.gflop_per_s"] = out["sdp.schur_gflop_computed"] / finished_s
    if op_seconds > 0.0:
        out["sdp.solve_share"] = out["sdp.solve_s"] / op_seconds
    return out


def merge_cycles(cycles: list[dict[str, float]]) -> dict[str, float]:
    """Counters from the first traced cycle (they repeat exactly); times as the median."""
    merged = {}
    for name in cycles[0]:
        if name in COUNTERS or LAYER_METRICS[name][0] == "count":
            merged[name] = cycles[0][name]
        else:
            merged[name] = statistics.median(c[name] for c in cycles)
    return merged
