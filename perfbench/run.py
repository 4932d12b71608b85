"""minmaxent benchmark: latency, throughput and failures of certified solves.

Run from the root of a source checkout (it imports ./src, nothing installed):

    python3 perfbench/run.py --workload minent-batch --seed 1 --seconds 35 --trace 0

Each workload is a fixed cycle of operations drawn from --seed and run as a
closed loop from one process: whole cycles repeat while the next one is
expected to end within --seconds (at least one).  Every output is checked
after its cycle, outside the timed region.  The last line of standard
output is one JSON object with keys correct, attempted, failed and metrics;
the line before it records the 90th percentile, the environment and the
sample counts.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes over the same cycle and reports the per-layer metrics
of the traced passes, with the tracing overhead as the traced wall time
minus the untraced one.  perfbench/README.md lists every metric.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

WORKLOADS = ("minent-batch", "hmax-purified", "cli-verbs")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
CLI_TIMEOUT_S = 150
HERE = os.path.dirname(os.path.abspath(__file__))

BLAS_QUERY = """
import ctypes, glob, json, os
import numpy, scipy
out = {}
for mod, getter in ((numpy, "scipy_openblas_get_num_threads64_"), (scipy, "scipy_openblas_get_num_threads")):
    entry = {"threads": None}
    try:
        entry["version"] = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        entry["version"] = None
    for lib in glob.glob(os.path.join(os.path.dirname(mod.__file__), os.pardir, mod.__name__ + ".libs", "*openblas*")):
        try:
            entry["threads"] = int(getattr(ctypes.CDLL(lib), getter)())
        except (OSError, AttributeError):
            pass
    out[mod.__name__] = entry
print(json.dumps(out))
"""


def parse_args(argv: list) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Bench:
    """One benchmark process: set-up, cycles, checks and the report.

    cli_env is the environment of minmaxent child processes: the caller's
    own, so they get the shell's BLAS threads, plus PYTHONPATH=src.
    """

    def __init__(self, args: argparse.Namespace, root: str, cli_env: dict) -> None:
        self.args = args
        self.root = root
        self.cli_env = cli_env
        self.is_cli = args.workload == "cli-verbs"
        self.out_dir = os.path.join(root, ".perfbench")
        self.work = os.path.join(self.out_dir, f"work-{args.workload}-{args.seed}-{os.getpid()}")
        self.op_seconds, self.failures, self.cycle_rates = [], [], []
        self.passed = self.incorrect = self.cycles = 0
        self.steal_frac = None

    # -- set-up ------------------------------------------------------------

    def setup(self) -> float:
        """Import, generate inputs and warm up; returns seconds since process start."""
        import workloads

        os.makedirs(self.work, exist_ok=True)
        if self.is_cli:
            self.ops = workloads.cli_setup(self.root, self.work, self.args.seed, self.cli_env)
        else:
            import minmaxent

            src = os.path.realpath(os.path.join(self.root, "src", "minmaxent"))
            if os.path.dirname(os.path.realpath(minmaxent.__file__)) != src:
                raise RuntimeError(f"imported minmaxent from {minmaxent.__file__}, not {src}")
            self.ops = workloads.API_WORKLOADS[self.args.workload](minmaxent, self.args.seed)
            for op in workloads.api_warmup(minmaxent):
                reason = op.check(op.fn(*op.args))
                if reason:
                    raise RuntimeError(f"warm-up {op.label}: {reason}")
        return time.perf_counter() - T_START

    def probe_setup(self) -> float:
        """Set-up time of a fresh process running the same set-up."""
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--seconds", str(self.args.seconds), "--setup-probe"]
        proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])

    # -- operations ----------------------------------------------------------

    def execute(self, i: int, op, tracer) -> tuple:
        """Run one operation; returns (result, error) with error None on success."""
        if not self.is_cli:
            try:
                if tracer is None:
                    return op.fn(*op.args), None
                tracer.op = i
                return tracer.call(op.kind, op.fn, *op.args), None
            except Exception as exc:  # every failure is counted, the run goes on
                return None, f"{type(exc).__name__}: {exc}"
        if tracer is None:
            cmd = [sys.executable, "-m", "minmaxent.cli"] + op.argv
        else:
            spans = os.path.join(self.work, "child-spans.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), spans] + op.argv
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.cli_env,
                                  capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {CLI_TIMEOUT_S} s"
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            return None, f"exit {proc.returncode}: {last[:200]}"
        return proc.stdout, None

    def _child_spans(self, tracer, i: int) -> None:
        path = os.path.join(self.work, "child-spans.json")
        if not os.path.isfile(path):
            return
        with open(path, encoding="utf-8") as fh:
            spans = json.load(fh)
        os.remove(path)
        base = len(tracer.spans)
        for rec in spans:
            rec["op"] = i
            if rec["parent"] is not None:
                rec["parent"] += base
        tracer.spans.extend(spans)

    def run_cycle(self, tracer=None) -> tuple:
        """One pass over the cycle; returns (wall seconds, records)."""
        records = []
        t_cycle = time.perf_counter()
        for i, op in enumerate(self.ops):
            t0 = time.perf_counter()
            result, error = self.execute(i, op, tracer)
            t1 = time.perf_counter()
            records.append((op, t1 - t0, result, error))
            if tracer is not None:
                if self.is_cli:
                    tracer.op = i
                    tracer.add("op." + op.kind, t0, t1)
                    self._child_spans(tracer, i)
                else:
                    tracer.check_solves()
        return time.perf_counter() - t_cycle, records

    def check(self, records: list) -> int:
        """Check outputs outside the timed region; tally and return the passes."""
        passed = self.passed
        for op, seconds, result, error in records:
            self.op_seconds.append(seconds)
            if error is None:
                reason = op.check(result)
                if reason:
                    self.incorrect += 1
                    error = f"wrong output: {reason}"
            if error is None:
                self.passed += 1
            else:
                self.failures.append({"op": op.label, "error": error[:300]})
        return self.passed - passed

    # -- the two kinds of run ------------------------------------------------

    def timed_run(self) -> float:
        """Untraced cycles while the next is expected to fit; returns timed wall seconds."""
        timed = 0.0
        ticks = _cpu_ticks()
        while True:
            wall, records = self.run_cycle()
            timed += wall
            self.cycles += 1
            self.cycle_rates.append(self.check(records) / wall)
            if timed + wall > self.args.seconds:
                break
        if ticks is not None:
            steal, total = (b - a for a, b in zip(ticks, _cpu_ticks()))
            self.steal_frac = steal / total if total else 0.0
        return timed

    def traced_run(self) -> dict:
        """Pairs of untraced and traced cycles; returns the per-layer metrics."""
        import tracing

        per_cycle = []
        self.all_spans = []
        timed = 0.0
        while True:
            u_wall, u_records = self.run_cycle()
            self.check(u_records)
            tracer = tracing.Tracer()
            if not self.is_cli:
                tracer.install()
            try:
                t_wall, t_records = self.run_cycle(tracer)
            finally:
                tracer.uninstall()
            self.check(t_records)
            self.cycles += 2
            ops_s = sum(r[1] for r in t_records)
            layer = tracing.cycle_metrics(tracer.spans, ops_s)
            layer["trace.overhead_s"] = (t_wall - layer["sdp.check_s"]) - u_wall
            per_cycle.append(layer)
            self.all_spans.extend(tracer.spans)
            timed += u_wall + t_wall
            if timed + u_wall + t_wall > self.args.seconds:
                break
        metrics = tracing.merge_cycles(per_cycle)
        metrics.update(self.import_probe())
        return {k: {"value": v, "unit": tracing.LAYER_METRICS[k][0]} for k, v in metrics.items()}

    def import_probe(self) -> dict:
        """Median over fresh processes of importing minmaxent.cli and, within it, minmaxent.oracles."""
        code = "import time; t = time.perf_counter(); import minmaxent.cli; print(time.perf_counter() - t)"
        total, oracles = [], []
        for _ in range(SETUP_SAMPLES):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=self.root,
                                  env=self.cli_env, capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-300:]}")
            total.append(float(proc.stdout.strip().splitlines()[-1]))
            for line in proc.stderr.splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[2].strip() == "minmaxent.oracles":
                    oracles.append(int(parts[1]) / 1e6)
        return {
            "cli.import_s": statistics.median(total),
            "cli.import_oracles_s": statistics.median(oracles) if oracles else 0.0,
        }

    # -- report --------------------------------------------------------------

    def end_to_end(self, timed: float, setup: list) -> tuple:
        """(metrics, extra): the reported metrics and the figures that qualify them."""
        p90 = statistics.quantiles(self.op_seconds, n=10, method="inclusive")[8]
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if self.is_cli else resource.RUSAGE_SELF)
        metrics = {
            "op_s.p50": {"value": statistics.median(self.op_seconds), "unit": "s"},
            # the median over cycles, so a burst of host load within one
            # cycle does not move it
            "ops_per_s": {"value": statistics.median(self.cycle_rates), "unit": "1/s"},
            "passed_frac": {"value": self.passed / len(self.op_seconds), "unit": "fraction"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": usage.ru_maxrss * 1024 / 1e6, "unit": "MB"},
        }
        extra = {
            # reported here, not gated: most workloads leave fewer than ten
            # samples above it in one run
            "op_s.p90": {"value": p90, "unit": "s"},
            "op_samples": len(self.op_seconds),
            "op_samples_above_p90": sum(1 for s in self.op_seconds if s > p90),
            "timed_s": timed,
            "cycle_ops_per_s": self.cycle_rates,
            "setup_samples_s": setup,
            "host_steal_frac": self.steal_frac,
        }
        return metrics, extra

    def run(self) -> dict:
        setup = [self.setup()]
        if self.args.trace:
            metrics, extra = self.traced_run(), {}
        else:
            setup += [self.probe_setup() for _ in range(SETUP_SAMPLES - 1)]
            metrics, extra = self.end_to_end(self.timed_run(), setup)
        attempted = len(self.op_seconds)
        detail = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "trace": self.args.trace,
            "cycles": self.cycles,
            "cycle_ops": len(self.ops),
            "failed_frac": (attempted - self.passed) / attempted,
            "failures": self.failures[:20],
            **extra,
            "env": self.environment(),
        }
        result = {
            "correct": self.incorrect == 0,
            "attempted": attempted,
            "failed": attempted - self.passed,
            "metrics": metrics,
        }
        name = f"{self.args.workload}-{self.args.seed}-trace{self.args.trace}.json"
        with open(os.path.join(self.out_dir, "result-" + name), "w", encoding="utf-8") as fh:
            json.dump({"detail": detail, "result": result}, fh, indent=1)
        if self.args.trace:
            with open(os.path.join(self.out_dir, "spans-" + name), "w", encoding="utf-8") as fh:
                json.dump(self.all_spans, fh)
        print(json.dumps(detail))
        return result

    def environment(self) -> dict:
        import numpy
        import scipy

        # the BLAS build and threads of the processes that run the library
        env = self.cli_env if self.is_cli else os.environ
        proc = subprocess.run([sys.executable, "-c", BLAS_QUERY], cwd=self.root, env=env,
                              capture_output=True, text=True, timeout=60)
        return {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": json.loads(proc.stdout) if proc.returncode == 0 else None,
            "blas_threads_env": {v: env.get(v) for v in BLAS_THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg()),
            "seed": self.args.seed,
            "git_commit": _git_commit(self.root),
            "platform": platform.platform(),
        }


def _cpu_ticks() -> tuple | None:
    """(steal, total) clock ticks of all CPUs from /proc/stat, where it exists.

    Steal is time the host ran something else on this machine's CPUs; its
    share over the timed region explains runs that read slow.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) == 8 else 0), sum(fields)


def _git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def main(argv: list | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "minmaxent", "__init__.py")):
        print("error: src/minmaxent not found; run from the root of a minmaxent checkout", file=sys.stderr)
        return 2
    src = os.path.join(root, "src")
    cli_env = dict(os.environ)
    cli_env["PYTHONPATH"] = src + (os.pathsep + cli_env["PYTHONPATH"] if cli_env.get("PYTHONPATH") else "")
    # this process runs BLAS on one thread; minmaxent child processes keep
    # the caller's setting
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(1, src)
    bench = Bench(args, root, cli_env)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": bench.setup()}))
            return 0
        result = bench.run()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
