"""Benchmark for spinflux.

Usage, from the root of a checkout:

    python3 bench/run.py --workload steady-scan --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --smoke          # every workload, toy size
    python3 bench/run.py --regenerate-reference          # rebuild bench/ref_n8.json

One workload runs per process, on the package under ``src/`` of the checkout
(nothing is installed).  The run repeats the workload's set-up (a fresh
import of spinflux, then the workload's configuration parsing and generator
construction) ``SETUP_REPEATS`` times, runs whole rounds of the workload
until the next round would end after ``--seconds``, checks every output,
repeats the set-up ``SETUP_REPEATS`` times more and prints,
as the last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (median set-up, median round, peak RSS); with
``--trace 1`` the same rounds are run again with spans around the program's
public calls and the metrics are per layer.  ``--workload all`` runs each
workload in a child process of its own.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"
WORKLOADS = ("steady-scan", "ensemble-n3", "ensemble-n8", "compare-n5")
SETUP_REPEATS = 5
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _limit_threads() -> None:
    """One process, one MCWF worker, and no more BLAS threads than cores.
    Must run before numpy is imported."""
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARIABLES:
        try:
            wanted = int(os.environ.get(var, cores))
        except ValueError:
            wanted = cores
        os.environ[var] = str(max(1, min(wanted, cores)))
    os.environ.pop("SPINFLUX_WORKERS", None)


def _prepare_imports() -> None:
    """Put the checkout's sources on the path and import what the harness
    itself needs (numpy, scipy), so the timed imports cover the program's
    own modules only.  Bytecode is never written, so every import compiles
    the same sources."""
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.sparse  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    if not (SRC / "spinflux" / "__init__.py").is_file():
        raise SystemExit(f"spinflux sources not found under {SRC}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))


def _fresh_import():
    """Import spinflux anew, as a new process would, and the workload
    module bound to it; returns (workloads module, seconds the program's
    import took)."""
    for key in [k for k in sys.modules
                if k.split(".")[0] in ("spinflux", "workloads")]:
        del sys.modules[key]
    start = time.perf_counter()
    spinflux = importlib.import_module("spinflux")
    importlib.import_module("spinflux.cli")
    elapsed = time.perf_counter() - start
    if Path(spinflux.__file__).resolve().parent != SRC / "spinflux":
        raise SystemExit(f"imported spinflux from {spinflux.__file__}, not {SRC}")
    return importlib.import_module("workloads"), elapsed


def _set_up(name, smoke, seed, workdir, tracer=None):
    """``SETUP_REPEATS`` complete set-ups, each a fresh import of spinflux
    followed by the workload's own set-up; the last one is kept.  A tracer
    is installed on each fresh import before the workload's set-up runs.
    Returns (workloads module, workload, state, set-up seconds, import
    seconds)."""
    totals, imports = [], []
    for _ in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.uninstall()
        module, import_s = _fresh_import()
        workload = module.make(name, smoke, seed, workdir)
        workload.prepare()
        if tracer is not None:
            tracer.install()
            tracer.phase = "setup"
        start = time.perf_counter()
        state = workload.setup()
        totals.append(import_s + time.perf_counter() - start)
        imports.append(import_s)
    return module, workload, state, totals, imports


def _rounds(workload, state, seconds: float, first: int, count: int | None):
    """Whole rounds: ``count`` of them, or, when ``count`` is None, as many
    as end within ``seconds`` (at least one)."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ops, failed, out = workload.run_round(state, first + len(rounds))
        dt = time.perf_counter() - t0
        rounds.append({"seconds": dt, "ops": ops, "failed": failed, "out": out})
        if count is not None:
            if len(rounds) == count:
                return rounds
        elif time.perf_counter() - start + dt > seconds:
            return rounds


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    _prepare_imports()
    import tracing

    workdir = RUNS_DIR / f"{name}-{os.getpid()}"
    try:
        module, workload, state, setup_times, imports = _set_up(
            name, smoke, seed, workdir)
        rounds = _rounds(workload, state, seconds, 0, 1 if smoke else None)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall_s = statistics.median(r["seconds"] for r in rounds)
        errors = workload.check(state, [r["out"] for r in rounds])
        # More set-ups after the rounds: the host's speed drifts over tens of
        # seconds, and set-ups from both ends of the run see more of it.
        *_, more_setups, more_imports = _set_up(name, smoke, seed, workdir)
        setup_times += more_setups
        imports += more_imports
        summary = {"rounds": [round(r["seconds"], 4) for r in rounds],
                   "setups": [round(s, 5) for s in setup_times],
                   "imports": [round(s, 5) for s in imports]}
        if isinstance(workload, module.Ensemble):
            summary["traj_per_s"] = workload.realizations / wall_s
        if hasattr(workload, "worst_se_multiple"):
            summary["worst_se_multiple"] = round(workload.worst_se_multiple, 3)
        all_rounds = list(rounds)
        if trace:
            tracer = tracing.Tracer()
            try:
                _, workload, state, _, traced_imports = _set_up(
                    name, smoke, seed, workdir, tracer)
                tracer.phase = "round"
                traced = _rounds(workload, state, seconds, len(rounds), len(rounds))
                tracer.phase = "sample"
                workload.jump_sample(state)
            finally:
                tracer.uninstall()
            errors += workload.check(state, [r["out"] for r in traced])
            all_rounds += traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in errors:
        print(f"CHECK FAILED {name}: {message}", file=sys.stderr)
    print(f"{name} seed={seed}: {json.dumps(summary)}", file=sys.stderr)

    if trace:
        traced_wall = statistics.median(r["seconds"] for r in traced)
        metrics = {"spinflux.import_s": (statistics.median(traced_imports), "s")}
        metrics.update(tracer.layer_metrics(SETUP_REPEATS, len(traced)))
        metrics["trace.overhead_s"] = (traced_wall - wall_s, "s")
        tracer.write(RUNS_DIR / f"trace-{name}-seed{seed}.json",
                     {"workload": name, "seed": seed, "setups": SETUP_REPEATS,
                      "rounds": len(traced), "untraced_wall_s": wall_s,
                      "traced_wall_s": traced_wall})
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "correct": not errors,
        "attempted": sum(r["ops"] for r in all_rounds),
        "failed": sum(r["failed"] for r in all_rounds),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def regenerate_reference() -> None:
    """Recompute the cached n=8 exact current curve (about 25 s)."""
    _prepare_imports()
    import reference
    workloads, _ = _fresh_import()

    workload = workloads.make("ensemble-n8", False, 0, RUNS_DIR)
    cfg, gen, obs, times = workload.setup()
    ops = [op.matrix for op in obs.values()]
    workload.cache = None
    reference.save_curve(workloads.N8_CURVE, gen, ops, workload.t_max,
                         workload.points, workload.exact(gen, ops),
                         workloads.N8_COMMAND, workloads.n8_curve_parameters())


def _run_all(args) -> int:
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, check=False)
        code = code or done.returncode
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes and one round: tests the harness in seconds")
    parser.add_argument("--regenerate-reference", action="store_true",
                        help=f"rewrite {BENCH_DIR.name}/ref_n8.json and exit")
    args = parser.parse_args(argv)
    if not args.regenerate_reference and args.workload is None:
        parser.error("--workload is required")

    _limit_threads()
    if args.regenerate_reference:
        regenerate_reference()
        return 0
    if args.workload == "all":
        return _run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
