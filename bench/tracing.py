"""Spans around the public calls into each spinflux module.

A traced run replaces the public entry points of the program with wrappers
that record one span per call: its name, phase (set-up, round or jump
sample), start, end, parent span and a few counts read from the arguments or
the result.  Spans stay in memory and are written out once, at the end of
the run.  Per-layer metrics are self times: a span's duration minus the time
its direct child spans cover.  The counts that a wrapper reads after the call
(a matrix's non-zeros, an artifact directory's size) are charged to the
tracer, never to the parent span.

``spinflux.cli`` and the package namespace bind these functions by name, so
every ``spinflux`` module attribute that refers to a wrapped function is
replaced, and restored by ``uninstall``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np


def _assemble_counts(args, result):
    m = result.matrix
    return {"nnz": int(np.count_nonzero(m)), "bytes": int(m.size * m.itemsize)}


def _steady_counts(args, result):
    return {"residual": float(result.residual)}


def _propagate_counts(args, result):
    return {"points": len(args["times"])}


def _ensemble_counts(args, result):
    return {"trajectories": int(args["realizations"]), "grid": len(args["times"])}


def _trajectory_counts(args, result):
    return {"jumps": int(len(result.jump_times))}


def _cli_counts(args, result):
    out = Path(args["config"].output_dir)
    return {"artifact_bytes": sum(p.stat().st_size for p in out.iterdir()
                                  if p.is_file())}


def _generator_counts(args, result):
    gen = args["self"]
    return {"channels": len(gen.lindblad_terms()) if gen.is_lindblad else 0}


# (module, attribute, span name, counts read after the call)
FUNCTIONS = (
    ("spinflux.config", "parse_config", "config.parse_config", None),
    ("spinflux.liouville", "assemble", "liouville.assemble", _assemble_counts),
    ("spinflux.liouville", "steady_state", "liouville.steady_state", _steady_counts),
    ("spinflux.liouville", "propagate", "liouville.propagate", _propagate_counts),
    ("spinflux.mcwf", "run_ensemble", "mcwf.run_ensemble", _ensemble_counts),
    ("spinflux.mcwf", "evolve_trajectory", "mcwf.evolve_trajectory",
     _trajectory_counts),
    ("spinflux.cli", "run", "cli.run", _cli_counts),
    ("spinflux.observables", "bond_currents", "observables.bond_currents", None),
    ("spinflux.observables", "local_energies", "observables.local_energies", None),
    ("spinflux.observables", "transport_report", "observables.transport_report",
     None),
    ("spinflux.observables", "reported_current_operator",
     "observables.reported_current_operator", None),
)


class Tracer:
    """In-memory span recorder; ``phase`` is set by the harness."""

    def __init__(self):
        self.spans: list[dict] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, name, counts in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, counts)
            for module in _spinflux_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        generator = sys.modules["spinflux.dissipators"].Generator
        self._patches.append((generator, "__init__", generator.__init__))
        generator.__init__ = self._wrap("dissipators.Generator", generator.__init__,
                                        _generator_counts)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _wrap(self, name, fn, counts):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = {"name": name, "phase": self.phase, "parent": parent,
                    "child_ns": 0, "start_ns": time.perf_counter_ns()}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span["end_ns"] = time.perf_counter_ns()
                if counts is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.update(counts(bound.arguments, result))
                return result
            finally:
                span.setdefault("end_ns", time.perf_counter_ns())
                self._stack.pop()
                if parent is not None:
                    self.spans[parent]["child_ns"] += (time.perf_counter_ns()
                                                       - span["start_ns"])

        return wrapper

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"meta": meta, "spans": self.spans}) + "\n",
                        encoding="utf-8")

    def layer_metrics(self, setups: int, rounds: int) -> dict:
        """Per-layer figures for one set-up plus one round: set-up spans are
        divided by the number of set-ups, round spans by the number of
        rounds.  Jump-sample spans feed only ``mcwf.jumps_per_traj``."""

        def total(name, key=None, inclusive=False):
            acc = {"setup": 0.0, "round": 0.0}
            for s in self.spans:
                if s["name"] != name or s["phase"] not in acc:
                    continue
                if key is not None:
                    acc[s["phase"]] += s.get(key, 0)
                elif inclusive:
                    acc[s["phase"]] += (s["end_ns"] - s["start_ns"]) * 1e-9
                else:
                    acc[s["phase"]] += (s["end_ns"] - s["start_ns"] - s["child_ns"]) * 1e-9
            return acc["setup"] / setups + acc["round"] / rounds

        def calls(name):
            acc = {"setup": 0, "round": 0}
            for s in self.spans:
                if s["name"] == name and s["phase"] in acc:
                    acc[s["phase"]] += 1
            return acc["setup"] / setups + acc["round"] / rounds

        observables = sum(total(name) for _, _, name, _ in FUNCTIONS
                          if name.startswith("observables."))
        trajectories = total("mcwf.run_ensemble", "trajectories")
        ensemble_s = total("mcwf.run_ensemble")
        residuals = [s["residual"] for s in self.spans if "residual" in s]
        sample = [s["jumps"] for s in self.spans
                  if "jumps" in s and s["phase"] == "sample"]
        grid_samples = sum(s["trajectories"] * s["grid"] for s in self.spans
                           if "grid" in s and s["phase"] == "round")
        return {
            "config.parse_s": (total("config.parse_config"), "s"),
            "dissipators.generator_s": (total("dissipators.Generator"), "s"),
            "dissipators.generators": (calls("dissipators.Generator"), "count"),
            "dissipators.channels": (total("dissipators.Generator", "channels"), "count"),
            "liouville.assemble_s": (total("liouville.assemble"), "s"),
            "liouville.assemble_calls": (calls("liouville.assemble"), "count"),
            "liouville.matrix_nnz": (total("liouville.assemble", "nnz"), "count"),
            "liouville.matrix_bytes": (total("liouville.assemble", "bytes"), "bytes"),
            "liouville.steady_s": (total("liouville.steady_state"), "s"),
            "liouville.steady_calls": (calls("liouville.steady_state"), "count"),
            "liouville.steady_residual_max": (max(residuals, default=0.0), "norm"),
            "liouville.propagate_s": (total("liouville.propagate"), "s"),
            "liouville.propagate_points": (total("liouville.propagate", "points"),
                                           "count"),
            "mcwf.ensemble_s": (ensemble_s, "s"),
            "mcwf.trajectories": (trajectories, "count"),
            "mcwf.ms_per_traj": (1e3 * ensemble_s / trajectories if trajectories else 0.0,
                                 "ms"),
            "mcwf.grid_samples": (grid_samples / rounds, "count"),
            "mcwf.jumps_per_traj": (sum(sample) / len(sample) if sample else 0.0,
                                    "count"),
            "observables.s": (observables, "s"),
            "cli.run_s": (total("cli.run", inclusive=True), "s"),
            "cli.self_s": (total("cli.run"), "s"),
            "cli.artifact_bytes": (total("cli.run", "artifact_bytes"), "bytes"),
        }


def _spinflux_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "spinflux" or name.startswith("spinflux."))]
