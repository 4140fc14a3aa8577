"""The four benchmark workloads: set-up, one measured round, output checks.

Each workload has three parts.  ``setup`` parses the workload's
configuration and builds every ``Generator`` the rounds use; the harness
repeats it and reports the median.  ``run_round`` is the timed unit of work;
it returns the number of operations it attempted, the number that raised,
and its outputs.  ``check`` compares those outputs with computations made
apart from the program (``reference.py``) or with properties the method
must have, and returns one message per violation.

Calls into the program go through module attributes at call time
(``liouville.assemble(...)``), so the wrappers of a traced run see them.
"""

from __future__ import annotations

import csv
import json
import sys
import traceback
from pathlib import Path

import numpy as np

import reference
from spinflux import (cli, config, dissipators, liouville, mcwf, observables,
                      operators)

# The paper's reference point; the workloads differ only in chain length,
# mode, time grid and ensemble size.
REFERENCE_KEYS = (
    ("chain.omega", 1.0),
    ("chain.lambda", 0.01),
    ("bath.left.beta", 0.41),
    ("bath.left.kappa", 0.01),
    ("bath.right.beta", 1.39),
    ("bath.right.kappa", 0.01),
    ("initial_state", "maximally_mixed"),
)
VARIANTS = ("redfield", "secular", "weak_coupling", "local_diag")

TRACE_TOL = 1e-12
POSITIVITY_FLOOR = -1e-10
RESIDUAL_TOL = 1e-12          # relative, see reference.residual
SECULAR_CURRENT_FACTOR = 1e-10  # |J| <= factor * lambda * omega
UNIFORMITY_TOL = 1e-8         # relative spread of the bond currents
REDFIELD_GAP = 0.05           # redfield vs weak_coupling, relative
NULL_VECTOR_TOL = 1e-10
EXACT_CURRENT_TOL = 1e-8      # of max |J|, CLI output vs reference
SE_MULTIPLE = 6.0             # ensemble band: |mean - exact| <= 6 SE + floor
SE_FLOOR = 1e-12              # of max |J|, for grid points where SE is 0
PROGRAM_RESIDUAL_TOL = 1e-12  # absolute, the residual steady.json reports

# Traced runs count jumps on a fixed sample of single trajectories; its
# seed does not follow --seed, so the count repeats exactly.
SAMPLE_TRAJECTORIES = 4
SAMPLE_SEED = 20240

N8_CURVE = Path(__file__).resolve().parent / "ref_n8.json"
N8_COMMAND = "python3 bench/run.py --regenerate-reference"


def config_text(n: int, **keys) -> str:
    lines = [f"chain.n = {n}"]
    lines += [f"{k} = {v}" for k, v in REFERENCE_KEYS]
    lines += [f"{k.replace('__', '.')} = {v}" for k, v in keys.items()]
    return "\n".join(lines) + "\n"


def round_seed(seed: int, index: int) -> int:
    """Master seed of round ``index`` of a run with seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _attempt(label: str, fn):
    """Run one operation; a raise counts it failed and is reported."""
    try:
        return fn()
    except Exception:  # noqa: BLE001 - every failure is counted, not fatal
        print(f"operation {label} failed:\n{traceback.format_exc()}",
              file=sys.stderr)
        return None


def _generator(cfg, variant):
    return dissipators.Generator(variant, cfg.chain, cfg.bath_left,
                                 cfg.bath_right, cluster_tol=cfg.cluster_tol)


def make(name: str, smoke: bool, seed: int, workdir: Path):
    """The workload called ``name``, at toy size when ``smoke`` is set."""
    if name == "steady-scan":
        return SteadyScan(smoke)
    if name == "ensemble-n3":
        return Ensemble(name, seed, *((3, 40.0, 11, 64) if smoke
                                      else (3, 400.0, 51, 256)))
    if name == "ensemble-n8":
        if smoke:
            return Ensemble(name, seed, 4, 40.0, 11, 16)
        return Ensemble(name, seed, 8, 400.0, 51, 32, cache=N8_CURVE)
    if name == "compare-n5":
        return CompareCLI(smoke, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


def jump_sample(gen, times) -> None:
    """Single trajectories from spread-out basis states, for jump counts."""
    terms = gen.lindblad_terms()
    h_eff = mcwf.effective_hamiltonian(gen.hamiltonian, terms)
    dim = gen.chain.dim
    for i in range(SAMPLE_TRAJECTORIES):
        psi0 = np.zeros(dim, dtype=complex)
        psi0[i * dim // SAMPLE_TRAJECTORIES] = 1.0
        mcwf.evolve_trajectory(h_eff, terms, psi0, times,
                               mcwf.split_seed(SAMPLE_SEED, i))


def n8_curve_parameters() -> str:
    return config_text(8, variant="weak_coupling", time__t_max=400.0,
                       time__steps=50).replace("\n", "; ").strip("; ")


def _maximally_mixed(dim: int):
    return operators.Operator(np.eye(dim, dtype=complex) / dim, hermitian=True)


def _currents(rho: np.ndarray, chain) -> np.ndarray:
    return np.array([np.trace(rho @ observables.reported_current_operator(
        chain, b).matrix).real for b in range(1, chain.n)])


def _check_currents(label, variant, currents, chain, errors):
    j = np.asarray(currents, dtype=float)
    if variant == "secular":
        bound = SECULAR_CURRENT_FACTOR * chain.exchange * chain.field
        if np.abs(j).max() > bound:
            errors.append(f"{label}: secular |J| {np.abs(j).max():.3e} > {bound:.0e}")
        return
    if not np.all(j > 0):
        errors.append(f"{label}: currents {j} are not all hot to cold")
    elif (j.max() - j.min()) > UNIFORMITY_TOL * j.mean():
        errors.append(f"{label}: bond currents {j} not uniform to {UNIFORMITY_TOL}")


def _check_gap(label, j_red, j_weak, errors):
    gap = np.abs(np.asarray(j_red) - j_weak) / np.abs(j_red)
    if not gap.max() <= REDFIELD_GAP:
        errors.append(f"{label}: redfield vs weak_coupling gap {gap.max():.3e}")


def _check_band(label, mean, se, exact, errors):
    floor = SE_FLOOR * np.abs(exact).max()
    ratio = np.abs(mean - exact) / (SE_MULTIPLE * se + floor)
    worst = np.unravel_index(np.argmax(ratio), ratio.shape)
    if not ratio.max() <= 1.0:
        errors.append(f"{label}: ensemble mean {mean[worst]:.4e} off the exact "
                      f"{exact[worst]:.4e} by more than {SE_MULTIPLE} SE "
                      f"({se[worst]:.2e}) at index {worst}")
    return float(ratio.max() * SE_MULTIPLE)


class SteadyScan:
    """Stationary state of every variant along the chain-length axis."""

    name = "steady-scan"

    def __init__(self, smoke: bool):
        self.lengths = (2, 3) if smoke else (3, 4, 5)

    def setup(self):
        cases = []
        for n in self.lengths:
            cfg = config.parse_config(config_text(n, mode="steady"))
            cases += [(cfg, _generator(cfg, v)) for v in VARIANTS]
        return cases

    def prepare(self):
        pass

    def jump_sample(self, cases):
        pass

    def run_round(self, cases, index):
        reports = [_attempt(f"steady {g.variant} n={g.chain.n}",
                            lambda: liouville.steady_state(
                                liouville.assemble(g), null_tol=cfg.nullspace_tol))
                   for cfg, g in cases]
        return len(cases), sum(r is None for r in reports), reports

    def check(self, cases, outputs):
        errors = []
        for reports in outputs:
            by_key = {}
            for (cfg, gen), rep in zip(cases, reports):
                if rep is None:
                    continue
                label = f"steady {gen.variant} n={gen.chain.n}"
                by_key[gen.variant, gen.chain.n] = rep
                rho = rep.state.matrix
                if abs(np.trace(rho) - 1.0) > TRACE_TOL:
                    errors.append(f"{label}: trace {np.trace(rho)}")
                if not np.array_equal(rho, rho.conj().T):
                    errors.append(f"{label}: state is not Hermitian")
                low = np.linalg.eigvalsh(rho).min()
                if low < POSITIVITY_FLOOR:
                    errors.append(f"{label}: minimum eigenvalue {low:.3e}")
                terms = reference.sandwich_terms(gen)
                if gen.is_lindblad:
                    res = reference.residual(terms, rho)
                    if not res <= RESIDUAL_TOL:
                        errors.append(f"{label}: residual {res:.3e}")
                if gen.chain.n == 3:
                    diff = np.abs(rho - reference.null_state(terms, gen.chain.dim)).max()
                    if not diff <= NULL_VECTOR_TOL:
                        errors.append(f"{label}: {diff:.3e} from the null vector")
                _check_currents(label, gen.variant, rep.currents, gen.chain, errors)
            for n in self.lengths:
                if ("redfield", n) in by_key and ("weak_coupling", n) in by_key:
                    _check_gap(f"steady n={n}", by_key["redfield", n].currents,
                               by_key["weak_coupling", n].currents, errors)
        return errors


class Ensemble:
    """Weak-coupling trajectory ensemble from the maximally mixed state."""

    def __init__(self, name, seed, n, t_max, points, realizations, cache=None):
        self.name = name
        self.seed = seed
        self.n = n
        self.t_max = t_max
        self.points = points
        self.realizations = realizations
        self.cache = cache
        self.worst_se_multiple = 0.0

    def setup(self):
        cfg = config.parse_config(config_text(
            self.n, mode="mcwf", variant="weak_coupling", time__t_max=self.t_max,
            time__steps=self.points - 1, mcwf__realizations=self.realizations))
        gen = _generator(cfg, "weak_coupling")
        obs = {f"current_b{b}": observables.reported_current_operator(cfg.chain, b)
               for b in range(1, cfg.chain.n)}
        times = np.linspace(0.0, cfg.t_max, cfg.steps + 1)
        return cfg, gen, obs, times

    def run_round(self, state, index):
        cfg, gen, obs, times = state
        seed = round_seed(self.seed, index)
        result = _attempt(f"ensemble round {index}", lambda: mcwf.run_ensemble(
            gen.lindblad_terms(), _maximally_mixed(cfg.chain.dim), times, obs,
            cfg.realizations, seed))
        failed = cfg.realizations if result is None else 0
        return cfg.realizations, failed, result

    def prepare(self):
        pass

    def jump_sample(self, state):
        cfg, gen, obs, times = state
        jump_sample(gen, times)

    def exact(self, gen, ops):
        """Exact bond currents ``[bond, time]`` on the workload's grid, from
        the cache file when it was made for these operators and this grid."""
        if self.cache is not None:
            curve = reference.load_curve(self.cache, gen, ops, self.t_max,
                                         self.points)
            if curve is not None:
                return curve
            print(f"{self.cache.name} is missing or stale; computing the exact "
                  f"curve (regenerate it with: {N8_COMMAND})", file=sys.stderr)
        return reference.current_series(
            reference.sandwich_terms(gen), np.eye(gen.chain.dim) / gen.chain.dim,
            self.t_max, self.points, ops)

    def check(self, state, outputs):
        cfg, gen, obs, times = state
        exact = self.exact(gen, [op.matrix for op in obs.values()])
        results = [r for r in outputs if r is not None]
        if not results:
            return []
        # Rounds are independent ensembles of equal size: pool them.
        mean = np.mean([[r.means[k] for k in obs] for r in results], axis=0)
        se = np.sqrt(np.sum([[r.standard_errors[k] ** 2 for k in obs]
                             for r in results], axis=0)) / len(results)
        errors = []
        worst = _check_band(f"{self.name} ({len(results)} rounds pooled)",
                            mean, se, exact, errors)
        self.worst_se_multiple = max(self.worst_se_multiple, worst)
        return errors


class CompareCLI:
    """``spinflux run <config> --realizations R``: the default compare mode."""

    name = "compare-n5"

    def __init__(self, smoke: bool, seed: int, workdir: Path):
        self.n, self.t_max, self.steps, self.realizations = (
            (3, 40.0, 8, 32) if smoke else (5, 400.0, 200, 256))
        self.seed = seed
        self.workdir = workdir
        self.config_path = workdir / "compare.conf"
        self.worst_se_multiple = 0.0

    def prepare(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(config_text(
            self.n, mode="compare", variant="weak_coupling",
            time__t_max=self.t_max, time__steps=self.steps,
            mcwf__realizations=self.realizations, output__dir="out"),
            encoding="utf-8")

    def setup(self):
        return config.parse_config(self.config_path.read_text(encoding="utf-8"))

    def jump_sample(self, cfg):
        jump_sample(_generator(cfg, "weak_coupling"),
                    np.linspace(0.0, cfg.t_max, cfg.steps + 1))

    def run_round(self, cfg, index):
        out = self.workdir / f"round-{index}"
        argv = ["run", str(self.config_path), "--realizations",
                str(self.realizations), "--seed", str(round_seed(self.seed, index)),
                "--out", str(out)]
        code = _attempt(f"cli round {index}", lambda: cli.main(argv))
        if code != 0:
            print(f"cli round {index} exited with {code}", file=sys.stderr)
            return 1, 1, None
        return 1, 0, out

    def check(self, cfg, outputs):
        errors = []
        gens = {v: _generator(cfg, v) for v in ("redfield", "weak_coupling")}
        chain = cfg.chain
        j1 = observables.reported_current_operator(chain, 1).matrix
        exact = reference.current_series(
            reference.sandwich_terms(gens["weak_coupling"]),
            np.eye(chain.dim) / chain.dim, cfg.t_max, cfg.steps + 1, [j1])[0]
        scale = np.abs(exact).max()
        steady = {v: _currents(reference.steady_state(
            reference.sandwich_terms(g), chain.dim), chain) for v, g in gens.items()}
        for index, out in enumerate(outputs):
            if out is None:
                continue
            label = f"compare round {index}"
            if (out / "error.json").exists():
                errors.append(f"{label}: error.json written")
            cols = _read_csv(out / "compare.csv")
            if not np.allclose(cols["time"], np.linspace(0, cfg.t_max, cfg.steps + 1),
                               rtol=0, atol=1e-12):
                errors.append(f"{label}: time grid differs")
                continue
            gap = np.abs(cols["current_weak_coupling"] - exact).max() / scale
            if not gap <= EXACT_CURRENT_TOL:
                errors.append(f"{label}: weak_coupling column off by {gap:.3e} of max|J|")
            gap = np.abs(cols["current_redfield"] - exact).max() / scale
            if not gap <= REDFIELD_GAP:
                errors.append(f"{label}: redfield column off by {gap:.3e} of max|J|")
            worst = _check_band(label, cols["current_weak_coupling_mcwf"],
                                cols["current_weak_coupling_mcwf_se"], exact, errors)
            self.worst_se_multiple = max(self.worst_se_multiple, worst)
            payload = json.loads((out / "steady.json").read_text(encoding="utf-8"))
            for variant, rep in payload["steady"].items():
                vlabel = f"{label} steady {variant}"
                if rep["null_space_dim"] != 1:
                    errors.append(f"{vlabel}: null space dimension {rep['null_space_dim']}")
                if not rep["residual"] <= PROGRAM_RESIDUAL_TOL:
                    errors.append(f"{vlabel}: residual {rep['residual']:.3e}")
                if rep["min_eigenvalue"] < POSITIVITY_FLOOR:
                    errors.append(f"{vlabel}: minimum eigenvalue {rep['min_eigenvalue']:.3e}")
                _check_currents(vlabel, variant, rep["currents"], chain, errors)
                gap = np.abs(np.array(rep["currents"]) - steady[variant]).max()
                if not gap <= EXACT_CURRENT_TOL * np.abs(steady[variant]).max():
                    errors.append(f"{vlabel}: currents off the reference by {gap:.3e}")
            _check_gap(f"{label} steady", payload["steady"]["redfield"]["currents"],
                       np.array(payload["steady"]["weak_coupling"]["currents"]), errors)
        return errors


def _read_csv(path: Path) -> dict:
    with path.open(encoding="utf-8") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    header, body = rows[0], np.array(rows[1:], dtype=float)
    return {name: body[:, i] for i, name in enumerate(header)}
