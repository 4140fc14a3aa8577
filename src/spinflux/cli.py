"""Command-line harness: run one configuration, write plot-ready artifacts.

Modes
-----
steady   -> steady.json          stationary currents, energies, diagnostics
evolve   -> series.csv           deterministic time series of the observables
mcwf     -> mcwf.csv             trajectory-ensemble means with _se columns
compare  -> compare.csv + steady.json
            bond-1 current from the non-secular reference, the
            weak-coupling Lindblad propagation, and its trajectory ensemble,
            all on one shared grid

Every artifact embeds provenance (artifact version, config hash, seed,
variant, tolerances).  Outputs are byte-stable: identical configuration and
seed give identical files, whatever SPINFLUX_WORKERS or the BLAS thread
count says.

Exit codes: 0 success, 2 configuration error, 3 solver failure (including a
chain too long for Liouville-space solves, and a trajectory ensemble or a
Bohr decomposition whose dense matrices would not fit in the memory
available).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (MODES, ConfigError, RunConfig, config_hash, parse_config,
                     with_overrides)
from .chain import build_hamiltonian, build_local_hamiltonian_site
from .dissipators import VARIANTS, Generator, VariantError
from .liouville import (SolverError, Superoperator, assemble, propagate,
                        steady_state)
from .mcwf import NormCollapseError, check_memory, run_ensemble
from .observables import (diagonality_defect, expectation_series, gibbs_state,
                          reported_current_operator)
from .operators import DimensionError, Operator, eig_hermitian

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _generator(config: RunConfig, variant: str | None = None) -> Generator:
    return Generator(variant or config.variant, config.chain, config.bath_left,
                     config.bath_right, cluster_tol=config.cluster_tol)


def _initial_density(config: RunConfig) -> Operator:
    name = config.initial_state
    d = config.chain.dim
    if name == "maximally_mixed":
        return Operator(np.eye(d, dtype=complex) / d, hermitian=True)
    h = build_hamiltonian(config.chain)
    if name == "ground":
        ground = eig_hermitian(h).eigenvectors[:, 0]
        return Operator(np.outer(ground, ground.conj()), hermitian=True)
    beta0 = float(name.split(":", 1)[1])
    return gibbs_state(h, beta0)


def _time_grid(config: RunConfig) -> np.ndarray:
    return np.linspace(0.0, config.t_max, config.steps + 1)


def _observables(config: RunConfig) -> dict:
    obs = {}
    for b in range(1, config.chain.n):
        obs[f"current_b{b}"] = reported_current_operator(config.chain, b)
    for site in range(1, config.chain.n + 1):
        obs[f"energy_s{site}"] = build_local_hamiltonian_site(config.chain, site)
    return obs


def _provenance(config: RunConfig) -> dict:
    return {
        "artifact": "spinflux",
        "version": __version__,
        "config_sha256": config_hash(config),
        "variant": config.variant,
        "mode": config.mode,
        "master_seed": config.master_seed,
        "initial_state": config.initial_state,
        "tolerances": {
            "cluster": config.cluster_tol,
            "nullspace": config.nullspace_tol,
        },
    }


def _format(x: float) -> str:
    return repr(float(x))


def _write_csv(path: Path, provenance: dict, header: list[str],
               columns: list[np.ndarray]) -> None:
    lines = [f"# {key}: {json.dumps(value, sort_keys=True)}"
             for key, value in sorted(provenance.items())]
    lines.append(",".join(header))
    for row in zip(*columns):
        lines.append(",".join(_format(x) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _steady_payload(config: RunConfig, s: Superoperator) -> dict:
    variant = s.generator.variant
    report = steady_state(s, null_tol=config.nullspace_tol)
    return {
        "variant": variant,
        "currents": [float(x) for x in report.currents],
        "local_energies": [float(x) for x in report.energies],
        "residual": report.residual,
        "null_space_dim": report.null_space_dim,
        "min_eigenvalue": report.min_eigenvalue,
        "diagonality_defect": diagonality_defect(report.state,
                                                 s.generator.eigensystem),
    }


def run(config: RunConfig) -> None:
    """Execute one configuration; artifacts land in config.output_dir."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    provenance = _provenance(config)

    if config.mode == "steady":
        payload = {"provenance": provenance,
                   "steady": _steady_payload(config, assemble(_generator(config)))}
        _write_json(out / "steady.json", payload)
        return

    times = _time_grid(config)
    if config.mode == "mcwf":
        # the observables below: one current per bond, one energy per site
        check_memory(config.chain.dim, 2 * config.chain.n - 1, config.steps + 1,
                     config.realizations)
    rho0 = _initial_density(config)

    if config.mode == "evolve":
        observables = _observables(config)
        states = propagate(assemble(_generator(config)), rho0, times)
        columns = [times] + [expectation_series(states, op)
                             for op in observables.values()]
        _write_csv(out / "series.csv", provenance, ["time", *observables], columns)
        return

    if config.mode == "mcwf":
        observables = _observables(config)
        result = run_ensemble(_generator(config).lindblad_terms(), rho0, times,
                              observables, config.realizations, config.master_seed)
        header = ["time"]
        columns = [times]
        for n in observables:
            header += [n, f"{n}_se"]
            columns += [result.means[n], result.standard_errors[n]]
        _write_csv(out / "mcwf.csv", provenance, header, columns)
        return

    # compare: non-secular reference vs weak-coupling Lindblad vs its ensemble;
    # run_ensemble checks the memory for its one observable
    current = reported_current_operator(config.chain, 1)
    red = _generator(config, "redfield")
    weak = _generator(config, "weak_coupling")
    red_current, red_steady = _exact_payloads(config, red, rho0, times, current)
    weak_current, weak_steady = _exact_payloads(config, weak, rho0, times, current)
    ensemble = run_ensemble(weak.lindblad_terms(), rho0, times,
                            {"current_b1": current},
                            config.realizations, config.master_seed)
    series = {
        "current_redfield": red_current,
        "current_weak_coupling": weak_current,
        "current_weak_coupling_mcwf": ensemble.means["current_b1"],
        "current_weak_coupling_mcwf_se": ensemble.standard_errors["current_b1"],
    }
    _write_csv(out / "compare.csv", provenance,
               ["time"] + list(series), [times] + list(series.values()))
    _write_json(out / "steady.json", {
        "provenance": provenance,
        "steady": {"redfield": red_steady, "weak_coupling": weak_steady},
    })


def _exact_payloads(config: RunConfig, gen: Generator, rho0: Operator,
                    times: np.ndarray, current: Operator):
    """Propagated current series and steady payload of one generator, from
    one assembly; returning drops the sparse Liouvillian, so compare mode
    holds at most one at a time."""
    s = assemble(gen)
    states = propagate(s, rho0, times)
    return expectation_series(states, current), _steady_payload(config, s)


def _write_error(config: RunConfig | None, out_dir: str | None,
                 exc: Exception, exit_code: int) -> None:
    if out_dir is None and config is None:
        return  # no output location known; the stderr message is the record
    target = Path(out_dir or config.output_dir)
    try:
        target.mkdir(parents=True, exist_ok=True)
        _write_json(target / "error.json", {
            "error": type(exc).__name__,
            "message": str(exc),
            "exit_code": exit_code,
        })
    except OSError:
        logger.error("could not write error record to %s", target)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinflux",
        description="Heat transport through an open spin chain: steady states, "
                    "time evolution, and trajectory ensembles.")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a configuration file")
    runp.add_argument("config", help="path to a key = value configuration file")
    runp.add_argument("--mode", choices=MODES)
    runp.add_argument("--variant", choices=VARIANTS)
    runp.add_argument("--out", help="output directory (overrides output.dir)")
    runp.add_argument("--seed", type=int, help="master seed (overrides mcwf.seed)")
    runp.add_argument("--realizations", type=int,
                      help="trajectory count (overrides mcwf.realizations)")
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    config = None
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = parse_config(text)
        config = with_overrides(config, mode=args.mode, variant=args.variant,
                                output_dir=args.out, master_seed=args.seed,
                                realizations=args.realizations)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        _write_error(config, args.out, exc, EXIT_CONFIG)
        return EXIT_CONFIG

    try:
        run(config)
    except (SolverError, NormCollapseError, VariantError, DimensionError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        _write_error(config, None, exc, EXIT_SOLVER)
        return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
