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

Before it builds anything, ``run`` checks every limit of its mode with the
counts of the code that allocates; a size known only once something is built
(the Liouvillian's non-zeros, secular's Bohr groups) is checked there.

Exit codes: 0 success, 2 configuration error (including a configuration file
that cannot be read or decoded, and in ``mcwf`` and ``compare`` mode a
SPINFLUX_WORKERS that is not an integer >= 1), 3 solver failure (including a
chain too long for Liouville-space solves, and a run whose memory count
exceeds the memory available).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import MODES, RunConfig, config_hash, parse_config, with_overrides
from .chain import build_local_hamiltonian_site
from .dissipators import LOCAL_JUMPS, VARIANTS, Generator, VariantError
from .liouville import (PROPAGATE_BYTES_PER_ENTRY, SolverError, Superoperator,
                        assemble, coordinates, propagate, require_sites,
                        steady_state)
from .mcwf import NormCollapseError, ensemble_bytes, run_ensemble, worker_count
from .observables import gibbs_state, reported_current_operator, transport_report
from .operators import (DimensionError, EigenSystem, Operator, dense_bytes,
                        embedded_bytes, require_memory)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _generator(config: RunConfig, variant: str | None = None) -> Generator:
    return Generator(variant or config.variant, config.chain, config.bath_left,
                     config.bath_right, cluster_tol=config.cluster_tol)


def _initial_density(config: RunConfig, gen: Generator) -> Operator:
    """rho0; a ``ground`` or ``gibbs:`` start reads ``gen.eigensystem``."""
    name = config.initial_state
    d = config.chain.dim
    if name == "maximally_mixed":
        return Operator(np.eye(d, dtype=complex) / d, hermitian=True)
    if name == "ground":
        ground = gen.eigensystem.eigenvectors[:, 0]
        return Operator(np.outer(ground, ground.conj()), hermitian=True)
    return gibbs_state(gen.eigensystem, float(name.split(":", 1)[1]))


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


def _write_csv(path: Path, provenance: dict, columns: dict) -> None:
    """Provenance comment lines, then ``columns``, an ordered mapping from
    column name to values (time first), as a header and rows."""
    lines = [f"# {key}: {json.dumps(value, sort_keys=True)}"
             for key, value in sorted(provenance.items())]
    lines.append(",".join(columns))
    for row in zip(*columns.values()):
        lines.append(",".join(repr(float(x)) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _steady_payload(config: RunConfig, s: Superoperator, basis: EigenSystem) -> dict:
    return transport_report(steady_state(s, null_tol=config.nullspace_tol), basis)


def _check_limits(config: RunConfig) -> None:
    """Refuse a run over a limit of its mode before anything is built: the
    site cap; the memory of the time grid and the propagated states; and the
    memory of the ensemble, the dense operators held (rho0, the observables,
    which have at most one non-zero per row, H and the jumps of each
    generator) and building one more."""
    n, d = config.chain.n, config.chain.dim
    if config.mode != "mcwf":
        require_sites(n)
    if config.mode == "evolve":
        require_memory((config.steps + 1) * (8 + PROPAGATE_BYTES_PER_ENTRY * d * d),
                       f"evolve mode on {n} sites over {config.steps + 1} points")
    if config.mode in ("mcwf", "compare"):
        obs, jumps, gens = ((2 * n - 1, LOCAL_JUMPS.get(config.variant, 0), 1)
                            if config.mode == "mcwf"
                            else (1, LOCAL_JUMPS["weak_coupling"], 2))
        # the chain's H_eff splits into its total-S_z sectors, and a local
        # jump, like the diagonal decay, has at most one non-zero per row
        require_memory(ensemble_bytes([math.comb(n, k) for k in range(n + 1)], jumps,
                                      (jumps + 1) * d, [d] * obs, config.steps + 1,
                                      config.realizations, mixed=True)
                       + dense_bytes(d, 1 + obs + gens + jumps) + embedded_bytes(n),
                       f"{config.mode} mode on {n} sites")


def run(config: RunConfig) -> None:
    """Execute one configuration; artifacts land in config.output_dir."""
    _check_limits(config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    provenance = _provenance(config)

    if config.mode == "steady":
        gen = _generator(config)
        payload = {"provenance": provenance,
                   "steady": _steady_payload(config, assemble(gen), gen.eigensystem)}
        _write_json(out / "steady.json", payload)
        return

    times = np.linspace(0.0, config.t_max, config.steps + 1)
    # compare mode's start and both its rows read the redfield eigensystem
    gen = _generator(config, "redfield" if config.mode == "compare" else None)
    rho0 = _initial_density(config, gen)

    if config.mode == "evolve":
        observables = _observables(config)
        functionals = np.stack([coordinates(op) for op in observables.values()], axis=1)
        series = propagate(assemble(gen), rho0, times) @ functionals
        columns = {"time": times}
        columns.update(zip(observables, series.T))
        _write_csv(out / "series.csv", provenance, columns)
        return

    if config.mode == "mcwf":
        observables = _observables(config)
        result = run_ensemble(gen.lindblad_terms(), rho0, times,
                              observables, config.realizations, config.master_seed)
        columns = {"time": times}
        for n in observables:
            columns[n] = result.means[n]
            columns[f"{n}_se"] = result.standard_errors[n]
        _write_csv(out / "mcwf.csv", provenance, columns)
        return

    # compare: non-secular reference vs weak-coupling Lindblad vs its ensemble;
    # one assembly per generator, dropped before the next is built
    current = reported_current_operator(config.chain, 1)
    weak = _generator(config, "weak_coupling")
    columns, rows = {"time": times}, {}
    for g in (gen, weak):
        s = assemble(g)
        columns[f"current_{g.variant}"] = propagate(s, rho0, times) @ coordinates(current)
        rows[g.variant] = _steady_payload(config, s, gen.eigensystem)
        del s
    ensemble = run_ensemble(weak.lindblad_terms(), rho0, times,
                            {"current_b1": current},
                            config.realizations, config.master_seed)
    columns["current_weak_coupling_mcwf"] = ensemble.means["current_b1"]
    columns["current_weak_coupling_mcwf_se"] = ensemble.standard_errors["current_b1"]
    _write_csv(out / "compare.csv", provenance, columns)
    _write_json(out / "steady.json", {"provenance": provenance, "steady": rows})


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
        config = parse_config(Path(args.config).read_text(encoding="utf-8"))
        config = with_overrides(config, mode=args.mode, variant=args.variant,
                                output_dir=args.out, master_seed=args.seed,
                                realizations=args.realizations)
        if config.mode in ("mcwf", "compare"):
            worker_count()
    # a ConfigError, an undecodable file and a bad SPINFLUX_WORKERS are ValueErrors
    except (OSError, ValueError) as exc:
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
