"""Run configuration: flat key = value files with dotted section keys.

Grammar: one ``key = value`` pair per line; ``#`` starts a comment (full-line
or trailing); blank lines are ignored; duplicate keys are rejected.  Unknown
keys are hard errors.  ``chain.n`` is the single required key; everything
else defaults to the reference regime (three sites, field 1, exchange and
bath coupling 0.01, inverse temperatures 0.41 / 1.39, maximally mixed start).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from .bath import BathSpec
from .chain import ChainSpec
from .dissipators import LINDBLAD_VARIANTS, VARIANTS

MODES = ("steady", "evolve", "mcwf", "compare")
INITIAL_STATES = ("maximally_mixed", "ground")  # plus "gibbs:<beta>"


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    chain: ChainSpec
    bath_left: BathSpec
    bath_right: BathSpec
    variant: str
    mode: str
    t_max: float
    steps: int
    realizations: int
    master_seed: int
    initial_state: str
    output_dir: str
    cluster_tol: float | None
    nullspace_tol: float


_DEFAULTS = {
    "chain.omega": 1.0,
    "chain.lambda": 0.01,
    "bath.left.beta": 0.41,
    "bath.left.kappa": 0.01,
    "bath.right.beta": 1.39,
    "bath.right.kappa": 0.01,
    "variant": "weak_coupling",
    "mode": "compare",
    "time.t_max": 400.0,
    "time.steps": 200,
    "mcwf.realizations": 100000,
    "mcwf.seed": 20240,
    "initial_state": "maximally_mixed",
    "output.dir": "out",
    "tolerance.cluster": None,
    "tolerance.nullspace": 1e-10,
}

_REQUIRED = ("chain.n",)

_INT_KEYS = ("chain.n", "time.steps", "mcwf.realizations", "mcwf.seed")
_FLOAT_KEYS = ("chain.omega", "chain.lambda", "bath.left.beta", "bath.left.kappa",
               "bath.right.beta", "bath.right.kappa", "time.t_max",
               "tolerance.cluster", "tolerance.nullspace")
_STR_KEYS = ("variant", "mode", "initial_state", "output.dir")

KNOWN_KEYS = tuple(_INT_KEYS) + tuple(_FLOAT_KEYS) + tuple(_STR_KEYS)


def _convert(key: str, raw: str, line_no: int):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        return raw
    except ValueError:
        kind = "integer" if key in _INT_KEYS else "number"
        raise ConfigError(f"line {line_no}: key {key!r} needs an {kind}, "
                          f"got {raw!r}") from None


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration; defaults are filled in."""
    values: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        if not raw:
            raise ConfigError(f"line {line_no}: empty value for key {key!r}")
        values[key] = _convert(key, raw, line_no)

    for key in _REQUIRED:
        if key not in values:
            raise ConfigError(f"missing required key {key!r}")
    filled = dict(_DEFAULTS)
    filled.update(values)
    return _build(filled)


def _build(v: dict) -> RunConfig:
    try:
        chain = ChainSpec(n=v["chain.n"], field=v["chain.omega"],
                          exchange=v["chain.lambda"])
    except ValueError as exc:
        raise ConfigError(f"chain.*: {exc}") from None
    try:
        left = BathSpec(beta=v["bath.left.beta"], coupling=v["bath.left.kappa"],
                        side="left")
        right = BathSpec(beta=v["bath.right.beta"], coupling=v["bath.right.kappa"],
                         side="right")
    except ValueError as exc:
        raise ConfigError(f"bath.*: {exc}") from None

    variant = v["variant"]
    if variant not in VARIANTS:
        raise ConfigError(f"variant: unknown value {variant!r}; choose from {VARIANTS}")
    mode = v["mode"]
    if mode not in MODES:
        raise ConfigError(f"mode: unknown value {mode!r}; choose from {MODES}")
    if mode == "mcwf" and variant not in LINDBLAD_VARIANTS:
        raise ConfigError(
            f"mode=mcwf needs a Lindblad-admissible variant; {variant!r} has an "
            "indefinite coefficient matrix and no jump-operator unraveling "
            "exists for it")

    initial = v["initial_state"]
    if initial not in INITIAL_STATES:
        if initial.startswith("gibbs:"):
            try:
                beta0 = float(initial.split(":", 1)[1])
            except ValueError:
                raise ConfigError(f"initial_state: bad gibbs beta in {initial!r}") from None
            if not beta0 > 0:
                raise ConfigError("initial_state: gibbs beta must be positive")
        else:
            raise ConfigError(
                f"initial_state: unknown value {initial!r}; use maximally_mixed, "
                "ground, or gibbs:<beta>")

    t_max = v["time.t_max"]
    steps = v["time.steps"]
    if mode in ("evolve", "mcwf", "compare"):
        if not t_max > 0:
            raise ConfigError(f"time.t_max must be positive, got {t_max}")
        if steps < 1:
            raise ConfigError(f"time.steps must be >= 1, got {steps}")
    realizations = v["mcwf.realizations"]
    if mode in ("mcwf", "compare") and realizations < 1:
        raise ConfigError(f"mcwf.realizations must be >= 1, got {realizations}")
    nullspace_tol = v["tolerance.nullspace"]
    if not nullspace_tol > 0:
        raise ConfigError(f"tolerance.nullspace must be positive, got {nullspace_tol}")
    cluster_tol = v["tolerance.cluster"]
    if cluster_tol is not None and cluster_tol < 0:
        raise ConfigError(f"tolerance.cluster must be >= 0, got {cluster_tol}")

    return RunConfig(
        chain=chain, bath_left=left, bath_right=right,
        variant=variant, mode=mode, t_max=float(t_max), steps=steps,
        realizations=realizations, master_seed=v["mcwf.seed"],
        initial_state=initial, output_dir=v["output.dir"],
        cluster_tol=cluster_tol, nullspace_tol=nullspace_tol,
    )


def serialize_config(config: RunConfig) -> str:
    """Canonical text form; parse(serialize(c)) == c."""
    pairs = [
        ("chain.n", config.chain.n),
        ("chain.omega", config.chain.field),
        ("chain.lambda", config.chain.exchange),
        ("bath.left.beta", config.bath_left.beta),
        ("bath.left.kappa", config.bath_left.coupling),
        ("bath.right.beta", config.bath_right.beta),
        ("bath.right.kappa", config.bath_right.coupling),
        ("variant", config.variant),
        ("mode", config.mode),
        ("time.t_max", config.t_max),
        ("time.steps", config.steps),
        ("mcwf.realizations", config.realizations),
        ("mcwf.seed", config.master_seed),
        ("initial_state", config.initial_state),
        ("output.dir", config.output_dir),
        ("tolerance.nullspace", config.nullspace_tol),
    ]
    if config.cluster_tol is not None:
        pairs.append(("tolerance.cluster", config.cluster_tol))
    return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                   for k, v in pairs)


def config_hash(config: RunConfig) -> str:
    """Digest of everything that determines the run's results; the output
    location is excluded so relocated runs stay byte-comparable."""
    text = "".join(line for line in serialize_config(config).splitlines(keepends=True)
                   if not line.startswith("output.dir"))
    return hashlib.sha256(text.encode()).hexdigest()


def with_overrides(config: RunConfig, *, mode: str | None = None,
                   variant: str | None = None, output_dir: str | None = None,
                   master_seed: int | None = None,
                   realizations: int | None = None) -> RunConfig:
    """Apply command-line overrides and re-validate the combination."""
    changes = {name: value for name, value in (
        ("mode", mode), ("variant", variant), ("output_dir", output_dir),
        ("master_seed", master_seed), ("realizations", realizations))
        if value is not None}
    if not changes:
        return config
    return parse_config(serialize_config(replace(config, **changes)))
