"""Run configuration: flat key = value files with dotted section keys.

Grammar: one ``key = value`` pair per line; ``#`` starts a comment (full-line
or trailing); blank lines are ignored; duplicate keys are rejected.  Unknown
keys are hard errors.  ``chain.n`` is the single required key; everything
else defaults to the reference regime (three sites, field 1, exchange and
bath coupling 0.01, inverse temperatures 0.41 / 1.39, maximally mixed start).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from operator import attrgetter

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


# Every run key once, as (file key, RunConfig attribute, type, default), in
# the order of serialize_config; a default of ... marks a required key.
_KEYS = (
    ("chain.n", "chain.n", int, ...),
    ("chain.omega", "chain.field", float, 1.0),
    ("chain.lambda", "chain.exchange", float, 0.01),
    ("bath.left.beta", "bath_left.beta", float, 0.41),
    ("bath.left.kappa", "bath_left.coupling", float, 0.01),
    ("bath.right.beta", "bath_right.beta", float, 1.39),
    ("bath.right.kappa", "bath_right.coupling", float, 0.01),
    ("variant", "variant", str, "weak_coupling"),
    ("mode", "mode", str, "compare"),
    ("time.t_max", "t_max", float, 400.0),
    ("time.steps", "steps", int, 200),
    ("mcwf.realizations", "realizations", int, 100000),
    ("mcwf.seed", "master_seed", int, 20240),
    ("initial_state", "initial_state", str, "maximally_mixed"),
    ("output.dir", "output_dir", str, "out"),
    ("tolerance.nullspace", "nullspace_tol", float, 1e-10),
    ("tolerance.cluster", "cluster_tol", float, None),
)

KNOWN_KEYS = tuple(key for key, _, _, _ in _KEYS)
_KINDS = {key: kind for key, _, kind, _ in _KEYS}


def _convert(key: str, raw, where: str):
    """A file value, which is text, or an override, which is text or of the
    key's type, checked and converted to the key's type; a number must be
    finite."""
    kind = _KINDS[key]
    if raw == "":
        raise ConfigError(f"{where}: empty value for key {key!r}")
    noun = {int: "an integer", float: "a number", str: "a string"}[kind]
    try:
        if type(raw) is kind or isinstance(raw, str):
            value = kind(raw)
            if kind is not float or math.isfinite(value):
                return value
            noun = "a finite number"
    except ValueError:
        pass
    raise ConfigError(f"{where}: key {key!r} needs {noun}, got {raw!r}")


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
        values[key] = _convert(key, raw, f"line {line_no}")

    for key, _, _, default in _KEYS:
        if default is ... and key not in values:
            raise ConfigError(f"missing required key {key!r}")
        values.setdefault(key, default)
    return _build(values)


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
            if not 0 < beta0 < math.inf:
                raise ConfigError("initial_state: gibbs beta must be positive and finite")
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
    # the seed is the upper 64-bit half of each trajectory's Philox key
    if not 0 <= v["mcwf.seed"] < 2 ** 64:
        raise ConfigError(f"mcwf.seed must lie in [0, 2**64), got {v['mcwf.seed']}")
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
    """Canonical text form, one line per key that has a value, in table
    order; parse(serialize(c)) == c for a config read from a file.
    ``output.dir`` is not part of ``config_hash``."""
    pairs = ((key, attrgetter(attr)(config)) for key, attr, _, _ in _KEYS)
    return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                   for k, v in pairs if v is not None)


def config_hash(config: RunConfig) -> str:
    """Digest of everything that determines the run's results; the output
    location is excluded so relocated runs stay byte-comparable."""
    text = serialize_config(config).replace(f"output.dir = {config.output_dir}\n", "", 1)
    return hashlib.sha256(text.encode()).hexdigest()


def with_overrides(config: RunConfig, *, mode: str | None = None,
                   variant: str | None = None, output_dir: str | None = None,
                   master_seed: int | None = None,
                   realizations: int | None = None) -> RunConfig:
    """Apply command-line overrides, each checked as a file value is (but
    never cut at a ``#``), and re-validate the combination."""
    overrides = {attr: value for attr, value in dict(
        mode=mode, variant=variant, output_dir=output_dir, master_seed=master_seed,
        realizations=realizations).items() if value is not None}
    if not overrides:
        return config
    return _build({key: _convert(key, overrides[attr], "override") if attr in overrides
                   else attrgetter(attr)(config) for key, attr, _, _ in _KEYS})
