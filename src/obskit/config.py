"""Run configuration: parsing, validation, and system construction.

Configurations are JSON documents: a string whose first non-blank
character is ``{`` is inline text, and any other string or a ``Path``
names a file.  Errors are classified: malformed documents are parse errors
with line/column, wrong shapes/types/names are schema errors naming the
offending key path, and well-formed values violating a constraint (n_max
too small or past ``MAX_GRAM_BYTES``, trials < 1 or past ``MAX_TRIALS``, a
negative seed, T or a system for a scenario that reads none, a
non-Hermitian or non-PSD Gram, ...) are invariant errors.  All three
surface as ConfigError with a ``kind`` tag and exit as input errors at the
CLI.  Each input is checked once: a custom Gram's Hermiticity and PSD
check is the one ``SpectralSystem`` makes when it factors it.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
from collections import namedtuple
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, ShapeError
from .spectral import SpectralSystem
from .square import (
    BoundaryPatch,
    GammaSpec,
    Side,
    build_square_system,
    mode_count,
    require_bottom_and_left,
    require_single_side,
)


# One row per scenario: its CLI help line, whether it reads the time horizon
# T (every other scenario rejects it), its default system, a config document
# that ``_normalize_system`` normalizes exactly like a user's (None: the
# scenario takes no system, and rejects one), and the rule its square Γ must
# meet (None: any system; else only a square one).  A scenario is a row here
# plus a runner in ``scenarios._RUNNERS``.
_Scenario = namedtuple("_Scenario", "help reads_T system gamma_rule", defaults=(None,))
_BOTTOM_50 = {"type": "square", "n_max_eigenvalue": 50, "gamma": [{"side": "bottom"}]}
_SCENARIO_TABLE = {
    "verify-cutoff": _Scenario("check the window transform closed form and its sandwich bounds", False, None),
    "coercivity-scan": _Scenario("scan eigenvalue clusters for minimal observed energy", False, _BOTTOM_50),
    "resolvent-scan": _Scenario(
        "test the resolvent inequality at every frequency on random states", False, _BOTTOM_50
    ),
    "weak-observability": _Scenario("evaluate observation-time bounds on random states", True, _BOTTOM_50),
    "assumption-i": _Scenario(
        "verify the two-full-sides square observation is uniformly coercive",
        False,
        {"type": "square", "n_max_eigenvalue": 200, "gamma": [{"side": "bottom"}, {"side": "left"}]},
        require_bottom_and_left,
    ),
    "assumption-ii-iii": _Scenario(
        "fit the one-side square decay constant and its certificates",
        False,
        {"type": "square", "n_max_eigenvalue": 200, "gamma": [{"side": "bottom", "alpha": "pi/4", "beta": "pi/2"}]},
        require_single_side,
    ),
    "admissibility": _Scenario("bound observed energy above on random states", True, _BOTTOM_50),
}
SCENARIOS = tuple(_SCENARIO_TABLE)
HORIZON_SCENARIOS = tuple(name for name, row in _SCENARIO_TABLE.items() if row.reads_T)

DEFAULT_EPSILON_CLUSTER = 0.5
DEFAULT_TRIALS = 100
DEFAULT_SEED = 7
DEFAULT_OUTPUT = "obskit-report.json"

# Cap on 16 bytes per mode pair, n² of them: a square system's Gram and each
# kernel G∘S_T are real n×n matrices (8 bytes per entry), and some scenarios
# hold the Gram, formed from the factor, and a kernel at once.  1 GiB allows
# 8192 modes, that is n_max_eigenvalue ≤ 10 564.  The cap is still applied
# to every scenario.  Measured peaks are higher (tracemalloc over one run and
# its report, full bottom side, 20 trials, one process per run; bytes per
# mode pair at n_max 500 and 2000): weak-observability 48.6 and 34.3 (its
# rows take the closed form, two n×n matrices and no per-row kernel),
# admissibility 33.3 and 24.7, resolvent-scan 32.0 and 17.3.  So at the cap
# weak-observability needs about 2.3 GB.
MAX_GRAM_BYTES = 2**30
# Cap on the trials of one run.  A run's peak memory grows with its trials
# by about 1.2 kB each for weak-observability, 0.9 kB for resolvent-scan and
# none for admissibility (tracemalloc over the run and its report on the
# default system, 10⁴ against 4·10⁴ trials): 2¹⁹ trials keep the largest
# near 0.65 GB, inside the 1 GiB of ``MAX_GRAM_BYTES``.
MAX_TRIALS = 2**19

_ANGLE_PATTERN = re.compile(r"^\s*(\d+)?\s*pi\s*(?:/\s*(\d+))?\s*$", re.IGNORECASE)


def _parse_error(message: str) -> ConfigError:
    return ConfigError(f"config parse error: {message}", kind="parse")


def _schema_error(message: str) -> ConfigError:
    return ConfigError(f"config schema error: {message}", kind="schema")


def _invariant_error(message: str) -> ConfigError:
    return ConfigError(f"config invariant error: {message}", kind="invariant")


@dataclass(frozen=True)
class RunConfig:
    """A fully validated description of one scenario run.

    ``system`` is the normalized system description (a dict of plain values,
    so the config digest is canonical): either
    ``{"type": "square", "n_max_eigenvalue": n, "gamma": [patch, ...]}`` or
    ``{"type": "custom", "eigenvalues": [...], "gram": [[[re, im], ...]]}``,
    which also carries the system built when it was checked;
    it is None only for the cutoff-verification scenario.
    """

    scenario: str
    system: dict | None
    epsilon_cluster: float = DEFAULT_EPSILON_CLUSTER
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    T: float | None = None
    output_path: str = DEFAULT_OUTPUT

    def canonical_dict(self) -> dict:
        """The semantic inputs of the run; the output location is omitted so
        identical configurations hash identically wherever they write."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "output_path"}

    def digest(self) -> str:
        text = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _parse_angle(value, path: str) -> float:
    if isinstance(value, bool):
        raise _schema_error(f"{path}: expected a number or an angle string, got a boolean")
    if isinstance(value, (int, float)):
        return _require_number(value, path)
    if isinstance(value, str):
        match = _ANGLE_PATTERN.match(value)
        if match:
            # float() reads any number of digits, past the float range as inf.
            numerator, denominator = (float(digits) if digits else 1.0 for digits in match.groups())
            if denominator == 0:
                raise _schema_error(f"{path}: angle denominator cannot be zero")
            angle = numerator * math.pi / denominator
            if not all(map(math.isfinite, (numerator, denominator, angle))):
                raise _invariant_error(f"{path}: expected an angle within the float range, got {value!r}")
            return angle
        raise _schema_error(
            f"{path}: unrecognized angle {value!r} (use a number or 'pi', 'pi/2', '3pi/4', ...)"
        )
    raise _schema_error(f"{path}: expected a number or an angle string, got {type(value).__name__}")


def _require_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _schema_error(f"{path}: expected an integer, got {value!r}")
    return value


def _require_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _schema_error(f"{path}: expected a number, got {value!r}")
    # False for NaN and ±inf, and for ints too large to become a float
    if not abs(value) <= sys.float_info.max:
        raise _invariant_error(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _check_settings(scenario: str, given: dict) -> dict:
    """The ``given`` trials, seed, T and output path of a run, each held to its invariant."""
    settings = {}
    if "trials" in given:
        trials = settings["trials"] = _require_int(given["trials"], "trials")
        if trials < 1:
            raise _invariant_error(f"trials must be ≥ 1, got {trials}")
        if trials > MAX_TRIALS:
            raise _invariant_error(f"trials must be ≤ MAX_TRIALS = {MAX_TRIALS}, got {trials}")
    if "seed" in given:
        seed = settings["seed"] = _require_int(given["seed"], "seed")
        if seed < 0:
            raise _invariant_error(f"seed must be ≥ 0, got {seed}")
    if "T" in given:
        T = settings["T"] = _require_number(given["T"], "T")
        if scenario not in HORIZON_SCENARIOS:
            raise _invariant_error(
                f"T is read only by {' and '.join(HORIZON_SCENARIOS)}; "
                f"scenario {scenario} has no time horizon"
            )
        if not T > 0:
            raise _invariant_error(f"T must be positive and finite, got {T}")
    if "output_path" in given:
        output_path = settings["output_path"] = given["output_path"]
        if not isinstance(output_path, str) or not output_path:
            raise _schema_error("output_path: expected a nonempty string")
    return settings


def _check_keys(raw: dict, path: str, allowed, required=()) -> None:
    """Reject a key of ``raw`` outside ``allowed``, then the first ``required`` key it lacks."""
    unknown = set(raw) - set(allowed)
    if unknown:
        raise _schema_error(f"{path}: unknown keys {sorted(unknown)}")
    for key in required:
        if key not in raw:
            raise _schema_error(f"{path}.{key}: missing required key")


def _normalize_patch(raw, index: int) -> dict:
    path = f"system.gamma[{index}]"
    if not isinstance(raw, dict):
        raise _schema_error(f"{path}: expected an object with side/alpha/beta")
    _check_keys(raw, path, ("side", "alpha", "beta"), ("side",))
    side = raw["side"]
    if not isinstance(side, str):
        raise _schema_error(f"{path}.side: expected a string")
    try:
        side_value = Side.parse(side).value
    except DomainError as exc:
        raise _schema_error(f"{path}.side: {exc}") from None
    alpha = _parse_angle(raw.get("alpha", 0.0), f"{path}.alpha")
    beta = _parse_angle(raw.get("beta", math.pi), f"{path}.beta")
    return {"side": side_value, "alpha": alpha, "beta": beta}


def _normalize_square(raw: dict, scenario: str) -> dict:
    _check_keys(raw, "system", ("type", "n_max_eigenvalue", "gamma"), ("n_max_eigenvalue",))
    n_max = _require_int(raw["n_max_eigenvalue"], "system.n_max_eigenvalue")
    if n_max < 2:
        raise _invariant_error(f"system.n_max_eigenvalue must be ≥ 2, got {n_max}")
    # The p = 1 lattice column alone holds ⌊√(n − 1)⌋ modes: a lower bound
    # that rejects huge n_max before the O(√n) exact count.
    modes = math.isqrt(n_max - 1)
    if 16 * modes * modes <= MAX_GRAM_BYTES:
        modes = mode_count(n_max)
    if 16 * modes * modes > MAX_GRAM_BYTES:
        raise _invariant_error(
            f"system.n_max_eigenvalue = {n_max} has at least {modes} modes; at 16 bytes "
            f"per mode pair it would exceed the {MAX_GRAM_BYTES // 2**30} GiB cap"
        )
    gamma_raw = raw.get("gamma", [{"side": "bottom"}])
    if not isinstance(gamma_raw, list) or not gamma_raw:
        raise _schema_error("system.gamma: expected a nonempty list of patches")
    patches = [_normalize_patch(p, i) for i, p in enumerate(gamma_raw)]
    gamma = {"type": "square", "n_max_eigenvalue": n_max, "gamma": patches}
    rule = _SCENARIO_TABLE[scenario].gamma_rule
    try:
        spec = gamma_spec_of(gamma)
        if rule is not None:
            rule(spec, f"scenario {scenario}")
    except DomainError as exc:
        raise _invariant_error(f"system.gamma: {exc}") from None
    return gamma


def _gram_pair(entry, j: int, k: int) -> list[float]:
    """The ``[re, im]`` pair of a Gram entry given as a number or a pair."""
    path = f"system.gram[{j}][{k}]"
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        return [_require_number(entry, path), 0.0]
    if isinstance(entry, list) and len(entry) == 2:
        return [_require_number(entry[0], f"{path}[0]"), _require_number(entry[1], f"{path}[1]")]
    raise _schema_error(f"{path}: expected a number or [re, im] pair, got {entry!r}")


class _CustomSystem(dict):
    """A normalized custom system description holding the ``SpectralSystem``
    its invariant check built, so that a run factors the given Gram once."""

    system: SpectralSystem


def _normalize_custom(raw: dict) -> dict:
    _check_keys(raw, "system", ("type", "eigenvalues", "gram"), ("eigenvalues", "gram"))
    eigenvalues = raw["eigenvalues"]
    if not isinstance(eigenvalues, list) or not eigenvalues:
        raise _schema_error("system.eigenvalues: expected a nonempty list of numbers")
    eig = [_require_number(v, f"system.eigenvalues[{i}]") for i, v in enumerate(eigenvalues)]
    gram_raw = raw["gram"]
    if not isinstance(gram_raw, list):
        raise _schema_error("system.gram: expected a list of rows")
    if len(gram_raw) != len(eig):
        raise _invariant_error(
            f"system.gram has {len(gram_raw)} rows for {len(eig)} eigenvalues"
        )
    gram: list[list[list[float]]] = []
    for j, row in enumerate(gram_raw):
        if not isinstance(row, list):
            raise _schema_error(f"system.gram[{j}]: expected a list")
        if len(row) != len(eig):
            raise _invariant_error(
                f"system.gram[{j}] has {len(row)} entries for {len(eig)} eigenvalues"
            )
        gram.append([_gram_pair(entry, j, k) for k, entry in enumerate(row)])
    spec = _CustomSystem(type="custom", eigenvalues=eig, gram=gram)
    try:
        spec.system = SpectralSystem(
            eigenvalues=eig, gram=np.array(gram).view(complex)[..., 0], label="custom system"
        )
    except (DomainError, ShapeError) as exc:
        raise _invariant_error(f"system: {exc}") from None
    return spec


def _normalize_system(raw, scenario: str) -> dict | None:
    """The given system, else the row's default, normalized; None for a scenario without one."""
    row = _SCENARIO_TABLE[scenario]
    if row.system is None:
        if raw is not None:
            raise _invariant_error(f"scenario {scenario} takes no system")
        return None
    if raw is None:
        raw = row.system
    if not isinstance(raw, dict):
        raise _schema_error("system: expected an object")
    kind = raw.get("type")
    if kind == "square":
        return _normalize_square(raw, scenario)
    if kind != "custom":
        raise _schema_error(f"system.type: expected 'square' or 'custom', got {kind!r}")
    if row.gamma_rule is not None:
        raise _invariant_error(f"scenario {scenario} requires a square system")
    return _normalize_custom(raw)


def load_config(source, *, default_scenario: str | None = None) -> RunConfig:
    """Parse and validate a configuration from a file path or inline text.

    ``default_scenario`` fills in the scenario when the document omits it
    (the CLI passes its subcommand); a document that names a different
    scenario than the default is rejected as an invariant violation.
    """
    if isinstance(source, Path):
        path: Path | None = source
    elif isinstance(source, str) and not source.lstrip().startswith("{"):
        path = Path(source)
    else:
        path = None

    if path is not None:
        if not path.exists():
            raise _parse_error(f"config file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise _parse_error(f"cannot read config file {str(path)!r}: {exc}") from None
    else:
        text = str(source)

    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _parse_error(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # an integer past the digit limit, or too deep
        raise _parse_error(str(exc)) from None

    if not isinstance(raw, dict):
        raise _schema_error(f"top level must be an object, got {type(raw).__name__}")
    _check_keys(raw, "top level", [f.name for f in fields(RunConfig)])

    scenario = raw.get("scenario", default_scenario)
    if scenario is None:
        raise _schema_error("scenario: missing (give it in the config or pick a subcommand)")
    if not isinstance(scenario, str) or scenario not in SCENARIOS:
        raise _schema_error(f"scenario: expected one of {list(SCENARIOS)}, got {scenario!r}")
    if default_scenario is not None and scenario != default_scenario:
        raise _invariant_error(
            f"config names scenario {scenario!r} but the subcommand is {default_scenario!r}"
        )

    epsilon = raw.get("epsilon_cluster", DEFAULT_EPSILON_CLUSTER)
    epsilon = _require_number(epsilon, "epsilon_cluster")
    if not epsilon > 0:
        raise _invariant_error(f"epsilon_cluster must be positive, got {epsilon}")

    defaults = {"trials": DEFAULT_TRIALS, "seed": DEFAULT_SEED, "output_path": DEFAULT_OUTPUT}
    given = {key: raw.get(key, default) for key, default in defaults.items()}
    if raw.get("T") is not None:
        given["T"] = raw["T"]
    settings = _check_settings(scenario, given)

    system = _normalize_system(raw.get("system"), scenario)
    return RunConfig(scenario=scenario, system=system, epsilon_cluster=epsilon, **settings)


def default_config(scenario: str) -> RunConfig:
    """The built-in configuration used when no config document is given."""
    return load_config("{}", default_scenario=scenario)


def apply_overrides(
    cfg: RunConfig,
    *,
    seed: int | None = None,
    trials: int | None = None,
    T: float | None = None,
    output_path: str | None = None,
) -> RunConfig:
    """Apply CLI flag overrides on top of a loaded configuration, validated as in ``load_config``."""
    given = {"trials": trials, "seed": seed, "T": T, "output_path": output_path}
    updates = _check_settings(cfg.scenario, {key: value for key, value in given.items() if value is not None})
    return replace(cfg, **updates) if updates else cfg


def gamma_spec_of(system_spec: dict) -> GammaSpec:
    """GammaSpec from a normalized square system description."""
    patches = tuple(
        BoundaryPatch(side=Side.parse(p["side"]), alpha=p["alpha"], beta=p["beta"])
        for p in system_spec["gamma"]
    )
    return GammaSpec(patches)


def system_of(cfg: RunConfig) -> SpectralSystem:
    """The SpectralSystem a RunConfig describes: a square one is built here, a
    custom one was built when its config was checked."""
    spec = cfg.system
    if spec is None:
        raise _invariant_error("this scenario requires a system description")
    if spec["type"] == "square":
        return build_square_system(spec["n_max_eigenvalue"], gamma_spec_of(spec))
    return spec.system
