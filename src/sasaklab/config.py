"""Run configuration: one JSON object per run, validated exhaustively."""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import ParseError, ValidationError

MAX_N = 1000  # largest ambient complex dimension; bounds every n-sized list
# bounds on the counts a run loops over, far above any run the tests or the
# benchmark make, so an absurd count is a config error, not an exhausted host
MAX_SAMPLES = 100_000
MAX_FLOW_STEPS = 100_000
MAX_DIRECTIONS = 100


def _float(x):
    """float(x), with an integer beyond the float range as an infinity."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


@dataclass
class RunConfig:
    n: int
    sphere_weights: list
    action_weights: list
    mu: list | None
    samples: int
    seed: int
    tol: dict
    flow_steps: int = 512
    directions: int = 2
    preset: str | None = None
    description: str = ""

    @property
    def d(self):
        return len(self.action_weights)

    @property
    def is_round(self):
        return all(abs(w - 1.0) < 1e-15 for w in self.sphere_weights)

    def echo(self):
        return {
            "n": self.n,
            "sphere_weights": list(self.sphere_weights),
            "action_weights": [list(r) for r in self.action_weights],
            "mu": None if self.mu is None else list(self.mu),
            "samples": self.samples,
            "seed": self.seed,
            "flow_steps": self.flow_steps,
            "directions": self.directions,
            "preset": self.preset,
            "description": self.description,
            "tolerances": dict(sorted(self.tol.items())),
        }


def read_config(path):
    """The raw JSON object of a config file; ParseError when the file is
    unreadable, not JSON, or not an object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError([f"config: cannot read {path}: {exc}"]) from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, an integer too long to read
        raise ParseError([f"config: invalid JSON in {path}: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ParseError(["config: top level must be a JSON object"])
    return raw


def parse_numbers(name, text):
    """The comma-separated numbers of a command-line option such as --mu;
    ValidationError when an entry is not a number."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise ValidationError([f"{name}: expected comma-separated numbers, got {text!r}"]) from None


def build_config(raw, command=None, preset=None):
    """Validate a raw dict; every violation is reported, not just the first.
    ``preset`` names the gallery preset ``raw`` came from, for the echo."""
    errors = []

    def get_int(name, default, minimum, maximum=None):
        v = raw.get(name, default)
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
            errors.append(f"{name}: expected integer, got {v!r}")
            return default
        if v < minimum:
            errors.append(f"{name}: must be >= {minimum}, got {v}")
            return default
        if maximum is not None and v > maximum:
            errors.append(f"{name}: must be <= {maximum}, got {v}")
            return default
        return int(v)

    def get_floats(name, v):
        # v as a list of finite floats, or None once the violation is recorded
        try:
            out = [_float(x) for x in v]
        except (TypeError, ValueError):
            errors.append(f"{name}: expected numbers, got {v!r}")
            return None
        if not all(math.isfinite(x) for x in out):
            errors.append(f"{name}: entries must be finite, got {v!r}")
            return None
        return out

    n = get_int("n", 4, 2, MAX_N)
    samples = get_int("samples", 100, 1, MAX_SAMPLES)
    seed = get_int("seed", 0, 0)
    flow_steps = get_int("flow_steps", 512, 64, MAX_FLOW_STEPS)
    directions = get_int("directions", 2, 1, MAX_DIRECTIONS)

    sw = get_floats("sphere_weights", raw.get("sphere_weights", [1.0] * n))
    if sw is None:
        sw = [1.0] * n
    if len(sw) != n:
        errors.append(f"sphere_weights: expected {n} entries, got {len(sw)}")
    if any(x <= 0 for x in sw):
        errors.append("sphere_weights: entries must be strictly positive")
    if any(a > b for a, b in zip(sw, sw[1:])):
        errors.append("sphere_weights: entries must be nondecreasing")

    aw = raw.get("action_weights")
    if aw is None:
        errors.append("action_weights: required")
        aw = [[0.0] * n]
    else:
        try:
            aw = [[_float(x) for x in row] for row in aw]
        except (TypeError, ValueError):
            errors.append(f"action_weights: expected a matrix, got {aw!r}")
            aw = [[0.0] * n]
        if len(aw) < 1:
            errors.append("action_weights: need at least one row (d >= 1)")
        if any(len(row) != n for row in aw):
            errors.append(f"action_weights: every row must have n = {n} entries")
        if not all(math.isfinite(x) for row in aw for x in row):
            errors.append("action_weights: entries must be finite")

    mu = raw.get("mu")
    if mu is not None:
        mu = get_floats("mu", mu)
    needs_mu = command in ("check-hypotheses", "reduce", "curvature-scan", "cone-check")
    if needs_mu:
        if raw.get("mu") is None:
            errors.append(f"mu: required for command {command!r}")
        elif mu is not None and all(x == 0.0 for x in mu):
            errors.append("mu: must not be all zero for ray reduction")
    if mu is not None and any(mu):
        with np.errstate(over="ignore", under="ignore"):
            norm = float(np.linalg.norm(mu))
        if not (math.isfinite(norm) and norm > 0.0):
            errors.append(f"mu: its norm {norm!r} is not a positive finite float")
    if mu is not None and len(aw) and len(mu) != len(aw):
        errors.append(f"mu: expected {len(aw)} entries to match d, got {len(mu)}")

    tol = dict(tolerances.DEFAULTS)
    overrides = raw.get("tolerances", {})
    if not isinstance(overrides, dict):
        errors.append("tolerances: expected a name -> value map")
    else:
        for k, v in overrides.items():
            if k not in tol:
                errors.append(f"tolerances.{k}: unknown tolerance name")
            elif (not isinstance(v, (int, float)) or isinstance(v, bool)
                  or not math.isfinite(_float(v)) or v < 0):
                errors.append(f"tolerances.{k}: expected a finite number >= 0, got {v!r}")
            else:
                tol[k] = float(v)

    known = {
        "n", "sphere_weights", "action_weights", "mu", "samples", "seed",
        "tolerances", "flow_steps", "directions", "description",
    }
    for k in raw:
        if k not in known:
            errors.append(f"{k}: unknown field")

    if errors:
        raise ValidationError(errors)
    return RunConfig(
        n=n, sphere_weights=sw, action_weights=aw, mu=mu, samples=samples,
        seed=seed, tol=tol, flow_steps=flow_steps, directions=directions,
        preset=preset, description=raw.get("description", ""),
    )
