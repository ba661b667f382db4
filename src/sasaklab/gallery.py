"""Built-in example gallery.

Presets are code-defined constants so their integrity is covered by the
test suite.  `ex1gen` takes an `n`; `ex4` takes the two circle weights
through `lam`.
"""

from .config import MAX_N
from .errors import ValidationError


def _ex1gen(n):
    row0 = [1, 1] + [0] * (n - 2)
    row1 = [0, 0] + [1] * (n - 2)
    return {
        "n": n,
        "action_weights": [row0, row1],
        "mu": [1, 1],
        "description": f"two-block circles on S^{2 * n - 1}: pair block and tail block",
    }


def preset_config(name, n=None, lam=None):
    """Raw config dict for a named preset."""
    if name == "ex1":
        cfg = _ex1gen(4)
        cfg["description"] = "two pairs of circles on S^7"
    elif name == "ex1gen":
        n = 5 if n is None else int(n)
        if not 2 <= n <= MAX_N:
            raise ValidationError([f"n: must be in [2, {MAX_N}], got {n}"])
        cfg = _ex1gen(n)
    elif name == "ex2":
        cfg = {
            "n": 4,
            "action_weights": [[-1, 1, 0, 0], [0, 0, 1, 1]],
            "mu": [1, 0],
            "description": "sign-flipped first circle on S^7",
        }
    elif name == "ex3":
        cfg = {
            "n": 4,
            "action_weights": [[1, 0, 0, 0], [0, 1, 1, 1]],
            "mu": [0, 1],
            "description": "one circle on z_0, one on the rest",
        }
    elif name == "ex4":
        lam = (1.0, 1.0) if lam is None else tuple(float(x) for x in lam)
        if len(lam) != 2:
            raise ValidationError(["lam: expected two circle weights"])
        cfg = {
            "n": 4,
            "action_weights": [[lam[0], 0, 0, 0], [0, lam[1], 0, 0]],
            "mu": [1, 1],
            "lam": list(lam),
            "description": "two weighted circles on the first coordinates",
        }
    elif name == "weighted":
        cfg = {
            "n": 3,
            "sphere_weights": [1.0, 2.0, 3.0],
            "action_weights": [[1, 1, 0], [0, 0, 1]],
            "mu": [1, 1],
            "description": "weighted Sasakian S^5 with a block action",
        }
    else:
        raise ValidationError([f"preset: unknown name {name!r}"])
    cfg["preset"] = name
    return cfg


PRESET_NAMES = ("ex1", "ex1gen", "ex2", "ex3", "ex4", "weighted")
