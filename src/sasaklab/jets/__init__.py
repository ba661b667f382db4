"""Exact forward-mode derivatives: one jet type, one primitive.

``Dual`` is a tagged dual number whose components may themselves be
duals, so derivatives nest to any order.  Every derivative in the
package is taken by :func:`along`: the eps-coefficient of
``fn(point + eps * direction)``.

``Dual`` exists twice: a Cython extension (``_jets_cy``) and a
pure-Python reference (``_jets_py``).  The compiled backend is selected
at import when available; set ``SASAKLAB_JETS=python`` to force the
fallback or ``SASAKLAB_JETS=compiled`` to require the extension.

The pure-Python ``Dual`` also takes 1-D numpy arrays as leaves, one
entry per sample, so one evaluation serves a whole batch of samples
(vector forward mode).  The compiled ``Dual`` is float-only; under it
every batch holds one sample.
"""

import os

_choice = os.environ.get("SASAKLAB_JETS", "auto").strip().lower()

if _choice in ("auto", "", "compiled", "cy", "c"):
    try:
        from . import _jets_cy as _backend  # type: ignore[attr-defined]
    except ImportError:
        if _choice not in ("auto", ""):
            raise
        from . import _jets_py as _backend
elif _choice in ("python", "py", "pure"):
    from . import _jets_py as _backend
else:
    raise RuntimeError(f"unknown SASAKLAB_JETS backend {_choice!r}")

BACKEND = _backend.BACKEND
Dual = _backend.Dual
enter_level = _backend.enter_level
exit_level = _backend.exit_level
imag = _backend.imag
jsqrt = _backend.jsqrt
value = _backend.value


def _coeff(x, lvl):
    """eps(lvl)-coefficient of a scalar or of nested lists/tuples of them."""
    if isinstance(x, (list, tuple)):
        out = [_coeff(c, lvl) if isinstance(c, (list, tuple)) else imag(c, lvl) for c in x]
        return out if isinstance(x, list) else tuple(out)
    return imag(x, lvl)


def along(fn, point, direction):
    """d/ds fn(point + s*direction) at s = 0.

    ``fn`` may return a scalar or nested lists and tuples of scalars;
    the result has the same shape.  ``point`` and ``direction`` entries
    may already be jets from an enclosing ``along``; the level tags keep
    the perturbations apart.
    """
    lvl = enter_level()
    try:
        return _coeff(fn([Dual(lvl, p, v) for p, v in zip(point, direction)]), lvl)
    finally:
        exit_level()


d_scalar = along  # the earlier name; perfbench/probes.py imports it

__all__ = [
    "BACKEND",
    "Dual",
    "along",
    "d_scalar",
    "enter_level",
    "exit_level",
    "imag",
    "jsqrt",
    "value",
]
