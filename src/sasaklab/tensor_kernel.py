"""Unit points, frames and metric Gram-Schmidt on embedded spheres.

Points and vectors are plain sequences of ambient coordinates
(x_1, y_1, ..., x_n, y_n) with z_j = x_j + i y_j.  ``AmbientPoint``
carries the unit-norm invariant of a sampled point and ``Frame`` the
output of Gram-Schmidt; the operations accept and return plain lists.
"""

import math
from dataclasses import dataclass

from . import tolerances
from .errors import EmptyFrame
from .jets import value
from .vecops import as_list, vscale, vsub


@dataclass(frozen=True)
class AmbientPoint:
    """Unit vector in R^{2n} understood as a point of S^{2n-1}."""

    coords: tuple

    def __post_init__(self):
        r = math.sqrt(sum(c * c for c in self.coords))
        if abs(r - 1.0) > tolerances.ON_SPHERE:
            raise ValueError(f"point has |coords| = {r!r}, not 1")

    @classmethod
    def of(cls, coords):
        return cls(tuple(float(c) for c in as_list(coords)))

    def as_list(self):
        return list(self.coords)


@dataclass(frozen=True)
class Frame:
    """Ordered, metric-orthonormal family of ambient vectors at a point."""

    base: tuple
    vectors: tuple
    inputs: tuple = ()  # gram_schmidt: input position of each kept vector

    def __len__(self):
        return len(self.vectors)


def gram_schmidt(metric, p, vectors):
    """Deterministic modified Gram-Schmidt in input order, orthonormal
    under ``metric.g``.

    Vectors whose residual norm falls below the drop tolerance are
    discarded; raises EmptyFrame when nothing survives a non-empty
    input.
    """
    g = metric.g
    p = as_list(p)
    kept, inputs = [], []
    for i, v in enumerate(vectors):
        w = as_list(v)
        for u in kept:
            w = vsub(w, vscale(u, g(p, u, w)))
        # second pass for numerical orthogonality
        for u in kept:
            w = vsub(w, vscale(u, g(p, u, w)))
        nrm = math.sqrt(max(value(g(p, w, w)), 0.0))
        if nrm < tolerances.GRAM_SCHMIDT_DROP:
            continue
        kept.append(vscale(w, 1.0 / nrm))
        inputs.append(i)
    if vectors and not kept:
        raise EmptyFrame("all input vectors dropped below tolerance")
    return Frame(tuple(p), tuple(tuple(w) for w in kept), tuple(inputs))


def orthogonal_tail(metric, p, head, tail):
    """The vectors of ``tail`` that survive Gram-Schmidt on head + tail,
    in order: an orthonormal frame of span(head + tail) orthogonal to head."""
    frame = gram_schmidt(metric, p, [*head, *tail])
    return [list(v) for v, i in zip(frame.vectors, frame.inputs) if i >= len(head)]
