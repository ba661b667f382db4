"""Unit points, frames and metric Gram-Schmidt on embedded spheres.

Points and vectors are plain sequences of ambient coordinates
(x_1, y_1, ..., x_n, y_n) with z_j = x_j + i y_j.  ``AmbientPoint``
carries the unit-norm invariant of a sampled point and ``Frame`` the
output of Gram-Schmidt; the operations accept and return plain lists.

Gram-Schmidt is generic over lanes: on a lane point and lane vectors it
orthonormalises the frames of a whole batch of samples at once, every
inner product an ordered ``vdot``-style sum, so each lane holds the bits
of its sample's float evaluation.  A drop is decided per lane; lanes
that decide differently raise ``LanesDisagree`` (``vecops.agreed``), and
the caller splits the batch by the decision (``vecops.agreeing_parts``).
"""

import math
from dataclasses import dataclass
from functools import partial

from . import tolerances
from .errors import EmptyFrame
from .vecops import agreed, as_list, clamped_sqrt, vscale, vsub


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
    under ``metric.g``, whose terms of the point p are formed once
    (``metric.at``), and each kept vector's once where the pairing at p
    has a ``row``.

    Vectors whose residual norm falls below the drop tolerance are
    discarded; raises EmptyFrame when nothing survives a non-empty
    input.  On lanes every lane must drop the same inputs, else
    LanesDisagree.
    """
    p = as_list(p)
    g = metric.at(p)
    row = getattr(g, "row", lambda u: partial(g, u))
    kept, rows, inputs = [], [], []
    for i, v in enumerate(vectors):
        w = as_list(v)
        for u, g_u in zip(kept, rows):
            w = vsub(w, vscale(u, g_u(w)))
        # second pass for numerical orthogonality
        for u, g_u in zip(kept, rows):
            w = vsub(w, vscale(u, g_u(w)))
        nrm = clamped_sqrt(g(w, w))
        if agreed(nrm < tolerances.GRAM_SCHMIDT_DROP):
            continue
        kept.append(vscale(w, 1.0 / nrm))
        rows.append(row(kept[-1]))
        inputs.append(i)
    if vectors and not kept:
        raise EmptyFrame("all input vectors dropped below tolerance")
    return Frame(tuple(p), tuple(tuple(w) for w in kept), tuple(inputs))


def orthogonal_tail(metric, p, head, tail):
    """The vectors of ``tail`` that survive Gram-Schmidt on head + tail,
    in order: an orthonormal frame of span(head + tail) orthogonal to head."""
    frame = gram_schmidt(metric, p, [*head, *tail])
    return [list(v) for v, i in zip(frame.vectors, frame.inputs) if i >= len(head)]
