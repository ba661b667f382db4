"""Unit points, frames and metric Gram-Schmidt on embedded spheres.

Points and vectors hold ambient coordinates (x_1, y_1, ..., x_n, y_n)
with z_j = x_j + i y_j, one vector to an array (``vecops``); sequences
are accepted too.  ``unit_points`` checks the unit-norm invariant of
sampled points, a chunk at a time, and ``Frame`` holds the output of
Gram-Schmidt, its vectors one array (k, m) or (k, m, lanes).

Gram-Schmidt is generic over lanes: on a lane point and lane vectors it
orthonormalises the frames of a whole batch of samples at once, every
inner product an ordered sum (``vecops.vdot``), so each lane holds the
bits of its sample's float evaluation.  A drop is decided per lane;
lanes that decide differently raise ``LanesDisagree`` and the caller
splits the batch by the decision (``vecops.agreeing_parts``).
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import tolerances
from .errors import EmptyFrame
from .jets import value, vector
from .vecops import agreed, clamped_sqrt


def unit_points(coords):
    """coords, a point (m,) or the rows of a (samples, m) array, checked
    at once to be unit vectors; ValueError names the first that is not."""
    r = np.atleast_1d(np.sqrt(np.sum(np.square(coords), axis=-1)))
    bad = np.abs(r - 1.0) > tolerances.ON_SPHERE
    if bad.any():
        raise ValueError(f"point has |coords| = {float(r[bad][0])!r}, not 1")
    return coords


@dataclass(frozen=True)
class Frame:
    """Ordered, metric-orthonormal family of ambient vectors at a point."""

    vectors: np.ndarray
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
    p = vector(p)
    g = metric.at(p)
    row = getattr(g, "row", lambda u: partial(g, u))
    kept, rows, inputs = [], [], []
    for i, v in enumerate(vectors):
        w = vector(v)
        for u, g_u in zip(kept, rows):
            w = w - u * g_u(w)
        # second pass for numerical orthogonality
        for u, g_u in zip(kept, rows):
            w = w - u * g_u(w)
        nrm = clamped_sqrt(g(w, w))
        if agreed(nrm < tolerances.GRAM_SCHMIDT_DROP):
            continue
        kept.append(w * (1.0 / nrm))
        rows.append(row(kept[-1]))
        inputs.append(i)
    if len(vectors) and not kept:
        raise EmptyFrame("all input vectors dropped below tolerance")
    stacked = np.array(np.broadcast_arrays(*kept)) if kept else np.empty((0,) + np.shape(value(p)))
    return Frame(stacked, tuple(inputs))


def orthogonal_tail(metric, p, head, tail):
    """The vectors of ``tail`` that survive Gram-Schmidt on head + tail,
    in order: an orthonormal frame of span(head + tail) orthogonal to head."""
    frame = gram_schmidt(metric, p, [*head, *tail])
    return frame.vectors[[k for k, i in enumerate(frame.inputs) if i >= len(head)]]
