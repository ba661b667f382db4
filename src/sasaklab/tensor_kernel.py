"""Extrinsic differential-geometry operations on embedded spheres.

Points and vectors are plain sequences of ambient coordinates
(x_1, y_1, ..., x_n, y_n) with z_j = x_j + i y_j.  The light wrapper
types below carry the invariants that the rest of the package relies
on; the operations themselves accept and return plain lists.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import EmptyFrame, NotDifferentiable
from .geometry import Geometry, InducedMetric
from .jets import along, jsqrt, value
from .manifolds import Sphere
from .vecops import as_list, cmult, vdot, vscale, vsub


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

    @property
    def n(self):
        return len(self.coords) // 2

    def as_list(self):
        return list(self.coords)


@dataclass(frozen=True)
class TangentVector:
    """An ambient vector attached to a base point."""

    base: AmbientPoint
    vec: tuple

    @classmethod
    def of(cls, base, vec, tangent=True):
        base = base if isinstance(base, AmbientPoint) else AmbientPoint.of(base)
        vec = tuple(float(c) for c in as_list(vec))
        if tangent:
            pairing = abs(sum(a * b for a, b in zip(vec, base.coords)))
            if pairing > tolerances.TANGENCY:
                raise ValueError(f"<vec, base> = {pairing:.3e}, not tangent")
        return cls(base, vec)

    def as_list(self):
        return list(self.vec)


@dataclass(frozen=True)
class Frame:
    """Ordered, metric-orthonormal family of ambient vectors at a point."""

    base: tuple
    vectors: tuple
    inputs: tuple = ()  # gram_schmidt: input position of each kept vector

    def __len__(self):
        return len(self.vectors)

    def __iter__(self):
        return (list(v) for v in self.vectors)

    def __getitem__(self, i):
        return list(self.vectors[i])

    @property
    def matrix(self):
        return np.asarray(self.vectors, dtype=float).reshape(len(self.vectors), -1)


def complex_mult(v):
    """i * v on pairwise coordinates: (x_j, y_j) -> (-y_j, x_j)."""
    return cmult(as_list(v))


def tangential_project(p, v):
    """v - <v, p> p, the extrinsic tangent projection on the sphere."""
    p, v = as_list(p), as_list(v)
    return vsub(v, vscale(p, vdot(v, p)))


def _metric_callable(metric):
    if metric is None:
        return InducedMetric().g
    return metric.g if hasattr(metric, "g") else metric


def gram_schmidt(metric, p, vectors):
    """Deterministic modified Gram-Schmidt in input order.

    Vectors whose residual norm falls below the drop tolerance are
    discarded; raises EmptyFrame when nothing survives a non-empty
    input.
    """
    g = _metric_callable(metric)
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


def directional_derivative(field, p, direction, order=1):
    """Derivatives of t -> field(normalize(p + t direction)) at t = 0.

    Exact through nested duals (never finite differences).  Returns
    the first-derivative vector, or a (d1, d2) pair for order=2.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    p, direction = as_list(p), as_list(direction)

    def on_curve(q):
        return field(vscale(q, 1.0 / jsqrt(vdot(q, q))))

    def first(q):
        return along(on_curve, q, direction)

    try:
        d1 = first(p)
        if order == 1:
            return d1
        return d1, along(first, p, direction)
    except (TypeError, AttributeError) as exc:
        raise NotDifferentiable(f"field evaluator rejected jet input: {exc}") from exc


def koszul_connection(metric, p, X, Y_field, manifold=None):
    """(nabla_X Y)(p) through the explicit Koszul formula."""
    man = manifold if manifold is not None else Sphere(len(as_list(p)))
    geo = Geometry(man, metric)
    p = as_list(p)
    geo.check_metric(p)
    return geo.covariant_koszul(p, geo.extend(as_list(X)), Y_field)


def curvature_operator(metric, p, X, Y, Z, manifold=None):
    """R(X,Y)Z under the fixed extension convention."""
    man = manifold if manifold is not None else Sphere(len(as_list(p)))
    geo = Geometry(man, metric)
    return geo.curvature(as_list(p), as_list(X), as_list(Y), as_list(Z))


def lie_bracket(X_field, Y_field, p, manifold=None):
    """[X, Y](p), projected to the manifold currently in scope."""
    man = manifold if manifold is not None else Sphere(len(as_list(p)))
    geo = Geometry(man, None)
    return geo.bracket(as_list(p), X_field, Y_field, project=True)
