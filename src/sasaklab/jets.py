"""Exact forward-mode derivatives: one jet type, one primitive.

``Dual`` is a tagged dual number whose components may themselves be
duals, so derivatives nest to any order.  Each nesting level carries an
integer tag so that simultaneous perturbations cannot be confused; tags
are handed out by :func:`enter_level`.  Every derivative in
the package is taken by :func:`along`: the eps-coefficient of
``fn(point + eps * direction)``.

Arithmetic is exact in the coefficients (no truncation beyond floating
point), which is what lets curvature residuals reach 1e-7.

The leaves under the nesting may be floats or numpy arrays.  A vector
is one jet whose leaves carry the coordinate axis first: (m,) at a float
point, (m, lanes) on a batch of samples (vector forward mode); ``vector``
stacks a sequence into that form, and ``Dual[k]`` reads coordinates.
Trailing axes broadcast: a scalar of a batch has leaves (lanes,), and a
leaf with fewer axes than the value stands for every coordinate.  Every
operation is element-wise, and numpy rounds each element as Python
rounds a float, so a lane, or an entry of a stack, holds the bits of its
own float evaluation.  Sums over the coordinates are ordered
(``vecops.vsum``): numpy's pairwise sum of a float vector or of one lane
is never used.
"""

import math

import numpy as np

BACKEND = "python"  # echoed as jet_backend in report.json

_level = 0  # nesting depth of the open along() calls


def enter_level():
    global _level
    _level += 1
    return _level


def exit_level():
    global _level
    _level -= 1


class Dual:
    """Tagged dual number ``re + im * eps(lvl)``.

    Components are floats or duals of strictly smaller level, so a value
    depending on several active perturbations is canonically nested with
    the highest level outermost.
    """

    __slots__ = ("lvl", "re", "im")
    # ndarray (op) Dual defers to Dual instead of building an object array
    __array_ufunc__ = None

    def __init__(self, lvl, re, im):
        self.lvl = lvl
        self.re = re
        self.im = im

    def __repr__(self):
        return f"Dual[{self.lvl}]({self.re!r}, {self.im!r})"

    def __add__(self, o):
        if isinstance(o, Dual):
            if o.lvl == self.lvl:
                return Dual(self.lvl, self.re + o.re, self.im + o.im)
            if o.lvl > self.lvl:
                return Dual(o.lvl, o.re + self, o.im)
        return Dual(self.lvl, self.re + o, self.im)

    __radd__ = __add__

    def __neg__(self):
        return Dual(self.lvl, -self.re, -self.im)

    def __sub__(self, o):
        return self + (-o) if isinstance(o, Dual) else Dual(self.lvl, self.re - o, self.im)

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        if isinstance(o, Dual):
            if o.lvl == self.lvl:
                return Dual(
                    self.lvl,
                    self.re * o.re,
                    self.re * o.im + self.im * o.re,
                )
            if o.lvl > self.lvl:
                return Dual(o.lvl, o.re * self, o.im * self)
        return Dual(self.lvl, self.re * o, self.im * o)

    __rmul__ = __mul__

    def _inv(self):
        r = _inv(self.re)
        # (re + im e)^-1 = re^-1 - re^-1 im re^-1 e
        return Dual(self.lvl, r, -(r * self.im * r))

    def __truediv__(self, o):
        if isinstance(o, Dual):
            if o.lvl == self.lvl:
                return self * o._inv()
            if o.lvl > self.lvl:
                return o.__rtruediv__(self)
            return Dual(self.lvl, self.re / o, self.im / o)
        return Dual(self.lvl, self.re / o, self.im / o)

    def __rtruediv__(self, o):
        return self._inv() * o

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise TypeError("Dual only supports non-negative integer powers")
        out = 1.0
        for _ in range(k):
            out = self * out
        return out

    def __getitem__(self, k):
        """Coordinates k of a vector jet: each leaf that carries the
        value's axes is indexed, one with fewer broadcasts over them."""
        nd = np.ndim(value(self))
        if not nd:
            raise TypeError("a scalar jet has no coordinates")
        return leafwise(lambda a: a[k] if np.ndim(a) >= nd else a, self)

    def sqrt(self):
        r = jsqrt(self.re)
        # im / (2 sqrt(re))
        return Dual(self.lvl, r, self.im / (r + r))


def _inv(x):
    if isinstance(x, Dual):
        return x._inv()
    return 1.0 / x


def jsqrt(x):
    """Square root generic over floats, lane arrays and Dual."""
    if isinstance(x, Dual):
        return x.sqrt()
    if isinstance(x, np.ndarray):
        return np.sqrt(x)
    return math.sqrt(x)


def value(x):
    """Strip all jet structure down to the underlying float or lane array."""
    while isinstance(x, Dual):
        x = x.re
    return x


def imag(x, lvl):
    """Coefficient of eps(lvl) in x (zeros of its shape when x does not
    depend on it)."""
    if isinstance(x, Dual) and x.lvl == lvl:
        return x.im
    x = value(x)
    return np.zeros(x.shape) if isinstance(x, np.ndarray) else 0.0


def _coeff(x, lvl):
    """eps(lvl)-coefficient of a scalar or of nested lists/tuples of them."""
    if isinstance(x, (list, tuple)):
        out = [_coeff(c, lvl) if isinstance(c, (list, tuple)) else imag(c, lvl) for c in x]
        return out if isinstance(x, list) else tuple(out)
    return imag(x, lvl)


def leafwise(fn, x):
    """x with fn applied to each of its leaves, the nesting kept."""
    return Dual(x.lvl, leafwise(fn, x.re), leafwise(fn, x.im)) if isinstance(x, Dual) else fn(x)


def expand(u, nd):
    """The vector u with axes inserted after its coordinate axis up to nd
    axes, so that it broadcasts against a vector of nd axes (a float
    vector against lanes, a vector against a stack of them)."""
    full = value(u).ndim
    k = nd - full
    if k <= 0:
        return u
    return leafwise(lambda a: a.reshape(a.shape[:1] + (1,) * k + a.shape[1:])
                    if np.ndim(a) == full else a, u)


def vector(u):
    """u as one vector: an array or a jet passes through, and a sequence
    of floats, lanes or jets is stacked, coordinates first."""
    if isinstance(u, (Dual, np.ndarray)):
        return u
    u = list(u)
    return stack(u, max((np.shape(value(x)) for x in u), default=()))


def stack(xs, lanes=()):
    """The scalars xs as one, every leaf an array of shape (len(xs),) +
    lanes, each entry's own leaf broadcast to the lane shape ``lanes``.
    An entry without a level another entry has gets 0.0 there; no value
    part is formed from an eps-coefficient, so each value keeps its bits."""
    lvl = max((x.lvl for x in xs if isinstance(x, Dual)), default=0)
    if not lvl and not lanes:
        return np.array(xs, dtype=float)
    if not lvl:
        out = np.empty((len(xs),) + lanes)
        for i, x in enumerate(xs):
            out[i] = x
        return out
    tops = [x if isinstance(x, Dual) and x.lvl == lvl else Dual(lvl, x, 0.0) for x in xs]
    return Dual(lvl, stack([t.re for t in tops], lanes), stack([t.im for t in tops], lanes))


def along(fn, point, direction):
    """d/ds fn(point + s*direction) at s = 0.

    ``fn`` takes the point as one vector jet (``vector``) and may return
    a scalar, a vector or nested lists and tuples of them; the result has
    the same shape.  ``point`` and ``direction`` may already be jets from
    an enclosing ``along``; the level tags keep the perturbations apart.
    """
    # enter_level is looked up as a module global on every call, so a
    # wrapper bound to sasaklab.jets.enter_level sees every level opened
    point, direction = vector(point), vector(direction)
    nd = max(np.ndim(value(point)), np.ndim(value(direction)))
    lvl = enter_level()
    try:
        return _coeff(fn(Dual(lvl, expand(point, nd), expand(direction, nd))), lvl)
    finally:
        exit_level()


d_scalar = along  # the earlier name; perfbench/probes.py imports it
