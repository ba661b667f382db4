# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled jet arithmetic: drop-in twin of `_jets_py`.

The nested dual tower is stored flat: a value depending on the active
perturbation levels (l_1 < ... < l_k, k <= 4) keeps its 2^k Taylor
coefficients in one C array indexed by level subsets.  Multiplication
is a subset convolution; reciprocal and inverse square root use Newton
steps, which terminate exactly on nilpotent perturbations.
"""

import math
import threading

BACKEND = "compiled"

_tls = threading.local()

DEF MAXLEV = 4
DEF MAXCOEF = 16


def enter_level():
    lvl = getattr(_tls, "level", 0) + 1
    _tls.level = lvl
    return lvl


def exit_level():
    _tls.level = getattr(_tls, "level", 0) - 1


cdef class Dual


cdef Dual _blank(int nlev, int* levs):
    cdef Dual out = Dual.__new__(Dual)
    cdef int i
    out.nlev = nlev
    for i in range(nlev):
        out.levs[i] = levs[i]
    for i in range(1 << nlev):
        out.c[i] = 0.0
    return out


cdef int _union_levels(Dual a, Dual b, int* levs) except -1:
    cdef int i = 0, j = 0, n = 0
    while i < a.nlev or j < b.nlev:
        if n >= MAXLEV:
            raise OverflowError("jet nesting deeper than 4 levels")
        if j >= b.nlev or (i < a.nlev and a.levs[i] < b.levs[j]):
            levs[n] = a.levs[i]
            i += 1
        elif i >= a.nlev or b.levs[j] < a.levs[i]:
            levs[n] = b.levs[j]
            j += 1
        else:
            levs[n] = a.levs[i]
            i += 1
            j += 1
        n += 1
    return n


cdef void _promote_dense(Dual x, int nlev, int* levs, double* out):
    """Spread x's coefficients into the (superset) level layout."""
    cdef int i
    cdef int xpos[MAXLEV]
    cdef int k = 0
    cdef int src, dst, bit
    for i in range(1 << nlev):
        out[i] = 0.0
    # positions of x's levels inside the target layout
    for i in range(nlev):
        if k < x.nlev and x.levs[k] == levs[i]:
            xpos[k] = i
            k += 1
    # k == x.nlev by the superset requirement
    for src in range(1 << x.nlev):
        dst = 0
        for bit in range(x.nlev):
            if src & (1 << bit):
                dst |= 1 << xpos[bit]
        out[dst] = x.c[src]


cdef Dual _from_dense(int nlev, int* levs, double* buf):
    cdef Dual out = _blank(nlev, levs)
    cdef int i
    for i in range(1 << nlev):
        out.c[i] = buf[i]
    return out


cdef void _convolve(double* a, double* b, int size, double* out):
    """Nilpotent product: out[m] = sum over s subset of m of a[s] b[m-s]."""
    cdef int m, s
    for m in range(size):
        out[m] = 0.0
        s = m
        while True:
            out[m] += a[s] * b[m ^ s]
            if s == 0:
                break
            s = (s - 1) & m


cdef Dual _coerce(object x):
    cdef Dual out
    if isinstance(x, Dual):
        return <Dual>x
    out = Dual.__new__(Dual)
    out.nlev = 0
    out.c[0] = <double>x
    return out


cdef class Dual:
    """Tagged nested dual number with flat coefficient storage."""

    cdef int nlev
    cdef int levs[MAXLEV]
    cdef double c[MAXCOEF]

    def __init__(self, int lvl, re, im):
        cdef Dual a = _coerce(re)
        cdef Dual b = _coerce(im)
        cdef int levs[MAXLEV]
        cdef int n = _union_levels(a, b, levs)
        if n and levs[n - 1] >= lvl:
            raise ValueError("new level must dominate component levels")
        if n + 1 > MAXLEV:
            raise OverflowError("jet nesting deeper than 4 levels")
        cdef double bufa[MAXCOEF]
        cdef double bufb[MAXCOEF]
        _promote_dense(a, n, levs, bufa)
        _promote_dense(b, n, levs, bufb)
        cdef int i
        self.nlev = n + 1
        for i in range(n):
            self.levs[i] = levs[i]
        self.levs[n] = lvl
        for i in range(1 << n):
            self.c[i] = bufa[i]
            self.c[i + (1 << n)] = bufb[i]

    def __repr__(self):
        levels = [self.levs[i] for i in range(self.nlev)]
        coeffs = [self.c[i] for i in range(1 << self.nlev)]
        return f"Dual(levels={levels}, coeffs={coeffs})"

    @property
    def lvl(self):
        return self.levs[self.nlev - 1] if self.nlev else 0

    @property
    def re(self):
        return _project(self, self.levs[self.nlev - 1], 0) if self.nlev else self.c[0]

    @property
    def im(self):
        return _project(self, self.levs[self.nlev - 1], 1) if self.nlev else 0.0

    # ---- arithmetic ----

    def __add__(self, o):
        if not isinstance(self, Dual):
            return (<Dual>o)._add_scalar(<double>self)
        if isinstance(o, Dual):
            return _add(<Dual>self, <Dual>o)
        return (<Dual>self)._add_scalar(<double>o)

    def __radd__(self, o):
        return self._add_scalar(<double>o)

    cdef Dual _add_scalar(self, double v):
        cdef Dual out = _from_dense(self.nlev, self.levs, self.c)
        out.c[0] += v
        return out

    def __neg__(self):
        cdef Dual out = _from_dense(self.nlev, self.levs, self.c)
        cdef int i
        for i in range(1 << self.nlev):
            out.c[i] = -out.c[i]
        return out

    def __sub__(self, o):
        if not isinstance(self, Dual):
            return (<Dual>(-o))._add_scalar(<double>self)
        if isinstance(o, Dual):
            return _add(<Dual>self, <Dual>(-o))
        return (<Dual>self)._add_scalar(-<double>o)

    def __rsub__(self, o):
        return (<Dual>(-self))._add_scalar(<double>o)

    def __mul__(self, o):
        if not isinstance(self, Dual):
            return (<Dual>o)._mul_scalar(<double>self)
        if isinstance(o, Dual):
            return _mul(<Dual>self, <Dual>o)
        return (<Dual>self)._mul_scalar(<double>o)

    def __rmul__(self, o):
        return self._mul_scalar(<double>o)

    cdef Dual _mul_scalar(self, double v):
        cdef Dual out = _from_dense(self.nlev, self.levs, self.c)
        cdef int i
        for i in range(1 << self.nlev):
            out.c[i] *= v
        return out

    def __truediv__(self, o):
        if not isinstance(self, Dual):
            return _mul(_inv(<Dual>o), _coerce(self))
        if isinstance(o, Dual):
            return _mul(<Dual>self, _inv(<Dual>o))
        return (<Dual>self)._mul_scalar(1.0 / <double>o)

    def __rtruediv__(self, o):
        return _inv(<Dual>self)._mul_scalar(<double>o)

    def __pow__(self, k, mod):
        if not isinstance(k, int) or k < 0:
            raise TypeError("Dual only supports non-negative integer powers")
        out = 1.0
        for _ in range(k):
            out = self * out
        return out

    def sqrt(self):
        return _sqrt(self)


cdef Dual _add(Dual a, Dual b):
    cdef int levs[MAXLEV]
    cdef int n = _union_levels(a, b, levs)
    cdef double bufa[MAXCOEF]
    cdef double bufb[MAXCOEF]
    cdef int i, size = 1 << n
    cdef Dual res
    if a.nlev == n and b.nlev == n:
        # same layout: no promotion needed
        res = _blank(n, a.levs)
        for i in range(size):
            res.c[i] = a.c[i] + b.c[i]
        return res
    _promote_dense(a, n, levs, bufa)
    _promote_dense(b, n, levs, bufb)
    res = _blank(n, levs)
    for i in range(size):
        res.c[i] = bufa[i] + bufb[i]
    return res


cdef Dual _mul(Dual a, Dual b):
    cdef int levs[MAXLEV]
    cdef int n = _union_levels(a, b, levs)
    cdef double bufa[MAXCOEF]
    cdef double bufb[MAXCOEF]
    cdef double out[MAXCOEF]
    cdef int size = 1 << n
    if a.nlev == n and b.nlev == n:
        _convolve(a.c, b.c, size, out)
        return _from_dense(n, a.levs, out)
    _promote_dense(a, n, levs, bufa)
    _promote_dense(b, n, levs, bufb)
    _convolve(bufa, bufb, size, out)
    return _from_dense(n, levs, out)


cdef Dual _inv(Dual b):
    """Reciprocal by Newton iteration: exact on nilpotent perturbations."""
    cdef int size = 1 << b.nlev
    cdef double r[MAXCOEF]
    cdef double t[MAXCOEF]
    cdef double u[MAXCOEF]
    cdef int i, it
    for i in range(size):
        r[i] = 0.0
    r[0] = 1.0 / b.c[0]
    for it in range(3):
        if size == 1:
            break
        _convolve(b.c, r, size, t)      # t = b r
        for i in range(size):
            t[i] = -t[i]
        t[0] += 2.0                      # t = 2 - b r
        _convolve(r, t, size, u)         # r = r (2 - b r)
        for i in range(size):
            r[i] = u[i]
    return _from_dense(b.nlev, b.levs, r)


cdef Dual _sqrt(Dual b):
    """sqrt via inverse-square-root Newton steps (division-free)."""
    cdef int size = 1 << b.nlev
    cdef double y[MAXCOEF]
    cdef double t[MAXCOEF]
    cdef double u[MAXCOEF]
    cdef int i, it
    for i in range(size):
        y[i] = 0.0
    y[0] = 1.0 / math.sqrt(b.c[0])
    for it in range(3):
        if size == 1:
            break
        _convolve(y, y, size, t)         # y^2
        _convolve(b.c, t, size, u)       # b y^2
        for i in range(size):
            u[i] = -0.5 * u[i]
        u[0] += 1.5                      # (3 - b y^2)/2
        _convolve(y, u, size, t)
        for i in range(size):
            y[i] = t[i]
    _convolve(b.c, y, size, t)           # sqrt(b) = b * invsqrt(b)
    return _from_dense(b.nlev, b.levs, t)


cdef object _project(Dual x, int lvl, int part):
    """Coefficient slice of eps(lvl): part 0 keeps, part 1 extracts."""
    cdef int pos = -1
    cdef int i
    for i in range(x.nlev):
        if x.levs[i] == lvl:
            pos = i
            break
    if pos < 0:
        return None
    cdef int n = x.nlev - 1
    cdef int levs[MAXLEV]
    cdef int k = 0
    for i in range(x.nlev):
        if i != pos:
            levs[k] = x.levs[i]
            k += 1
    cdef Dual out = _blank(n, levs)
    cdef int m, src, bit, dst
    for m in range(1 << n):
        src = 0
        for bit in range(n):
            if m & (1 << bit):
                src |= 1 << (bit if bit < pos else bit + 1)
        if part:
            src |= 1 << pos
        out.c[m] = x.c[src]
    if n == 0:
        return out.c[0]
    return out


def imag(x, int lvl):
    """Coefficient of eps(lvl) in x (0.0 when x does not depend on it)."""
    if not isinstance(x, Dual):
        return 0.0
    out = _project(<Dual>x, lvl, 1)
    return 0.0 if out is None else out


def value(x):
    """Strip all jet structure down to the underlying float."""
    if isinstance(x, Dual):
        return (<Dual>x).c[0]
    return x


def jsqrt(x):
    """Square root generic over floats and Dual."""
    if isinstance(x, Dual):
        return _sqrt(<Dual>x)
    return math.sqrt(x)
