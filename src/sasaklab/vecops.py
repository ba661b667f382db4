"""Vectors and batches, generic over jet scalars.

An ambient vector is one array whose axis 0 holds its m coordinates,
(m,) at a float point and (m, lanes) on a batch of samples, or one jet
with such leaves (``jets``).  A float vector meeting lanes takes the
shape (m, 1) (``jets.expand``), and axes between coordinates and lanes
stack vectors.  ``stack_lanes`` builds lane vectors from per-sample
float vectors, and ``split_frame`` reads each sample's back; a chunk of
points is one (samples, m) array (``rowdot``).

Every sum over coordinates is ordered, (u_0 v_0 + u_1 v_1) + ..., as
the float formula sums it (``vsum``, ``vdot``).  numpy's ``add.reduce``
over axis 0 of a C-contiguous array adds row after row in that order
when a row holds at least 2 elements; a 1-D array, or rows of one
element (one lane), it sums pairwise, so those take an explicit sum.
A linear combination of vectors is ordered too (``combine``): the
walk's directions, the CLI's directions and the CR splitting's rows
each sum their weighted vectors in order, with no matrix product.

Two constants size every batch, and ``batches`` cuts them all: a chunk
of samples (the CLI's lane batches, the hit-and-run walk) holds at most
``LANE_BATCH_WIDTH`` samples, and one jet pass (a pair pass, a cone
build) at most ``PASS_LANES`` lanes.  Both bound memory only: no value
depends on where a batch ends.

A float-level decision (a Gram-Schmidt drop, a rank) is made per lane.
``agreed`` lets a batch go on as one while every lane decides alike and
raises ``LanesDisagree`` otherwise; ``agreeing_parts`` then runs each
group of agreeing lanes again on its own, so every lane goes through
exactly the operations of its float evaluation.

Every random number comes from one stream per run and purpose, cut
into a fixed block of uniforms a sample (``uniforms``), so sample i's
draws depend neither on the count nor on the chunk.  A stream is
counter-based: each uniform is a hash (``mix64``) of its index and the
stream's key, so a block is computed at its offset, with no generator
state to advance.
"""

import math
from functools import cache, partial, reduce
from operator import add

import numpy as np

from . import tolerances
from .jets import expand, jsqrt, leafwise, value, vector


def vsum(u):
    """sum_k u[k] over the coordinate axis, in coordinate order."""
    if type(u) is np.ndarray:
        return _ordered_sum(u.shape, u)
    return leafwise(partial(_ordered_sum, np.shape(value(u))), u)


def _ordered_sum(shape, a):
    if type(a) is not np.ndarray or a.ndim < len(shape):
        # a leaf standing for every coordinate
        a = np.broadcast_to(a, shape[:len(shape) - np.ndim(a)] + np.shape(a))
    if a.ndim > 1 and a.size != a.shape[0]:
        return np.add.reduce(a if a.flags.c_contiguous else np.ascontiguousarray(a), axis=0)
    # a float vector, or one element a row: add.reduce would sum pairwise
    acc = reduce(add, a.reshape(a.shape[0], -1)[:, 0].tolist() if a.ndim > 1 else a.tolist())
    return acc if a.ndim == 1 else np.full(a.shape[1:], acc)


def vdot(u, v):
    """Ordered inner product over the coordinates; a vector with fewer
    axes gains them after its coordinate axis (``jets.expand``)."""
    x, y = value(u), value(v)
    if x.ndim != y.ndim:
        u, v = expand(u, y.ndim), expand(v, x.ndim)
    return vsum(u * v)


def rowdot(a, b):
    """Row-wise a . b of (samples, m) arrays, b possibly one shared
    m-vector, as an ordered sum over coordinate lanes (``vdot``)."""
    return vdot(a.T, b.T)


def unit_rows(z):
    """Each row of the (samples, m) array z divided by its length."""
    return z / np.sqrt(rowdot(z, z))[:, None]


# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): the Weyl increment of
# its counter and the two multipliers of its finaliser
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_WORD = 0xFFFFFFFFFFFFFFFF
# uniforms hashed at a time: two uint64 scratch blocks stay in cache
_HASH_BLOCK = 1 << 15


def mix64(z, tmp):
    """SplitMix64's finaliser, a bijection of 64-bit words, in place on
    the uint64 array z; tmp is a scratch array of its shape."""
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        z *= mult
    np.right_shift(z, 31, out=tmp)
    z ^= tmp
    return z


@cache
def stream_key(seed, salt):
    """The key of the stream (seed, salt), an int below 2^64: every
    64-bit word of the integer seed >= 0, lowest first, and then salt,
    each xored into the key and passed through ``mix64``."""
    words = [seed & _WORD]
    while (seed := seed >> 64) > 0:
        words.append(seed & _WORD)
    key = np.zeros(1, dtype=np.uint64)
    for w in words + [salt]:
        key ^= np.uint64(w)
        mix64(key, np.empty_like(key))
    return int(key[0])


def uniforms(seed, salt, start, count, *shape):
    """The blocks of samples start, ..., start + count - 1, (count,
    *shape) doubles in [0, 1), of the stream (seed, salt).

    The stream is SplitMix64 run as a counter-based generator (Salmon et
    al., SC '11): uniform j is (mix64(key + (j + 1) gamma) >> 11) 2^-53
    (all mod 2^64), the key from ``stream_key``, so sample i's block
    starts at j = i prod(shape) and is computed without the ones before
    it.  The hash runs in place, ``_HASH_BLOCK`` uniforms at a time."""
    per = math.prod(shape)
    key, first = stream_key(seed, salt), start * per + 1
    out = np.empty(count * per)
    steps = np.arange(min(_HASH_BLOCK, out.size), dtype=np.uint64)
    steps *= np.uint64(_GAMMA)  # k gamma
    z, tmp = np.empty_like(steps), np.empty_like(steps)
    for a in range(0, out.size, _HASH_BLOCK):
        m = min(_HASH_BLOCK, out.size - a)
        np.add(steps[:m], np.uint64((key + (first + a) * _GAMMA) & _WORD), out=z[:m])
        mix64(z[:m], tmp[:m])
        z[:m] >>= np.uint64(11)
        np.multiply(z[:m], 2.0 ** -53, out=out[a:a + m])
    return out.reshape(count, *shape)


def normals(u):
    """Standard normals by Box-Muller, one for each uniform of u, whose
    last axis is even: the pair (a, b) gives r cos t and r sin t, with
    r = sqrt(-2 log(1 - a)) (1 - a > 0) and t = 2 pi b."""
    r = np.sqrt(-2.0 * np.log(1.0 - u[..., 0::2]))
    t = 2.0 * math.pi * u[..., 1::2]
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1).reshape(u.shape)


def cmult(v):
    """Multiplication by i on pairwise coordinates (x, y) -> (-y, x): a
    signed permutation of the coordinate rows (a product with -1.0 is an
    exact negation)."""
    if type(v) is not np.ndarray:
        shape = np.shape(value(v))
        return leafwise(lambda a: cmult(np.broadcast_to(a, shape) if np.ndim(a) < len(shape) else a),
                        v)
    perm, sign = _signed_swap(v.shape[0], v.ndim)
    return v[perm] * sign


@cache
def _signed_swap(m, nd):
    """The row permutation 0 <-> 1, 2 <-> 3, ... of cmult and its signs."""
    rows = np.arange(m)
    sign = np.where(rows % 2 == 0, -1.0, 1.0).reshape((m,) + (1,) * (nd - 1))
    return rows ^ 1, sign


def combine(w, vectors):
    """sum_i w[:, i] vectors[i], one array (rows, m) + lanes: row r
    weighs the k vectors (k, m) + lanes by w[r], (rows, k) + lanes,
    summed in order i, each product and sum elementwise, so each lane
    holds the bits of its sample's float combination.  No vectors (k = 0)
    combine to zeros."""
    if not len(vectors):
        return np.zeros((len(w),) + np.shape(vectors)[1:])
    out = w[:, 0, None] * vectors[0]
    for i in range(1, len(vectors)):
        out = out + w[:, i, None] * vectors[i]
    return out


def per_coordinate(c, x):
    """The coefficients c, one per coordinate, shaped to scale the vector x."""
    nd = value(x).ndim
    return c if nd == 1 else np.reshape(c, np.shape(c) + (1,) * (nd - 1))


def stack_lanes(vectors):
    """One lane vector (m, samples) from equal-length float vectors, one
    per sample.  A single vector comes back as a float vector, so a batch
    of one runs on floats."""
    if len(vectors) == 1:
        return np.array(vectors[0], dtype=float)
    return np.array(vectors, dtype=float).T.copy()


def lane_width(u):
    """The number of lanes of the vector u, None when u holds floats only."""
    return np.shape(value(u))[-1] if np.ndim(value(u)) > 1 else None


def lane_stack(rows):
    """A matrix, given as its row vectors or as one array (rows, columns)
    + lanes, as one (samples, rows, columns) stack, jets stripped and a
    float row filling every lane; a matrix of floats comes back 2-D."""
    if not isinstance(rows, np.ndarray):
        rows = [value(r) for r in rows]
        nd = max((r.ndim for r in rows), default=1)
        rows = np.array(np.broadcast_arrays(*(expand(r, nd) for r in rows)))
    return np.moveaxis(rows, -1, 0) if rows.ndim > 2 else rows


def pairings(g, A, B):
    """g(a, b) for every vector a of A and b of B, one array (len(A),
    len(B)) + lanes, jets stripped: a row of g (``g.row(a)`` where the
    pairing has one) on the stack of B for each a, every entry with the
    bits of g(a, b) alone."""
    if not (len(A) and len(B)):
        return np.zeros((len(A), len(B)))
    row = getattr(g, "row", lambda u: partial(g, u))
    B = np.moveaxis(np.asarray(B, dtype=float), 0, 1)
    return np.array([value(row(np.asarray(a, dtype=float))(B)) for a in A])


def split_lanes(u):
    """The per-sample float vectors of a lane vector, as the contiguous
    rows of one (samples, m) array, or None when u holds no lanes."""
    if lane_width(u) is None:
        return None
    return np.ascontiguousarray(np.moveaxis(value(u), -1, 0))


def split_frame(vectors, width):
    """Sample by sample, the (k, m) float frame of a frame of lane
    vectors (k, m, width); a float frame is every sample's."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim < 3:
        return [vectors] * width
    return [vectors[..., i] for i in range(width)]


# samples of one chunk: a chunk holds all of its samples' jets, or walk
# draws, at once
LANE_BATCH_WIDTH = 512
# lanes of one jet pass: a pair pass holds pairs x samples lanes, each with
# a Christoffel tensor on a weighted metric, and a cone build m^2 lanes a
# point, each with (m, m) jet leaves
PASS_LANES = 1024


def batches(items, lanes=None):
    """(index of the first, part) of the sequence items, in index order:
    chunks of at most ``LANE_BATCH_WIDTH`` items, or with ``lanes`` lanes
    an item, passes of at most ``PASS_LANES`` lanes; never fewer than one
    item to a batch."""
    per = LANE_BATCH_WIDTH if lanes is None else max(1, PASS_LANES // lanes)
    return [(k, items[k:k + per]) for k in range(0, len(items), per)]


def tile_lanes(u, reps):
    """The vector u with its lanes repeated reps times (lane k * width + s
    holds sample s); a float vector, every lane's, becomes a column."""
    if reps == 1:
        return u
    return u[:, None] if np.ndim(u) == 1 else np.tile(u, reps)


def join_lanes(vectors, width):
    """The vectors of ``width`` lanes each (None: floats), jets stripped,
    as one lane vector holding them one after the other; a float vector
    of a lane pass fills its lanes."""
    V = np.array(np.broadcast_arrays(*(expand(value(vector(v)), 2) for v in vectors)))
    return np.moveaxis(V, 0, 1).reshape(V.shape[1], -1)


def cut_lanes(x, reps, width):
    """``join_lanes`` undone on a scalar or a vector: the reps parts of
    ``width`` lanes each (None: floats).  A value that holds no lanes is
    every part's."""
    x = value(x)
    w = width or 1
    if np.ndim(x) == 0 or x.shape[-1] != reps * w:
        return [x] * reps
    return [x[..., k * w:(k + 1) * w] if width else x[..., k] for k in range(reps)]


def pair_lanes(fn, p, pairs):
    """[fn(p, 1, u, v) for (u, v) in pairs], with the pairs run as lanes.

    ``fn(q, reps, u, v)`` evaluates one pair at the point q.  A pass of
    reps > 1 pairs passes q = ``tile_lanes(p, reps)`` and the pairs'
    vectors joined along the lane axis (``join_lanes``), so one
    evaluation serves them all; fn tiles any other lane vector of p it
    reads with ``tile_lanes(w, reps)``.  A pass holds at most
    ``PASS_LANES`` lanes (``batches``), and one pair runs on p itself.
    Every lane runs the elementwise operations of its own pair's
    evaluation, so each result holds the bits of fn on its pair alone.
    """
    width = lane_width(p)
    out = []
    for _, part in batches(pairs, width or 1):
        reps = len(part)
        if reps == 1:
            out.append(fn(p, 1, *part[0]))
            continue
        us = join_lanes([u for u, _ in part], width)
        vs = join_lanes([v for _, v in part], width)
        out.extend(cut_lanes(fn(tile_lanes(p, reps), reps, us, vs), reps, width))
    return out


class LanesDisagree(Exception):
    """The lanes of a batch differ in a float-level decision; ``keys``
    holds each lane's decision."""

    def __init__(self, keys):
        super().__init__(f"lanes disagree: {keys}")
        self.keys = keys


def agreed(decision):
    """The float-level decision every lane makes: a float decision
    passes through, lanes (an array, or a list of per-lane keys) must
    all decide alike, else LanesDisagree."""
    if isinstance(decision, np.ndarray):
        decision = decision.tolist()
    if not isinstance(decision, list):
        return decision
    if any(k != decision[0] for k in decision):
        raise LanesDisagree(decision)
    return decision[0]


def agreeing_parts(fn, indices):
    """[(indices, fn(indices))]: fn runs on the lanes ``indices`` of a
    batch as one while they make the same float-level decisions.  Where
    they disagree, the lanes are grouped by the decision, in order of
    first appearance, and fn runs again on each group on its own."""
    try:
        return [(indices, fn(indices))]
    except LanesDisagree as exc:
        groups = {}
        for i, key in zip(indices, exc.keys):
            groups.setdefault(key, []).append(i)
        return [part for group in groups.values() for part in agreeing_parts(fn, group)]


def svd_rank(svals, rel=tolerances.RANK_SINGULAR_VALUE):
    """The rank rule: how many singular values exceed rel * max(1, s_0),
    s_0 the largest; on a stack (..., k) of them, one count per matrix."""
    top = svals[..., :1]
    return np.sum(svals > rel * np.where(top > 1.0, top, 1.0), axis=-1)


def clamped_sqrt(x):
    """sqrt(max(x, 0.0)) of a float or of lanes, jets stripped: a square
    norm that rounding left below zero reads 0, and NaN stays NaN."""
    return jsqrt(nonnegative(x))


def nonnegative(x):
    """max(x, 0.0) of a float or of lanes, jets stripped; on lanes it
    keeps what Python's max keeps (NaN and -0.0), lane by lane."""
    x = value(x)
    if isinstance(x, np.ndarray):
        return np.where(x < 0.0, 0.0, x)
    return max(x, 0.0)


def lane_max(xs):
    """max(xs) of floats or lanes, lane by lane as Python's max: an entry
    replaces the running maximum only when it is greater, so a NaN is
    kept only where it comes first."""
    if not any(isinstance(x, np.ndarray) for x in xs):
        return max(xs)
    out = xs[0]
    for x in xs[1:]:
        out = np.where(x > out, x, out)
    return out


def lane_pow(x, k):
    """x ** k of a float or of lanes.  numpy's power, and its x * x fast
    path for k = 2, round differently from the libm pow that a float
    uses, so lanes take Python's power one by one."""
    if isinstance(x, np.ndarray):
        return np.array([v ** k for v in x.tolist()])
    return x ** k


def plane_area(g, x, y):
    """g(x, x) g(y, y) - g(x, y)^2 of the pairing g, jets stripped: the
    squared area of the plane {x, y}, a sectional curvature's denominator."""
    return value(g(x, x)) * value(g(y, y)) - lane_pow(value(g(x, y)), 2)


def solve_linear(A, b):
    """Solve A x = b for symmetric positive-definite A, generic over scalars.

    Gaussian elimination without pivoting, i.e. the LDL^T factorization.
    Every caller solves a Gram system, so no pivot has to be chosen and
    the same operations run on every lane of a batch.  A zero pivot
    raises ZeroDivisionError.
    """
    n = len(b)
    M = [row[:] for row in A]
    rhs = list(b)
    for col in range(n):
        piv = M[col][col]
        d = value(piv)
        if not (d.all() if isinstance(d, np.ndarray) else d):
            raise ZeroDivisionError("singular system in solve_linear")
        for r in range(col + 1, n):
            f = M[r][col] / piv
            M[r][col + 1:] = [a - f * c for a, c in zip(M[r][col + 1:], M[col][col + 1:])]
            rhs[r] = rhs[r] - f * rhs[col]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        acc = rhs[r]
        for c in range(r + 1, n):
            acc = acc - M[r][c] * x[c]
        x[r] = acc / M[r][r]
    return x
