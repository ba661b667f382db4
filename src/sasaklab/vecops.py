"""Small-vector helpers generic over jet scalars.

Ambient vectors are plain Python lists whose entries are floats, jet
scalars, or lanes: 1-D numpy arrays holding one entry per sample of a
batch.  ``stack_lanes`` builds lane vectors from per-sample float
vectors and ``lane`` reads one sample back.  ``pair_lanes`` runs a list
of vector pairs as further lanes of one evaluation: the point tiled once
per pair, the pairs' vectors joined along the lane axis, and the result
cut back into one value per pair.

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
"""

import numpy as np

from .jets import Dual, jsqrt, stack, value


def vsub(u, v):
    return [a - b for a, b in zip(u, v)]


def vscale(u, c):
    return [a * c for a in u]


def vdot(u, v):
    acc = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        acc = acc + a * b
    return acc


def cmult(v):
    """Multiplication by i on pairwise coordinates (x, y) -> (-y, x)."""
    out = []
    for j in range(0, len(v), 2):
        out.append(-v[j + 1])
        out.append(v[j])
    return out


def vvalue(u):
    """Strip jets: the float value part of each component."""
    return [value(a) for a in u]


def as_list(u):
    """Accept numpy arrays or sequences, return a plain list."""
    if isinstance(u, np.ndarray):
        return [float(a) for a in u]
    return list(u)


def stack_lanes(vectors):
    """One lane vector from equal-length float vectors, one per sample:
    entry k holds every sample's entry k.  A single vector comes back as
    a plain list, so a batch of one runs on floats."""
    if len(vectors) == 1:
        return list(vectors[0])
    return list(np.array(vectors, dtype=float).T.copy())


def lane_width(u):
    """The number of lanes of the vector u, None when u holds floats only."""
    widths = {len(a) for a in u if isinstance(a, np.ndarray)}
    return widths.pop() if widths else None


def lane_shape(vectors):
    """(width,) when a leaf of an entry of the vectors holds lanes, else ()."""
    todo = [c for v in vectors for c in v]
    while todo:
        x = todo.pop()
        if isinstance(x, Dual):
            todo += (x.re, x.im)
        elif isinstance(x, np.ndarray):
            return x.shape[-1:]
    return ()


def lane_stack(rows):
    """A matrix given as rows of lane vectors, as one (samples, rows,
    columns) stack, jets stripped and a float entry filling every lane;
    a matrix of floats, or an array, comes back as a 2-D array."""
    if isinstance(rows, np.ndarray):
        return rows
    rows = [vvalue(r) for r in rows]
    lanes = lane_shape(rows)
    out = np.array([stack(r, lanes) for r in rows])
    return np.moveaxis(out, -1, 0) if lanes else out


def lane(x, i):
    """Sample i of a lane scalar; a float, shared by every lane, passes through."""
    return x[i] if isinstance(x, np.ndarray) else x


def split_lanes(u):
    """The per-sample float vectors of a lane vector, or None when u
    holds no lanes."""
    width = lane_width(u)
    if width is None:
        return None
    return [[float(lane(a, i)) for a in u] for i in range(width)]


def split_frame(vectors, width):
    """Sample by sample, the float vectors of a frame of lane vectors;
    a float vector is every sample's."""
    cols = [split_lanes(v) or [list(v)] * width for v in vectors]
    return [[c[i] for c in cols] for i in range(width)]


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
    """The vector u with its lanes repeated reps times: lane k * width + s
    holds sample s.  A float entry, shared by every lane, stays a float."""
    if reps == 1:
        return u
    return [np.concatenate([a] * reps) if isinstance(a, np.ndarray) else a for a in u]


def join_lanes(vectors, width):
    """One lane vector holding the given vectors of ``width`` lanes each
    (None: float vectors) one after the other; jets are stripped, and a
    float entry of a lane vector fills its lanes."""
    if width is None:
        return [np.array([value(e) for e in entries], dtype=float) for entries in zip(*vectors)]

    def lanes(e):
        e = value(e)
        return e if isinstance(e, np.ndarray) else np.full(width, e, dtype=float)

    return [np.concatenate([lanes(e) for e in entries]) for entries in zip(*vectors)]


def cut_lanes(x, reps, width):
    """``join_lanes`` undone on a scalar or nested lists of them: the reps
    parts of ``width`` lanes each, Python floats at width None.  An entry
    that holds no lanes is every part's."""
    if isinstance(x, (list, tuple)):
        return [list(part) for part in zip(*(cut_lanes(e, reps, width) for e in x))]
    x = value(x)
    if not isinstance(x, np.ndarray):
        return [x] * reps
    if width is None:
        return x.tolist()
    return [x[k * width:(k + 1) * width] for k in range(reps)]


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
