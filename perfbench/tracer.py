"""Spans and counters around sasaklab's public functions.

The tracer is installed inside one CLI process (see ``launch.py``) after
``sasaklab.cli`` is imported and before the command runs.  It replaces
module and class attributes with thin wrappers; nothing under ``src/``
is edited.  A wrapped function either opens a span (name, start, end,
parent) or only bumps a counter; spans stay in memory until the process
ends and are then written out as one JSON document.
"""

import functools
import sys
import time
from collections import Counter

# (metric prefix, module, attribute path, kind)
#   span  - every call records a span; gives <prefix>.calls and .self_s
#   count - every call bumps <prefix>.calls; no span, so the time stays
#           with the nearest enclosing span
TARGETS = (
    ("structures.d_eta", "sasaklab.structures", "SphereStructure.d_eta", "span"),
    ("structures.d_eta", "sasaklab.structures", "WeightedContactMetric.d_eta", "span"),
    ("structures.sasakian_residual", "sasaklab.structures", "SphereStructure.sasakian_residual", "span"),
    ("structures.killing_residual", "sasaklab.structures", "SphereStructure.killing_residual", "span"),
    ("geometry.curvature", "sasaklab.geometry", "Geometry.curvature", "span"),
    ("geometry.covariant", "sasaklab.geometry", "Geometry.covariant", "span"),
    ("geometry.bracket", "sasaklab.geometry", "Geometry.bracket", "count"),
    ("oneill.quotient_sasakian_residual", "sasaklab.oneill", "SubmersionContext.quotient_sasakian_residual", "span"),
    ("oneill.from_reduction", "sasaklab.oneill", "SubmersionContext.from_reduction", "span"),
    ("oneill.a_tensor", "sasaklab.oneill", "SubmersionContext.a_tensor", "count"),
    ("oneill.second_fundamental", "sasaklab.oneill", "SubmersionContext.second_fundamental", "count"),
    ("reduction.setup", "sasaklab.reduction", "ReductionSetup.__init__", "span"),
    ("reduction.samples", "sasaklab.reduction", "ReductionSetup.samples", "span"),
    ("reduction.hypothesis_report", "sasaklab.reduction", "ReductionSetup.hypothesis_report", "span"),
    ("reduction.build_frame", "sasaklab.reduction", "build_frame", "span"),
    ("reduction.reduced_tensors", "sasaklab.reduction", "reduced_tensors", "span"),
    ("reduction.newton_project", "sasaklab.reduction", "newton_project", "count"),
    ("manifolds.project", "sasaklab.manifolds", "EmbeddedManifold.project", "count"),
    ("manifolds.project", "sasaklab.manifolds", "Sphere.project", "count"),
    ("manifolds.tangent_basis", "sasaklab.manifolds", "EmbeddedManifold.tangent_basis", "count"),
    ("manifolds.newton_refine", "sasaklab.manifolds", "EmbeddedManifold.newton_refine", "count"),
    ("cr.cr_decomposition", "sasaklab.cr", "cr_decomposition", "span"),
    ("cr.final_identity", "sasaklab.cr", "final_identity", "span"),
    ("cone.stratify", "sasaklab.cone", "stratify", "span"),
    ("cone.symplectic_pairing_residual", "sasaklab.cone", "symplectic_pairing_residual", "span"),
    ("flows.reeb_flow", "sasaklab.flows", "reeb_flow", "span"),
    ("actions.local_freeness", "sasaklab.actions", "local_freeness", "span"),
    ("config.build_config", "sasaklab.config", "build_config", "span"),
    ("reports.write_outputs", "sasaklab.reports", "write_outputs", "span"),
)

ROOT_SPAN = "cli.main"
PREFIXES = {prefix for prefix, *_ in TARGETS} | {ROOT_SPAN, "tensor_kernel.gram_schmidt"}
# counters without a span or a ".calls" suffix
COUNTERS = {"jets.levels_opened", "reduction.lp_solves"}


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = Counter()
        self.max_depth = 0
        self.gs_offered = 0
        self.gs_kept = 0

    def span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def enter_level(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper():
            counts["jets.levels_opened"] += 1
            lvl = fn()
            if lvl > self.max_depth:
                self.max_depth = lvl
            return lvl

        return wrapper

    def gram_schmidt(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(metric, p, vectors, *args, **kwargs):
            counts["tensor_kernel.gram_schmidt"] += 1
            frame = fn(metric, p, vectors, *args, **kwargs)
            self.gs_offered += len(vectors)
            self.gs_kept += len(frame.vectors)
            return frame

        return wrapper

    def as_dict(self):
        return {
            "spans": self.spans,
            "counts": dict(sorted(self.counts.items())),
            "max_depth": self.max_depth,
            "gram_schmidt": {"offered": self.gs_offered, "kept": self.gs_kept},
        }


def _replace_everywhere(orig, new, extra_modules=()):
    """Rebind every sasaklab module attribute that is ``orig`` to ``new``."""
    mods = [m for k, m in sys.modules.items() if k.split(".")[0] == "sasaklab"]
    for mod in [*mods, *extra_modules]:
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, new)


def install(rec):
    """Wrap every target; must run after ``import sasaklab.cli``."""
    import scipy.optimize

    from sasaklab import jets, tensor_kernel

    for prefix, modname, path, kind in TARGETS:
        owner = sys.modules[modname]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        wrapped = (rec.span if kind == "span" else rec.count)(prefix, fn)
        if isinstance(owner, type):
            setattr(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
        else:
            _replace_everywhere(fn, wrapped)

    _replace_everywhere(jets.enter_level, rec.enter_level(jets.enter_level))
    gs = tensor_kernel.gram_schmidt
    _replace_everywhere(gs, rec.gram_schmidt(gs))
    # Patched at the scipy module as well, so an import of linprog that
    # happens later (inside a function) still gets the counting wrapper.
    lp = scipy.optimize.linprog
    _replace_everywhere(lp, rec.count("reduction.lp_solves", lp), [scipy.optimize])


def self_times(spans):
    """Per-name (calls, self seconds): each span minus its child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for (name, start, end, _), inner in zip(spans, child):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - inner)
    return out
