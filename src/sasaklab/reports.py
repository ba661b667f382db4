"""Machine-readable run reports: one JSON document and one CSV per run.

Reports are deterministic functions of (config, seed): keys are sorted,
floats are serialized by repr (shortest round-trip; numpy floats as the
plain number), and CSV rows are written in sample order.  report.json is
strict JSON: a non-finite float is written as the string "NaN",
"Infinity" or "-Infinity".
samples.csv is written as the run goes (``samples_writer``), its cells
Python numbers (written by repr) and strings.
"""

import csv
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .jets import BACKEND

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_HYPOTHESIS = 4
EXIT_RESIDUAL = 5
EXIT_NUMERICAL = 6


@dataclass
class ResidualStat:
    """Summary of one named residual against its tolerance."""

    name: str
    tol: float
    count: int = 0
    max: float = 0.0
    total: float = 0.0

    def add(self, values):
        """Add a float, or a non-empty array of them in sample order."""
        a = np.abs(np.ravel(values).astype(float))
        self.count += a.size
        top = float(a.max())
        if top > self.max or math.isnan(top):  # NaN sticks: never within tolerance
            self.max = top
        self.total = reduce(add, a.tolist(), self.total)  # in sample order, one value at a time

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    @property
    def ok(self):
        return self.max <= self.tol

    def as_dict(self):
        return {
            "name": self.name,
            "count": self.count,
            "max": self.max,
            "mean": self.mean,
            "tolerance": self.tol,
            "within_tolerance": self.ok,
        }


class ResidualLedger:
    """Ordered collection of ResidualStats addressed by name."""

    def __init__(self):
        self._stats = {}

    def stat(self, name, tol):
        if name not in self._stats:
            self._stats[name] = ResidualStat(name, tol)
        return self._stats[name]

    def add(self, name, tol, values):
        """Add a float, or an array of them; an empty array makes no entry."""
        if np.size(values):
            self.stat(name, tol).add(values)

    def all_ok(self):
        return all(s.ok for s in self._stats.values())

    def as_list(self):
        return [self._stats[k].as_dict() for k in sorted(self._stats)]


def build_report(command, config, *, hypotheses=None, dimensions=None,
                 ledger=None, census=None, notes=None, extra=None,
                 samples_csv="samples.csv", exit_status=EXIT_OK):
    report = {
        "command": command,
        "config": config.echo(),
        "jet_backend": BACKEND,
        "hypotheses": hypotheses or {},
        "dimensions": dimensions or {},
        "residuals": ledger.as_list() if ledger is not None else [],
        "census": census or {},
        "notes": list(notes or []),
        "samples_csv": samples_csv,
        "exit_status": exit_status,
    }
    if extra:
        report.update(extra)
    return report


def _json_safe(x):
    """x with every non-finite float replaced by its JSON string name."""
    if isinstance(x, float) and not math.isfinite(x):
        return "NaN" if math.isnan(x) else ("Infinity" if x > 0 else "-Infinity")
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    return x


def report_bytes(report):
    # allow_nan=False: a non-finite float that reaches dumps is an error
    return (json.dumps(_json_safe(report), sort_keys=True, indent=2, allow_nan=False)
            + "\n").encode()


_PARTIAL = "samples.csv.part"


@contextmanager
def samples_writer(outdir):
    """A csv writer onto a partial samples.csv in outdir; a run that
    raises leaves neither it nor the output directory, if this made it."""
    made = not os.path.isdir(outdir)
    os.makedirs(outdir, exist_ok=True)
    part = os.path.join(outdir, _PARTIAL)
    try:
        with open(part, "w", encoding="utf-8", newline="") as fh:
            yield csv.writer(fh, lineterminator="\n")
    except BaseException:
        os.remove(part)
        if made:
            os.rmdir(outdir)
        raise


def write_outputs(outdir, report):
    """report.json, and the finished samples.csv moved into place."""
    with open(os.path.join(outdir, "report.json"), "wb") as fh:
        fh.write(report_bytes(report))
    os.replace(os.path.join(outdir, _PARTIAL), os.path.join(outdir, "samples.csv"))
