"""The benchmark's workloads: lists of sasaklab CLI invocations.

Every invocation is one fresh CLI process.  Each workload is a closed
loop from one client: the next process starts when the previous one has
ended, always with the default ``--workers 1``.  The reasons for each
workload are in README.md.
"""

import json
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    args: tuple
    expect_exit: int = 0
    rows: int | None = None  # expected data rows of samples.csv on exit 0
    certifies: bool = True  # whether its samples count toward samples_per_s


def _reeb_rows(steps):
    return len(range(0, steps + 1, max(1, steps // 64)))


def _cone_rows(samples):
    # positive, negative and full zero level at samples // 4 points each,
    # plus `samples` points on the mixed zero set
    return samples + 3 * max(samples // 4, 1)


def _invalid_config(path, seed):
    """A config the validator must reject (samples below 1): exit 2."""
    raw = {
        "n": 4,
        "action_weights": [[1, 1, 0, 0], [0, 0, 1, 1]],
        "mu": [1, 1],
        "samples": 0,
        "seed": seed,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    return path


def round_reduce(seed, workdir, tiny=False):
    n = 4 if tiny else 80
    return [Invocation(("reduce", "--preset", "ex1", "--samples", str(n),
                        "--seed", str(seed)), rows=n)]


def weighted_certify(seed, workdir, tiny=False):
    n = 1 if tiny else 3
    dirs = 1 if tiny else 2
    return [
        Invocation(("verify-structure", "--preset", "weighted", "--samples", str(n),
                    "--seed", str(seed)), rows=n),
        Invocation(("reduce", "--preset", "weighted", "--samples", "1",
                    "--directions", str(dirs), "--seed", str(seed)), rows=1),
    ]


def cli_mix(seed, workdir, tiny=False):
    hyp = 20 if tiny else 200
    scan = 2 if tiny else 20
    cone = 20 if tiny else 200
    steps = 256 if tiny else 2048
    verify = 5 if tiny else 50
    config = _invalid_config(os.path.join(workdir, "invalid.json"), seed)
    s = ("--seed", str(seed))
    return [
        Invocation(("check-hypotheses", "--preset", "ex1", "--samples", str(hyp), *s),
                   rows=hyp),
        Invocation(("check-hypotheses", "--preset", "ex1", "--mu", "1,0", *s),
                   expect_exit=4),
        Invocation(("reduce", "--preset", "ex1", "--mu=-1,-1", *s), expect_exit=3),
        Invocation(("reduce", "--config", config), expect_exit=2),
        Invocation(("curvature-scan", "--preset", "ex1", "--samples", str(scan), *s),
                   rows=scan),
        Invocation(("cone-check", "--preset", "ex2", "--samples", str(cone), *s),
                   rows=_cone_rows(cone)),
        Invocation(("reeb-flow", "--preset", "ex4", "--flow-steps", str(steps), *s),
                   rows=_reeb_rows(steps), certifies=False),
        Invocation(("verify-structure", "--preset", "ex1", "--samples", str(verify), *s),
                   rows=verify),
    ]


WORKLOADS = {
    "round-reduce": round_reduce,
    "weighted-certify": weighted_certify,
    "cli-mix": cli_mix,
}
