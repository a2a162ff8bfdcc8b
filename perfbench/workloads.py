"""Seeded job generators for the three benchmark workloads.

Each workload turns (seed, job index) into one pgflift job file. The random
stream of a job depends only on the workload name, the seed and the index, so
the same seed always yields byte-identical job files and a different seed
yields the same shapes with different values. The program under test sees
only the written files.

Why these three (see README.md for the per-layer interaction table):

* multinomial_blocks: exact mode, almost all time in Fraction products
  inside Multinomial.pgf and TruncatedSeries.__mul__.
* poisson_float: float mode, five pgf builds per query, time in the
  three-variable product, exp_truncated and monomial_substitute. One job in
  four is an underflow probe (rates 750..900, small targets): the library
  reports ZeroProbability for a moment that is well defined, so those
  queries count as failed until float mode is made robust.
* table_verify: exact mode, no series products at all; time goes to
  constructing and revalidating thousands of sparse terms, the joint and
  substitution passes, the oracle's fiber walk and pmf rendering. In the last
  job of every round of four, one query targets an image reached only by
  zero-mass outcomes, so the typed error path is timed as well.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    make_job: Callable[[random.Random, int, int], dict]  # (rng, seed, index)
    verify: bool  # pass --verify to the CLI
    # jobs run in whole rounds of this many, so per-round mixes (the probe
    # share of poisson_float, the zero-mass share of table_verify) are exact
    # in every run
    round_jobs: int


def _orders(rng, dim, max_total=2):
    """A factorial-moment order vector with total order at most max_total."""
    choices = [s for s in itertools.product(range(max_total + 1), repeat=dim)
               if sum(s) <= max_total]
    return list(rng.choice(choices))


def _job(matrix, distribution, mode, queries):
    return {
        "matrix": matrix,
        "distribution": distribution,
        "mode": mode,
        "output": "json-like",
        "queries": queries,
    }


MULTINOMIAL_TRIALS = 14
MULTINOMIAL_MATRIX = [[1, 1, 0, 0], [0, 0, 1, 1]]


def multinomial_job(rng, seed, index):
    """Multinomial(N=14) over 4 cells with probabilities n_r/D, n_r in 1..20,
    observed through the block sums; one query at each of a = 6, 7, 8 for
    k = (a, N - a), so every job has the same box sizes."""
    counts = [rng.randint(1, 20) for _ in range(4)]
    total = sum(counts)
    splits = [MULTINOMIAL_TRIALS // 2 + d for d in (-1, 0, 1)]
    rng.shuffle(splits)
    queries = [
        {"k": [a, MULTINOMIAL_TRIALS - a], "s": _orders(rng, 4)} for a in splits
    ]
    dist = {"multinomial": {"N": MULTINOMIAL_TRIALS,
                            "probs": [f"{n}/{total}" for n in counts]}}
    return _job(MULTINOMIAL_MATRIX, dist, "exact", queries)


POISSON_MATRIX = [[1, 1, 0], [0, 1, 1]]
POISSON_PROBE_EVERY = 4  # the last job of every round of four is a probe
# generators of the R3 Kronecker sequence, 1/g**m with g**4 == g + 1
R3_STEPS = tuple(1.2207440846057596 ** -m for m in (1, 2, 3))


def poisson_job(rng, seed, index):
    """Three independent Poisson counts seen through overlapping pair sums.

    Regular jobs: rates in [4, 8] and targets 2 below, at and 2 above the
    mean of each coordinate of Y, in seeded order. Job cost grows with the
    cube of the rates, so the rates of job `index` are the point `index` of
    a low-discrepancy sequence in [4, 8]^3, shifted by a seeded offset: the
    first n jobs cover the cube evenly for every seed, and run medians do
    not move with the seed as much as independent draws would make them.
    Probe jobs: rates in [750, 900] and targets in 1..4, where exp(-rate)
    underflows to 0.0 in the pgf although the conditional moment is finite.
    """
    probe = index % POISSON_PROBE_EVERY == POISSON_PROBE_EVERY - 1
    if probe:
        rates = [round(rng.uniform(750.0, 900.0), 3) for _ in range(3)]
        targets = [[rng.randint(1, 4), rng.randint(1, 4)] for _ in range(3)]
    else:
        offsets = random.Random(f"poisson_float:{seed}")
        rates = [round(4.0 + 4.0 * ((offsets.random() + index * step) % 1.0), 3)
                 for step in R3_STEPS]
        means = (rates[0] + rates[1], rates[1] + rates[2])
        deltas = [rng.sample((-2, 0, 2), 3) for _ in means]
        targets = [[round(m) + d[q] for m, d in zip(means, deltas)] for q in range(3)]
    queries = [{"k": k, "s": _orders(rng, 3)} for k in targets]
    return _job(POISSON_MATRIX, {"poisson": {"lambdas": rates}}, "float", queries)


TABLE_MATRIX = [[1, 1, 1, 1, 1], [0, 1, 2, 3, 4]]
TABLE_SIDE = 6  # outcomes live in [0, 5]^5
TABLE_OUTCOMES = 1500
TABLE_MASSLESS_EVERY = 4  # the last job of every round of four has a zero-mass target


def table_image(outcome):
    return tuple(sum(a * x for a, x in zip(row, outcome)) for row in TABLE_MATRIX)


@functools.cache
def table_lattice():
    """([0,5]^5 in order, the set of its images), built on first use."""
    lattice = list(itertools.product(range(TABLE_SIDE), repeat=5))
    return lattice, frozenset(map(table_image, lattice))


def table_job(rng, seed, index):
    """1500 distinct outcomes of [0,5]^5 with integer weights 0..9 (one in
    ten is 0) over their sum, and four queries whose targets are images of
    positive-mass outcomes, except that in the last job of every round the
    fourth target is one only zero-mass lattice points reach. Every query
    asks for the conditional pmf."""
    lattice, images = table_lattice()
    outcomes = rng.sample(lattice, TABLE_OUTCOMES)
    weights = [0 if rng.random() < 0.1 else rng.randint(1, 9) for _ in outcomes]
    total = sum(weights)
    positive = [o for o, w in zip(outcomes, weights) if w]
    targets = [table_image(rng.choice(positive)) for _ in range(4)]
    if index % TABLE_MASSLESS_EVERY == TABLE_MASSLESS_EVERY - 1:
        massless = sorted(images - {table_image(o) for o in positive})
        if not massless:
            raise RuntimeError("table generator found no zero-mass target")
        targets[-1] = rng.choice(massless)
    queries = [
        {"k": list(k), "s": _orders(rng, 5), "include_pmf": True} for k in targets
    ]
    entries = {",".join(map(str, o)): f"{w}/{total}" for o, w in zip(outcomes, weights)}
    return _job(TABLE_MATRIX, {"table": {"entries": entries}}, "exact", queries)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("multinomial_blocks", multinomial_job, verify=False, round_jobs=1),
        Workload("poisson_float", poisson_job, verify=False,
                 round_jobs=POISSON_PROBE_EVERY),
        Workload("table_verify", table_job, verify=True,
                 round_jobs=TABLE_MASSLESS_EVERY),
    )
}


def job_text(workload: Workload, seed: int, index: int) -> str:
    """The job file for (workload, seed, index), as the exact bytes written."""
    rng = random.Random(f"{workload.name}:{seed}:{index}")
    return json.dumps(workload.make_job(rng, seed, index), sort_keys=True) + "\n"
