"""Seeded workload inputs: one single-start experiment config per solve.

Every workload is a fixed list of solves drawn from its seed; one pass runs
them all, one after another.  Draws are stratified so that the mix of short
and long solves, which sets the pass time, is the same from seed to seed:
each input property the iteration count depends on is split into equal
strata and every stratum gets its share of the starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from vifd.bench import ExperimentConfig, preset_configs
from vifd.operators import ProblemInstance, make_problem

@dataclass
class Solve:
    """One solve of a pass: its config, its problem (for the output check) and a cell name."""

    config: ExperimentConfig
    problem: ProblemInstance
    cell: str


def _solve(cell: str, **config) -> Solve:
    config = ExperimentConfig(**config)
    return Solve(config, config.build_problem(), cell)


def _strata(rng: np.random.Generator, count: int) -> np.ndarray:
    """One uniform draw in each of ``count`` equal strata of [0, 1), in random order."""
    return (rng.permutation(count) + rng.uniform(size=count)) / count


# anchored-long: curvature h in a narrow band (h below 0.8 gives 400 to 2500
# iterations from similar starts) and starts at a fixed distance from the
# simplex's centre towards a seeded vertex.  The operator treats coordinates
# alike, so all vertex directions give the same problem up to a permutation:
# every solve runs about 500 iterations and takes about the same time, and
# only h and round-off tell them apart.  The tail needs more than 10 solves.
ANCHORED_SOLVES = 11
ANCHORED_H = (1.1, 1.3)
ANCHORED_RADIUS = 1.0


def anchored_long(rng: np.random.Generator) -> list[Solve]:
    params = preset_configs("table3")[-1].params  # delta 0.99, theta 0.25, tol 1e-4
    a = 10.0
    centre = np.full(5, a / 5.0)
    h_lo, h_hi = ANCHORED_H
    width = (h_hi - h_lo) / ANCHORED_SOLVES
    solves = []
    for i in range(ANCHORED_SOLVES):
        lo = h_lo + i * width
        while True:
            problem_seed = int(rng.integers(2**31))
            h = make_problem("fractional-simplex", a=a, seed=problem_seed).operator.h
            if lo <= h < lo + width:
                break
        towards = np.eye(5)[rng.integers(5)] * a - centre
        x0 = centre + ANCHORED_RADIUS * towards / np.linalg.norm(towards)
        solves.append(_solve(
            f"h{i}", problem="fractional-simplex", starts=[x0], params=params,
            a=a, seed=problem_seed,
        ))
    return solves


# box-wide: both rho variants on [-1, 1]^n.  A start is s * uniform(-1, 1)^n:
# small s (near the origin) runs up to about 30 iterations, s near 1 (spread
# over the box) stops after the first projection; both end at the corner -1
# with all n lower bounds active.  Every (variant, n stratum, s stratum) cell
# gets the same number of starts, so the per-solve times form the same
# continuous spread on every seed and their median and tail stay put.
BOX_N = (100, 150)
BOX_N_STRATA = 3
BOX_SCALE = (1e-3, 1.0)
BOX_SCALE_STRATA = 4
BOX_STARTS_PER_CELL = 2


def box_wide(rng: np.random.Generator) -> list[Solve]:
    params = preset_configs("table2")[0].params  # delta 0.01, theta 0.5, tol 1e-8
    n_lo, n_hi = BOX_N
    log_lo, log_hi = (math.log(v) for v in BOX_SCALE)
    solves = []
    for problem in ("rho-squared", "rho-norm"):
        for j in range(BOX_N_STRATA):
            for k in range(BOX_SCALE_STRATA):
                for _ in range(BOX_STARTS_PER_CELL):
                    n = int(round(n_lo + (n_hi - n_lo) * (j + rng.uniform()) / BOX_N_STRATA))
                    u = (k + rng.uniform()) / BOX_SCALE_STRATA
                    scale = math.exp(log_lo + (log_hi - log_lo) * u)
                    x0 = scale * rng.uniform(-1.0, 1.0, n)
                    solves.append(_solve(
                        f"{problem}-n{j}-s{k}", problem=problem, starts=[x0],
                        params=params, a=1.0,
                    ))
    return solves


# ray-short: most starts finish in a few iterations.  The iteration count
# grows like 1/gap in the angular gap to pi/2, so uniform angles give a
# heavy-tailed run length (one draw in a few hundred ran 8855 iterations and
# 80 s).  Bulk starts therefore keep their angle at least RAY_EDGE_GAPS[-1]
# below pi/2, and edge starts sit at fixed gaps, RAY_EDGE_PER_GAP per gap with
# radii in equal log strata, which sets the tail to a few hundred iterations
# on every seed.
RAY_BULK = 400
RAY_R = (0.3, 1500.0)
RAY_EDGE_GAPS = (0.02, 0.03, 0.05, 0.08)
RAY_EDGE_PER_GAP = 3
RAY_EDGE_R = (100.0, 1500.0)


def ray_short(rng: np.random.Generator) -> list[Solve]:
    params = preset_configs("table4")[0].params  # delta 0.5, theta 0.5, tol 1e-30
    log_lo, log_hi = (math.log(v) for v in RAY_R)
    r = np.exp(log_lo + (log_hi - log_lo) * _strata(rng, RAY_BULK))
    theta = (math.pi / 2 - RAY_EDGE_GAPS[-1]) * _strata(rng, RAY_BULK)
    starts = [("bulk", ri, ti) for ri, ti in zip(r, theta)]
    log_lo, log_hi = (math.log(v) for v in RAY_EDGE_R)
    for gap in RAY_EDGE_GAPS:
        edge_r = np.exp(log_lo + (log_hi - log_lo) * _strata(rng, RAY_EDGE_PER_GAP))
        starts += [("edge", ri, math.pi / 2 - gap) for ri in edge_r]
    order = rng.permutation(len(starts))
    return [
        _solve(starts[i][0], problem="ray-setvalued", starts=[starts[i][1:]], params=params)
        for i in order
    ]


WORKLOADS = {"anchored-long": anchored_long, "box-wide": box_wide, "ray-short": ray_short}


def build(name: str, seed: int) -> list[Solve]:
    """The workload's solves, drawn from ``seed``."""
    return WORKLOADS[name](np.random.default_rng(seed))
