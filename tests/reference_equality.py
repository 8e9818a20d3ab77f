"""The point-at-a-time equality check: the seeded points one tuple at a time
(the probes, then random.uniform draws) and each point's outcome from the
tree evaluator.  A check of two maps draws from its label's stream, and a
check of a map against itself from the map stream of its dimension, seeded
by the label map:{dim}.  The package draws a batch of points as columns, runs tapes
on the columns and decides a batch by column reductions (smooth.maps_equal);
this loop is the reference it must match: status, worst residual, witness,
note and sample count."""

from __future__ import annotations

import math
import random

from faadibruno.config import RunConfig, derive_seed
from faadibruno.expr import OutOfDomainError, var_name
from faadibruno.smooth import EqOutcome, SmoothMap, probe_points, restrict_map

from reference_eval import eval_expr, guard_eval


def reference_points(dim: int, cfg: RunConfig, label: str):
    if dim == 0:
        yield ()
        return
    yield from probe_points(dim)
    rng = random.Random(derive_seed(cfg.seed, label))
    for _ in range(cfg.retry_cap):
        yield tuple(rng.uniform(-cfg.radius, cfg.radius) for _ in range(dim))


def _value(f: SmoothMap, point):
    """None outside the guard, the coordinate values, or the fault."""
    env = {var_name(i): x for i, x in enumerate(point)}
    if not guard_eval(f.guard, env):
        return None
    try:
        return tuple(eval_expr(e, env) for e in f.coords)
    except OutOfDomainError as err:
        return err


def _residual(a: float, b: float, floor: float) -> float:
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b), floor)


def reference_maps_equal(f: SmoothMap, g: SmoothMap, cfg: RunConfig, label: str) -> EqOutcome:
    if f.dom != g.dom or f.cod != g.cod:
        return EqOutcome("fail", math.inf, None, "shape mismatch")
    worst = 0.0
    accepted = 0
    # a pass needs a drawn point past the probes
    dim = f.dom.dim
    target = max(cfg.samples, len(probe_points(dim)) + 1) if dim > 0 else 1
    for point in reference_points(dim, cfg, label if f != g else f"map:{dim}"):
        fv, gv = _value(f, point), _value(g, point)
        if (fv is None) != (gv is None):
            return EqOutcome("fail", math.inf, point, "guard mismatch", accepted)
        if fv is None:
            continue
        for v in (fv, gv):
            if isinstance(v, OutOfDomainError):
                return EqOutcome("fail", math.inf, point, f"eval fault: {v}", accepted)
        for a, b in zip(fv, gv):
            worst = max(worst, _residual(a, b, cfg.abs_floor))
        accepted += 1
        if worst > cfg.tol_rel:
            return EqOutcome("fail", worst, point, "value mismatch", accepted)
        if accepted >= target:
            return EqOutcome("pass", worst, None, "", accepted)
    return EqOutcome("starved", worst, None, "sampling starvation", accepted)


def reference_map_leq(f: SmoothMap, g: SmoothMap, cfg: RunConfig, label: str) -> EqOutcome:
    return reference_maps_equal(f, restrict_map(g, f.guard), cfg, label)


def reference_maps_compatible(f: SmoothMap, g: SmoothMap, cfg: RunConfig,
                              label: str) -> EqOutcome:
    return reference_maps_equal(restrict_map(f, g.guard), restrict_map(g, f.guard),
                                cfg, label)
