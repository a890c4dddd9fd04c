"""Seeded inputs and checked operations for the four benchmark workloads.

Every workload is a list of *ops*.  An op is one public dynheat call (the
``call``) plus the check of its result against the acceptance suite's
pinned tolerance (the ``check``).  The inputs are pinned here, not read
from the repository's ``configs/``, so that editing a config cannot change
what the benchmark measures; ``test_perfbench.py`` checks that the copies
still match.  The seed only reorders or redraws inputs: the library sees
nothing but the generated arguments.

A check returns ``(within_tolerance, converged)``.  An op *fails* when its
call raises, its result misses the tolerance, or the library reports
``converged=False``; it is *incorrect* when it raises or misses the
tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import dynheat as dh

WORKLOADS = ("mass", "oracle", "rates", "pointwise")

# configs/mass_check.json (criterion 1): 3 x 3 x 3 x 2 x 3 x 3 = 486 configs.
MASS_AXES = {
    "epsilon": (0.5, 1.0, 2.0),
    "delta": (0.5, 1.0, 2.0),
    "kappa": (0.5, 1.0, 2.0),
    "dim": (2, 3),
    "x_n": (0.0, 0.5, 3.0),
    "t": (0.1, 1.0, 10.0),
}
MASS_TOL = 1e-6
# The radial spot configurations of the criterion-1 suite, as
# (epsilon, delta, kappa, dim, x_N, t).  The second one does not converge
# at this commit (five exchange batches hit max_subdivisions); it stays in
# the workload so that the defect shows in ``failed``.
RADIAL_SPOTS = (
    (1.0, 1.0, 1.0, 2, 0.5, 1.0),
    (2.0, 0.5, 1.0, 3, 0.0, 1.0),
    (0.5, 2.0, 0.5, 2, 0.0, 0.1),
    (1.0, 1.0, 2.0, 3, 0.5, 0.5),
)

# configs/oracle_compare.json (criterion 13a).
ORACLE = {
    "params": (1.0, 1.0, 1.0, 2),
    "boundary_a": 0.5,
    "grid": {"Lx": 8.0, "Lz": 8.0, "nx": 256, "nz": 256, "dt": 0.001,
             "scheme": "crank_nicolson", "flux": "compact"},
    "times": (0.25, 0.5, 1.0),
    "window": (2.0, 2.0),
    "tol": 0.02,
}

# The 19 diffusion-limit experiments of criteria 9 and 10.
RATE_EXPERIMENTS = (
    "eps_to_0", "k_to_0", "delta_to_0", "delta_to_inf", "k_to_inf_theta",
    "k_to_inf_fp", "k_to_inf_fp_log", "hdn_eps_to_0", "hdn_eps_to_0_p2",
    "hdn_k_to_0", "hdn_k_to_inf", "ldd_delta_to_0", "ldd_k_to_inf",
    "ldd_delta_to_inf", "eps_to_inf", "hdpsi_eps_to_0", "hdpsi_theta_to_0",
    "hdpsi_theta_to_inf", "hdpsi_eps_to_inf",
)

# configs/bounds_check.json (criterion 8; the samples come from the suite's
# own sampler) and the criterion-3 positivity draw.
SANDWICH = {"params": (1.0, 1.0, 1.0, 2), "per_region": 1000,
            "rel_tol": 1e-8, "abs_tol": 1e-12}
POSITIVITY_SAMPLES = 500


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[dict], object]
    check: Callable[[object, dict], tuple]


def build(workload: str, seed: int) -> list:
    """The ops of one pass of ``workload``, generated from ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return globals()[f"_{workload}"](np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# mass: criterion-1 inputs
# ---------------------------------------------------------------------------

def _mass_check(res, _state):
    return abs(res.value - 1.0) <= MASS_TOL, bool(res.converged)


def _mass(rng):
    ops = []
    for eps, delta, kappa, dim, xn, t in itertools.product(*MASS_AXES.values()):
        p = dh.Params(eps, delta, kappa, dim)
        ops.append(Op(f"total_mass {p} x_n={xn} t={t}",
                      lambda _s, p=p, xn=xn, t=t: dh.total_mass(p, xn, t),
                      _mass_check))
    for eps, delta, kappa, dim, xn, t in RADIAL_SPOTS:
        p = dh.Params(eps, delta, kappa, dim)
        ops.append(Op(f"total_mass_radial {p} x_n={xn} t={t}",
                      lambda _s, p=p, xn=xn, t=t: dh.total_mass_radial(p, xn, t),
                      _mass_check))
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# oracle: criterion-13a inputs
# ---------------------------------------------------------------------------

def oracle_window(grid):
    """Grid-node indices (rows ii in z, columns jj in x) of the probe window."""
    wx, wz = ORACLE["window"]
    jj = np.nonzero(np.abs(grid.x_nodes()) <= wx)[0]
    ii = np.nonzero(grid.z_nodes() <= wz)[0]
    return ii, jj


def _oracle(rng):
    p = dh.Params(*ORACLE["params"])
    data = dh.InitialData(boundary=dh.Boundary("heat_gaussian", a=ORACLE["boundary_a"]))
    grid = dh.FdGrid(**ORACLE["grid"])
    times = list(ORACLE["times"])
    ii, jj = oracle_window(grid)
    # probes run column by column in x, bottom to top in z; the seed rotates
    # the column order.  A probe's value does not depend on the order, but
    # a full shuffle would scatter the masks of the library's vectorised
    # exponentials and slow every call by a seed-dependent amount.
    jj = np.roll(jj, -int(rng.integers(len(jj))))
    rows = np.tile(ii, len(jj))
    cols = np.repeat(jj, len(ii))
    xp = grid.x_nodes()[cols]
    xn = grid.z_nodes()[rows]

    def fd(state):
        state["fd"] = dh.fd_solve(p, data, grid, times[-1], snapshots=times)
        return state["fd"]

    def fd_check(res, _state):
        ok = all(np.all(np.isfinite(f)) for f in res.fields) and len(res.fields) == len(times)
        return ok, True

    def compare_check(t):
        def check(res, state):
            uk, _err, conv = res
            if "fd" not in state:
                return False, bool(conv)
            uf = state["fd"].field_at(t)[rows, cols]
            sup, _l2 = dh.fd_compare(uk, uf)
            return sup <= ORACLE["tol"], bool(conv)
        return check

    ops = [Op("fd_solve crank_nicolson 256x256 to t=1", fd, fd_check)]
    for t in times:
        ops.append(Op(f"solve_grid HDD {xp.size} probes t={t}",
                      lambda _s, t=t: dh.solve_grid("HDD", p, data, xp, xn, t),
                      compare_check(t)))
    return ops


# ---------------------------------------------------------------------------
# rates: criteria 9 and 10
# ---------------------------------------------------------------------------

def _rates(rng):
    return [Op(f"run_limit {RATE_EXPERIMENTS[i]}",
               lambda _s, w=RATE_EXPERIMENTS[i]: dh.run_limit(w),
               lambda res, _s: (bool(res.passed), True))
            for i in rng.permutation(len(RATE_EXPERIMENTS))]


# ---------------------------------------------------------------------------
# pointwise: criterion-8 stratified samples and criterion-3 positivity
# ---------------------------------------------------------------------------

def positivity_samples(rng):
    """The criterion-3 positivity draw: (r, x_N, y_N, t, epsilon, delta, kappa)."""
    out = []
    for _ in range(POSITIVITY_SAMPLES):
        r, xn, yn, t = (rng.uniform(0, 3), rng.uniform(0, 2), rng.uniform(0, 2),
                        rng.uniform(0.1, 5.0))
        e, d, k = rng.uniform(0.5, 2.0, 3)
        out.append((r, xn, yn, t, e, d, k))
    return out


def _positive_check(res, _state):
    return bool(np.isfinite(res.value) and res.value > 0.0), bool(res.converged)


def _pointwise(rng):
    p = dh.Params(*SANDWICH["params"])
    spec = dh.QuadSpec(rel_tol=SANDWICH["rel_tol"], abs_tol=SANDWICH["abs_tol"])
    origin = dh.HalfSpacePoint(0.0, 0.0)
    ops = []
    for tag, pts in dh.verification._sample_regions(p, SANDWICH["per_region"], rng).items():
        for r, s, t in pts:
            def call(_s, r=r, s=s, t=t):
                logv, rel, _nsub, conv = dh.exchange_log_grid(p, [r], [s], t, spec)
                env = dh.envelope(p, dh.HalfSpacePoint(r, s), origin, t)
                return float(logv[0]), float(rel[0]), bool(conv), env

            def check(res, _s, tag=tag):
                logv, rel, conv, env = res
                ok = (math.isfinite(logv) and math.isfinite(rel)
                      and math.isfinite(env.upper) and math.isfinite(env.lower)
                      and env.upper >= 0.0 and env.lower >= 0.0 and env.region == tag)
                return ok, conv

            ops.append(Op(f"exchange_log_grid+envelope {tag} r={r:.4g} s={s:.4g} t={t:.4g}",
                          call, check))
    for i, (r, xn, yn, t, e, d, k) in enumerate(positivity_samples(rng)):
        x, y = dh.HalfSpacePoint(r, xn), dh.HalfSpacePoint(0.0, yn)
        ops.append(Op(f"heat_neumann_kernel sample {i}",
                      lambda _s, e=e, k=k, x=x, y=y, t=t:
                          dh.heat_neumann_kernel(e, k, x, y, t, 2),
                      _positive_check))
        ops.append(Op(f"laplace_dynamic_kernel sample {i}",
                      lambda _s, d=d, k=k, x=x, y=y, t=t:
                          dh.laplace_dynamic_kernel(d, k, x, y, t, 2),
                      _positive_check))
        if xn > 0:
            ops.append(Op(f"dirichlet_layer_kernel sample {i}",
                          lambda _s, p3=dh.Params(e, d, k, 2), th=d / max(k, 1e-6),
                          x=x, y=y, t=t: dh.dirichlet_layer_kernel(p3, th, x, y, t),
                          _positive_check))
    return ops
