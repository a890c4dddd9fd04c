"""Solving the initial-boundary value problems by kernel convolution.

The data family is closed under tangential heat convolution, so solutions
reduce to one- and two-dimensional quadratures.  This script solves the
full dynamical problem for Gaussian data, watches the boundary trace
emerge, and shows the max principle at work.
"""

import numpy as np

from dynheat import (
    Boundary,
    InitialData,
    Interior,
    NormalProfile,
    Params,
    solve_grid,
    tan_conv,
)

p = Params(epsilon=1.0, delta=1.0, kappa=1.0, dim=2)
data = InitialData(
    Interior("heat_gaussian", a=0.4, normal=NormalProfile("gaussian", m=0.6, b=0.3)),
    Boundary("heat_gaussian", a=0.5),
)

xp = np.array([0.0, 0.5, 1.0, 2.0])
print("== solution profile along the wall-normal line x' = 0 ==")
xn = np.array([0.0, 0.25, 0.5, 1.0, 2.0])
for t in (0.25, 1.0, 4.0):
    u, err, conv = solve_grid("HDD", p, data, np.zeros_like(xn), xn, t)
    print(f"t={t:>4}: " + "  ".join(f"{v:.5f}" for v in u)
          + f"   (converged={conv})")

print("\n== the boundary trace approaches the boundary data as t -> 0 ==")
target = tan_conv(data.boundary, np.abs(xp), 0.0, 2)  # T = 0: the data itself
for t in (1e-1, 1e-2, 1e-3):
    u, _, _ = solve_grid("HDD", p, data, xp, np.zeros_like(xp), t)
    dev = np.max(np.abs(u - target))
    print(f"t={t:.0e}: max |trace - data| = {dev:.4f}")

print("\n== constants are stationary (mass identity at work) ==")
ones = InitialData(Interior("constant", c=1.0), Boundary("constant", c=1.0))
u, _, _ = solve_grid("HDD", p, ones, xp, np.full_like(xp, 0.5), 1.0)
print("u =", np.array2string(u, precision=15))

print("\n== comparison problems share the same machinery ==")
for tag, kw in (("HD", {}), ("HDN", {}), ("HD0", {}), ("LDD", {}),
                ("LD", {}), ("HDpsi", {}), ("HDPsi", {"theta": 1.0}),
                ("LDpsi", {}), ("LDPsi", {"theta": 1.0})):
    d = data
    if tag in ("LDD", "LD", "LDpsi", "LDPsi"):
        d = InitialData(boundary=data.boundary)
    if tag in ("HDN", "HhN", "HD0"):
        d = InitialData(data.interior)
    u, _, _ = solve_grid(tag, p, d, [0.5], [0.5], 1.0, **kw)
    print(f"u_{tag:<6} (x=(0.5,0.5), t=1) = {u[0]:.6f}")
