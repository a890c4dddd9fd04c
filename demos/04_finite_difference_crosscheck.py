"""Cross-validation against an independent finite-difference solver.

The kernel route and a Crank-Nicolson discretisation of the coupled
bulk/boundary system must agree wherever both are trustworthy; their
discrepancy shrinks at second order under simultaneous grid and step
refinement.
"""

import numpy as np

from dynheat import (
    Boundary,
    FdGrid,
    InitialData,
    Interior,
    NormalProfile,
    Params,
    oracle_compare,
    tally,
)

p = Params(1.0, 1.0, 1.0, 2)
data = InitialData(boundary=Boundary("heat_gaussian", a=0.5))

grid = FdGrid(nx=128, nz=128, dt=2e-3)
print(f"marching {grid.nx}x{grid.nz} cells, dt={grid.dt} ...")
with tally() as run:  # counts the kernel route's unconverged integrals
    table, res = oracle_compare(p, data, grid, (0.25, 0.5, 1.0))
print(f"unconverged integrals on the kernel route: {run.unconverged}")
print("discrete mass along the way:",
      "  ".join(f"{m:.9f}" for m in res.masses))
for t, sup, l2 in table:
    print(f"t={t}: sup rel discrepancy {sup:.3e}, L2 rel {l2:.3e}")

print("\nrefinement study on smooth, wall-compatible data:")
smooth = InitialData(Interior("heat_gaussian", a=0.4,
                              normal=NormalProfile("gaussian", m=2.0, b=0.1)))
errs = []
for nx, steps in ((64, 32), (128, 64), (256, 128)):
    g = FdGrid(nx=nx, nz=nx, dt=0.25 / steps)
    table, _ = oracle_compare(p, smooth, g, (0.25,))
    errs.append(table[0][1])
    print(f"  nx={nx:>3}: sup rel error {errs[-1]:.3e}")
orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(len(errs) - 1)]
print("observed convergence orders:", [round(o, 3) for o in orders])
