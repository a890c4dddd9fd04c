"""Finite-difference cross-check for the N = 2 dynamical-boundary problems.

The bulk heat equation is discretised with the standard 5-point stencil on
a uniform rectangle [-Lx, Lx] x [0, Lz]; homogeneous Dirichlet conditions
close the far sides, so domains must be large enough that the exact
solution's tails are negligible there.  The dynamical boundary line is
advanced together with the bulk.

The wall flux is the compact one-sided second-order form: the ghost-free
discretisation obtained by eliminating the O(h) error of the two-point
flux with the interior equation itself.  It shifts the wall capacity by
eps*h/2 (the trapezoidal half-cell) and the surface diffusivity by h/2,
couples only the first interior row, and conserves the discrete total
mass to round-off.  The wall node starts with the mass that capacity
stands for (``_initial_state``), so the scheme stays second order for data
that touch the wall.

The semi-discrete system is M du/dt = L u with L = Lx + Lz: Lx is the
Dirichlet 3-point Laplacian along each row (scaled by the surface
diffusivity on the wall row), Lz the normal 3-point stencil with the
two-point flux row at the wall.  Because the wall row uses the same
tangential stencil as the bulk rows, the orthonormal sine transform
(DST-I) along x diagonalises Lx, and Lz and M are constant along x, so
the solver works in that basis: Lx is diagonal there, with eigenvalues
-4/hx^2 sin^2(pi k / (2 nx)), k = 1..nx-1, scaled by the surface
diffusivity on the wall row.  Time stepping is Crank-Nicolson,
(M/dt - L/2) v+ = (M/dt + L/2) v, with one sparse LU of the left side,
factored once per run.  The right side is 2M/dt - (M/dt - L/2), so each
step is one solve and one subtraction, v+ = lu.solve(2M/dt v) - v; no
right-hand operator is stored or applied.

That left side couples no two sine modes, so it is nx-1 independent
tridiagonal systems in z and its LU has no fill.  The unknowns are
stored row by row (all modes of row 0, then row 1, ...), so each system
is a stride-(nx-1) slice and every off-diagonal entry sits nx-1 from the
diagonal.  The LU's forward and back substitutions are then nx-1
interleaved recurrences, which the CPU overlaps, instead of one chain
through every unknown: at the default 256 x 256 grid one solve takes
0.61 ms against 0.90 ms stored mode by mode (and 0.69 ms for LAPACK's
tridiagonal dgttrs on the mode-major matrix), with the same factors up to
the permutation.  The LU holds 2.6e5 nonzeros, against 3.4e6 for the
minimum-degree LU of the 5-point operator in the physical basis, and a
traced step costs about 0.85 ms on a 2-core host.  The state is
transformed once at the start and back only for the periodic instability
check and the stored snapshots.

``scipy.sparse`` and ``scipy.sparse.linalg`` cost about 0.25 s of import
and 33 MB of resident memory, and nothing else in dynheat needs them, so
they load the first time ``sp`` or ``spla`` is read from this module.
They then stay plain module attributes, and ``spla`` may be rebound (a
tracer may wrap it): ``fd_solve`` calls ``splu`` through whatever
``spla`` is bound to when it runs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .data import InitialData, interior_value, tan_conv
from .kernels import Params
from .quadrature import _count, _positive

__all__ = ["FdGrid", "FdResult", "SchemeError", "fd_solve", "discrete_mass", "compare"]

_this = sys.modules[__name__]


def __getattr__(name):
    """Import the sparse stack on the first read of ``sp`` or ``spla``;
    a binding already made wins."""
    if name not in ("sp", "spla"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy.sparse
    import scipy.sparse.linalg

    globals().setdefault("sp", scipy.sparse)
    globals().setdefault("spla", scipy.sparse.linalg)
    return globals()[name]


class SchemeError(RuntimeError):
    """Time stepping became unstable."""


@dataclass(frozen=True)
class FdGrid:
    """Discretisation of the truncated half-plane."""

    Lx: float = 8.0
    Lz: float = 8.0
    nx: int = 256
    nz: int = 256
    dt: float = 1e-3
    scheme: str = "crank_nicolson"  # the only time scheme
    flux: str = "compact"  # the only wall flux

    def __post_init__(self):
        _positive(self.Lx, "Lx")
        _positive(self.Lz, "Lz")
        if _count(self.nx, "nx") < 4 or _count(self.nz, "nz") < 4:
            raise ValueError("degenerate grid")
        _positive(self.dt, "dt")
        if self.scheme != "crank_nicolson":
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.flux != "compact":
            raise ValueError(f"unknown flux {self.flux!r}")

    @property
    def hx(self) -> float:
        return 2.0 * self.Lx / self.nx

    @property
    def hz(self) -> float:
        return self.Lz / self.nz

    def x_nodes(self) -> np.ndarray:
        return -self.Lx + self.hx * np.arange(self.nx + 1)

    def z_nodes(self) -> np.ndarray:
        return self.hz * np.arange(self.nz + 1)

    def step(self, t: float, name: str = "t") -> int:
        """The step n of the time ``t`` on the clock n dt: the time rule
        (t = 0 admitted), then ``t`` within 1e-9 max(1, t) of n dt, the one
        tolerance of the clock; ValueError naming ``name`` otherwise."""
        n = round(_positive(t, name, zero=True) / self.dt)
        if abs(n * self.dt - t) > 1e-9 * max(1.0, t):
            raise ValueError(f"{name} must fall on multiples of dt, got {t!r}")
        return n


@dataclass
class FdResult:
    grid: FdGrid
    params: Params
    times: list
    fields: list          # full (nz+1, nx+1) arrays, row 0 = boundary line
    masses: list = field(default_factory=list)

    def field_at(self, t: float) -> np.ndarray:
        """The field stored at ``FdGrid.step(t) * dt``, exactly as stored."""
        tn = self.grid.step(t) * self.grid.dt
        for tt, f in zip(self.times, self.fields):
            if tt == tn:
                return f
        raise KeyError(f"no snapshot stored at t={t}")


def _wall(p: Params, grid: FdGrid):
    """(boundary capacity, boundary tangential diffusivity) of the compact
    flux."""
    hz = grid.hz
    return p.delta + p.epsilon * hz / 2.0, p.kappa + hz / 2.0


def _sine(n: int) -> np.ndarray:
    """Orthonormal DST-I matrix of order n: symmetric and its own inverse."""
    k = np.arange(1, n + 1)
    # k j reduced modulo 2(n + 1) in integers, so that sin sees its argument
    # in [0, 2 pi) and the entries carry no argument-reduction error
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * (np.outer(k, k) % (2 * (n + 1))) / (n + 1))


def _assemble(p: Params, grid: FdGrid):
    """Sparse operator L = Lx + Lz and capacity diagonal M of
    M dv/dt = L v in the sine basis along x.

    Unknowns: sine modes k = 1..nx-1 of rows i = 0..nz-1, row-major (all
    modes of row 0, the boundary line, then row 1, ...; the physical field
    vanishes at i = nz and on the columns j = 0 and j = nx).
    """
    sp = _this.sp
    nz, hz = grid.nz, grid.hz
    hz2 = hz**2
    cap0, kap0 = _wall(p, grid)
    lam = -4.0 / grid.hx**2 * np.sin(np.pi * np.arange(1, grid.nx) / (2 * grid.nx)) ** 2
    drow = np.ones(nz)
    drow[0] = kap0
    Lx = sp.diags(np.kron(drow, lam), format="csr")
    wall = np.zeros((1, nz))
    wall[0, :2] = -1.0 / hz, 1.0 / hz  # face flux (u1-u0)/hz
    bulk = sp.diags([1.0 / hz2, -2.0 / hz2, 1.0 / hz2], [0, 1, 2], shape=(nz - 1, nz))
    Lz = sp.kron(sp.vstack([sp.csr_matrix(wall), bulk]), sp.identity(lam.size), format="csr")
    mcol = np.full(nz, p.epsilon, dtype=float)
    mcol[0] = cap0
    return Lx + Lz, np.repeat(mcol, lam.size)


def _operators(p: Params, grid: FdGrid):
    """(lhs, mdt2) of the Crank-Nicolson step: lhs = M/dt - L/2 in CSC
    for splu, and mdt2 the diagonal 2M/dt as a vector.

    The right side M/dt + L/2 equals 2M/dt - lhs, so the step
    lhs v+ = (M/dt + L/2) v is v+ = lhs^-1 (mdt2 v) - v: one LU solve
    and no stored right-hand operator (exact algebra; the factor 2 scales
    without rounding).  Built in a frame of its own, so that L is freed
    before the factorisation and does not add to its peak memory.
    """
    L, mdiag = _assemble(p, grid)
    mdt = mdiag / grid.dt
    return (_this.sp.diags(mdt) - 0.5 * L).tocsc(), 2.0 * mdt


def _initial_state(p: Params, data: InitialData, grid: FdGrid) -> np.ndarray:
    """The nodal start: phi on the bulk rows and, on the wall row,
    (delta psi + (eps hz/2) phi(x, 0)) / (delta + eps hz/2), the boundary
    mass plus the bulk's trapezoidal half-cell over the wall capacity of
    ``_wall``; a phi singular at the wall (a power cutoff) adds no
    half-cell at that node."""
    xs = grid.x_nodes()
    zs = grid.z_nodes()
    u = np.zeros((grid.nz + 1, grid.nx + 1))
    off = np.abs(xs[None, 1:-1] - data.interior.center)
    if data.interior.kind != "zero":
        u[:-1, 1:-1] = interior_value(data.interior, off, zs[:-1, None], p.dim)
    offb = np.abs(xs[1:-1] - data.boundary.center)
    half = p.epsilon * grid.hz / 2.0
    phi0 = np.where(np.isfinite(u[0, 1:-1]), u[0, 1:-1], 0.0)
    u[0, 1:-1] = (p.delta * tan_conv(data.boundary, offb, 0.0, p.dim) + half * phi0) \
        / _wall(p, grid)[0]
    return u


def discrete_mass(p: Params, grid: FdGrid, u: np.ndarray) -> float:
    """eps-weighted bulk mass plus capacity-weighted boundary mass (the
    discrete counterpart of the conservation identity; bulk sum uses the
    trapezoidal half-cell at the wall, which is where the compact flux
    stores it)."""
    cap0, _ = _wall(p, grid)
    bulk = p.epsilon * grid.hx * grid.hz * float(np.sum(u[1:-1, 1:-1]))
    line = cap0 * grid.hx * float(np.sum(u[0, 1:-1]))
    return bulk + line


def fd_solve(p: Params, data: InitialData, grid: FdGrid, t_end: float,
             snapshots=None) -> FdResult:
    """March the coupled bulk/boundary system to ``t_end``.

    ``snapshots`` is a list of times at which fields are stored (always
    includes ``t_end``); each goes through ``FdGrid.step``, as
    ``FdResult.field_at`` does, and 0 stores the initial state.
    """
    if p.dim != 2:
        raise ValueError("the finite-difference oracle is two-dimensional")
    nsteps = grid.step(t_end, "t_end")
    want = {grid.step(t, "snapshots") for t in snapshots or []} | {nsteps}
    if max(want) > nsteps:
        raise ValueError("snapshot outside [0, t_end]")
    u = _initial_state(p, data, grid)
    res = FdResult(grid, p, [], [])
    limit = 10.0 * max(1.0, float(np.max(np.abs(u))))
    lhs, mdt2 = _operators(p, grid)
    # lhs is nx-1 tridiagonal systems interleaved with stride nx-1: the
    # natural order factors it without fill, and the substitutions run the
    # nx-1 chains side by side
    lu = _this.spla.splu(lhs, permc_spec="NATURAL")
    nz, sine = grid.nz, _sine(grid.nx - 1)
    vec = (u[:nz, 1:-1] @ sine).ravel()
    for step in range(nsteps + 1):
        if step > 0:
            w = lu.solve(mdt2 * vec)
            w -= vec
            vec = w
            check = step % 50 == 0 or step == nsteps
            if not (check or step in want):
                continue
            u = np.zeros_like(u)
            u[:nz, 1:-1] = vec.reshape(nz, -1) @ sine
            if check:
                mx = float(np.max(np.abs(u)))
                if not np.isfinite(mx) or mx > limit:
                    raise SchemeError(f"instability detected at step {step}")
        if step in want:
            res.times.append(step * grid.dt)
            res.fields.append(u)
            res.masses.append(discrete_mass(p, grid, u))
    return res


def compare(kernel_values: np.ndarray, fd_values: np.ndarray):
    """Sup and L2 discrepancies between two fields on the same probe
    window, relative to the sup of the kernel values."""
    kernel_values = np.asarray(kernel_values, dtype=float)
    fd_values = np.asarray(fd_values, dtype=float)
    if kernel_values.shape != fd_values.shape:
        raise ValueError("mismatched probe windows")
    if kernel_values.size == 0:
        raise ValueError("empty probe window")
    scale = float(np.max(np.abs(kernel_values)))
    if scale == 0.0:
        scale = 1.0
    diff = kernel_values - fd_values
    sup = float(np.max(np.abs(diff))) / scale
    l2 = float(np.sqrt(np.mean(diff**2))) / scale
    return sup, l2
