import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.fft import dst

from dynheat import fdsolver, verification
from dynheat.data import Boundary, InitialData, Interior
from dynheat.fdsolver import FdGrid, SchemeError, compare, discrete_mass, fd_solve
from dynheat.fdsolver import _assemble, _initial_state, _operators
from dynheat.kernels import Params
from dynheat.quadrature import QuadSpec
from dynheat.verification import oracle_compare

P111 = Params(1.0, 1.0, 1.0, 2)
GAUSS_PSI = InitialData(boundary=Boundary("heat_gaussian", a=0.5))


class TestBasics:
    def test_constants_preserved(self):
        ones = InitialData(Interior("constant", c=1.0), Boundary("constant", c=1.0))
        g = FdGrid(nx=96, nz=96, dt=2e-3)
        res = fd_solve(P111, ones, g, 0.5, snapshots=[0.5])
        xs, zs = g.x_nodes(), g.z_nodes()
        win = (np.abs(xs[None, :]) <= 1.0) & (zs[:, None] <= 1.0)
        assert np.max(np.abs(res.field_at(0.5)[win] - 1.0)) < 1e-6

    def test_zero_data_stays_zero(self):
        g = FdGrid(nx=32, nz=32, dt=5e-3)
        res = fd_solve(P111, InitialData(), g, 0.05, snapshots=[0.05])
        assert np.all(res.field_at(0.05) == 0.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            FdGrid(nx=2)
        with pytest.raises(ValueError):
            FdGrid(dt=0.0)
        with pytest.raises(ValueError):
            FdGrid(scheme="leapfrog")
        with pytest.raises(ValueError, match="unknown scheme"):
            FdGrid(scheme="imex_euler")
        with pytest.raises(ValueError, match="unknown flux"):
            FdGrid(flux="wide")
        with pytest.raises(ValueError):
            fd_solve(Params(1, 1, 1, 3), InitialData(), FdGrid(nx=8, nz=8), 0.01)

    @pytest.mark.parametrize("kwargs", [
        {"Lx": np.nan}, {"Lz": np.inf}, {"dt": np.nan}, {"dt": np.inf},
        {"nx": 16.5}, {"nz": 16.0}, {"nx": True},
    ])
    def test_grid_rejects_nonfinite_and_fractional(self, kwargs):
        with pytest.raises(ValueError):
            FdGrid(**kwargs)
        FdGrid(nx=np.int64(16), nz=np.int32(16))

    def test_snapshot_alignment(self):
        g = FdGrid(nx=8, nz=8, dt=1e-2)
        with pytest.raises(ValueError):
            fd_solve(P111, InitialData(), g, 0.055)
        with pytest.raises(ValueError, match="multiples of dt"):
            fd_solve(P111, InitialData(), g, 0.05, snapshots=[0.025])

    @pytest.mark.parametrize("t_end, snapshots, match", [
        (math.nan, None, "t_end must be finite and nonnegative"),
        (math.inf, None, "t_end must be finite and nonnegative"),
        (-0.5, None, "t_end must be finite and nonnegative"),
        (0.05, [math.nan], "snapshots must be finite"),
        (0.05, [0.02, math.inf], "snapshots must be finite"),
    ], ids=["t_end-nan", "t_end-inf", "t_end-negative", "snapshot-nan", "snapshot-inf"])
    def test_rejects_nonfinite_or_negative_times(self, t_end, snapshots, match):
        g = FdGrid(nx=8, nz=8, dt=1e-2)
        with pytest.raises(ValueError, match=match):
            fd_solve(P111, InitialData(), g, t_end, snapshots=snapshots)

    def test_initial_snapshot_stored(self):
        g = FdGrid(nx=8, nz=8, dt=1e-2)
        res = fd_solve(P111, GAUSS_PSI, g, 0.05, snapshots=[0.0, 0.05])
        u0 = _initial_state(P111, GAUSS_PSI, g)
        assert res.times == [0.0, 0.05]
        assert np.array_equal(res.field_at(0.0), u0)
        assert res.masses[0] == discrete_mass(P111, g, u0)
        assert fd_solve(P111, GAUSS_PSI, g, 0.0).times == [0.0]


class TestOperator:
    """L against the stencil it encodes, applied to a random field that is
    zero on the clamped sides j = 0, j = nx and i = nz.  The solver holds L
    in the orthonormal sine basis along x, mode-major; the stencil works on
    physical (nz, nx-1) fields, rows i = 0..nz-1 and columns j = 1..nx-1."""

    # integer parameters, as a JSON config gives them, must not truncate
    # the fractional wall capacity
    P = Params(2, 3, 4, 2)

    def stencil(self, grid, u):
        """(tangential part, normal part, capacity) of the physical operator
        on the field u."""
        eps, delta, kappa = self.P.epsilon, self.P.delta, self.P.kappa
        hx2, hz = grid.hx**2, grid.hz
        U = np.zeros((grid.nz + 1, grid.nx + 1))
        U[:-1, 1:-1] = u
        cap0, kap0 = delta + eps * hz / 2.0, kappa + hz / 2.0
        tan = (U[:-1, :-2] - 2.0 * U[:-1, 1:-1] + U[:-1, 2:]) / hx2
        tan[0] *= kap0
        nor = np.empty_like(u)
        nor[1:] = (U[:-2, 1:-1] - 2.0 * U[1:-1, 1:-1] + U[2:, 1:-1]) / hz**2
        nor[0] = (U[1, 1:-1] - U[0, 1:-1]) / hz
        mdiag = np.full_like(u, eps)
        mdiag[0] = cap0
        return tan, nor, mdiag

    @staticmethod
    def modes(u):
        """Physical (nz, nx-1) field -> mode-major sine coefficients."""
        return dst(u, type=1, norm="ortho", axis=1).T.ravel()

    def test_operator_matches_stencil(self):
        rng = np.random.default_rng(5)
        g = FdGrid(Lx=3.0, Lz=2.0, nx=12, nz=7, dt=0.5)
        u = rng.standard_normal((g.nz, g.nx - 1))
        L, mdiag = _assemble(self.P, g)
        tan, nor, m_want = self.stencil(g, u)
        want = self.modes(tan + nor)
        v = self.modes(u)
        assert np.max(np.abs(L @ v - want)) <= 1e-12 * np.max(np.abs(want))
        # the capacity is constant along x, so it is the same in either basis
        assert np.array_equal(mdiag, m_want.T.ravel())
        lhs, mdt2 = _operators(self.P, g)
        # lhs = M/dt - L/2 and mdt2 = 2M/dt, so the step's right side
        # M/dt + L/2 is mdt2 - lhs and the two give back L
        got = mdt2 * v - 2 * (lhs @ v)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # lhs couples no two modes (Lx is diagonal in the sine basis)
        rows, cols = lhs.nonzero()
        assert np.array_equal(rows // g.nz, cols // g.nz)


class TestSineBasis:
    """The march in the sine basis against one in the physical basis, and
    the fill of its LU."""

    def test_fill_guard(self, monkeypatch):
        # no fill: each of the nx-1 modes is a tridiagonal system in z, whose
        # L and U hold at most 4 nonzeros per unknown (65,024 at 128^2; the
        # 5-point LU in the physical basis held 656,494)
        fills = []

        def splu(A, *args, **kwargs):
            lu = spla.splu(A, *args, **kwargs)
            fills.append(lu.L.nnz + lu.U.nnz)
            return lu

        monkeypatch.setattr(fdsolver, "spla", SimpleNamespace(splu=splu))
        g = FdGrid(nx=128, nz=128)
        fd_solve(P111, GAUSS_PSI, g, g.dt)
        assert len(fills) == 1
        assert fills[0] <= 4 * g.nz * (g.nx - 1)

    def test_march_matches_physical_reference(self):
        # the physical operator, column by column, from the stencil alone;
        # two-sided Crank-Nicolson steps, past the instability check at step 50
        op = TestOperator()
        g = FdGrid(Lx=3.0, Lz=2.0, nx=24, nz=17, dt=1e-2)
        n = g.nz * (g.nx - 1)
        cols = [op.stencil(g, e.reshape(g.nz, g.nx - 1)) for e in np.eye(n)]
        L = sp.csr_matrix(np.column_stack([(c[0] + c[1]).ravel() for c in cols]))
        M = sp.diags(cols[0][2].ravel() / g.dt)
        steps = 60
        u0 = _initial_state(op.P, GAUSS_PSI, g)
        lu = spla.splu((M - 0.5 * L).tocsc())
        rhs = M + 0.5 * L
        vec = u0[:g.nz, 1:-1].ravel()
        for _ in range(steps):
            vec = lu.solve(rhs @ vec)
        want = np.zeros_like(u0)
        want[:g.nz, 1:-1] = vec.reshape(g.nz, g.nx - 1)
        got = fd_solve(op.P, GAUSS_PSI, g, steps * g.dt).fields[-1]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_one_lu_solve_per_step(self, monkeypatch):
        # one factorisation and exactly one solve per step, which the
        # benchmark tracer's per-step counts assume
        factors, solves = [], []

        class CountedLU:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs):
                solves.append(rhs.shape)
                return self.lu.solve(rhs)

        def splu(A, *args, **kwargs):
            factors.append(A.shape)
            return CountedLU(spla.splu(A, *args, **kwargs))

        monkeypatch.setattr(fdsolver, "spla", SimpleNamespace(splu=splu))
        g = FdGrid(nx=16, nz=16, dt=1e-2)
        n = g.nz * (g.nx - 1)
        fd_solve(P111, GAUSS_PSI, g, 0.6, snapshots=[0.2, 0.4])
        assert factors == [(n, n)]
        assert solves == [(n,)] * 60


class TestConservation:
    def test_mass_conserved_compact_flux(self):
        g = FdGrid(nx=128, nz=128, dt=2e-3)
        res = fd_solve(P111, GAUSS_PSI, g, 0.5, snapshots=[0.25, 0.5])
        m0 = discrete_mass(P111, g, _initial_state(P111, GAUSS_PSI, g))
        drift = max(abs(m - m0) for m in res.masses)
        # per unit time within the stated budget over the horizon where the
        # solution's slow tangential tail has not yet reached the far sides
        assert drift / 0.5 < 1e-6

    def test_positivity_preserved(self):
        g = FdGrid(nx=96, nz=96, dt=2e-3)
        res = fd_solve(P111, GAUSS_PSI, g, 0.25, snapshots=[0.25])
        assert res.field_at(0.25).min() > -1e-12


class TestInstabilityGuard:
    def test_amplifying_step_raises(self, monkeypatch):
        # a step that doubles every mode: with lhs = I the step is
        # v+ = mdt2 v - v, so mdt2 = 3; the check at step 50 must stop it
        def operators(p, grid):
            n = grid.nz * (grid.nx - 1)
            return sp.identity(n, format="csc"), np.full(n, 3.0)

        monkeypatch.setattr(fdsolver, "_operators", operators)
        g = FdGrid(nx=8, nz=8, dt=1e-2)
        with pytest.raises(SchemeError, match="at step 50"):
            fd_solve(P111, GAUSS_PSI, g, 1.0)


class TestAgreementAndOrder:
    def test_kernel_agreement_moderate_grid(self):
        g = FdGrid(nx=128, nz=128, dt=2e-3)
        table, converged, res = oracle_compare(P111, GAUSS_PSI, g, (0.25, 0.5))
        assert converged
        assert res.times == [0.25, 0.5]
        assert [t for t, _, _ in table] == [0.25, 0.5]
        for _, sup, l2 in table:
            assert sup < 4e-2
            assert l2 <= sup

    def test_oracle_compare_flags_nonconvergence(self):
        g = FdGrid(nx=16, nz=16, dt=0.05)
        _, converged, _ = oracle_compare(P111, GAUSS_PSI, g, (0.25,),
                                         spec=QuadSpec(rel_tol=1e-15, abs_tol=1e-300,
                                                       max_subdivisions=1))
        assert not converged

    @pytest.mark.parametrize("times", [(), (0.0, 0.25), (0.25, -0.5)])
    def test_oracle_compare_rejects_times_before_the_march(self, monkeypatch, times):
        def fd_solve(*args, **kwargs):
            raise AssertionError("fd_solve ran")

        monkeypatch.setattr(verification, "fd_solve", fd_solve)
        with pytest.raises(ValueError, match="non-empty and positive"):
            oracle_compare(P111, GAUSS_PSI, FdGrid(nx=8, nz=8), times)

    def test_compare_requires_matching_windows(self):
        with pytest.raises(ValueError):
            compare(np.zeros(3), np.zeros(4))

    def test_compare_rejects_empty_window(self):
        with pytest.raises(ValueError, match="empty probe window"):
            compare(np.zeros(0), np.zeros(0))

    def test_compare_identical_is_zero(self):
        sup, l2 = compare(np.ones(5), np.ones(5))
        assert sup == 0.0 and l2 == 0.0
