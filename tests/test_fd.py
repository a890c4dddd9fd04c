from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from dynheat import fdsolver
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
        with pytest.raises(ValueError, match="unknown flux"):
            FdGrid(flux="wide")
        with pytest.raises(ValueError):
            fd_solve(Params(1, 1, 1, 3), InitialData(), FdGrid(nx=8, nz=8), 0.01)

    def test_snapshot_alignment(self):
        g = FdGrid(nx=8, nz=8, dt=1e-2)
        with pytest.raises(ValueError):
            fd_solve(P111, InitialData(), g, 0.055)
        with pytest.raises(ValueError, match="multiples of dt"):
            fd_solve(P111, InitialData(), g, 0.05, snapshots=[0.025])

    @pytest.mark.parametrize("scheme", ["crank_nicolson", "imex_euler"])
    def test_initial_snapshot_stored(self, scheme):
        g = FdGrid(nx=8, nz=8, dt=1e-2, scheme=scheme)
        res = fd_solve(P111, GAUSS_PSI, g, 0.05, snapshots=[0.0, 0.05])
        u0 = _initial_state(P111, GAUSS_PSI, g)
        assert res.times == [0.0, 0.05]
        assert np.array_equal(res.field_at(0.0), u0)
        assert res.masses[0] == discrete_mass(P111, g, u0)
        assert fd_solve(P111, GAUSS_PSI, g, 0.0).times == [0.0]


class TestOperator:
    """L against the stencil it encodes, applied to a random field that is
    zero on the clamped sides j = 0, j = nx and i = nz."""

    # integer parameters, as a JSON config gives them, must not truncate
    # the fractional wall capacity
    P = Params(2, 3, 4, 2)

    def stencil(self, grid, u):
        eps, delta, kappa = self.P.epsilon, self.P.delta, self.P.kappa
        hx2, hz = grid.hx**2, grid.hz
        U = np.zeros((grid.nz + 1, grid.nx + 1))
        U[:-1, 1:-1] = u
        dxx = (U[:, :-2] - 2.0 * U[:, 1:-1] + U[:, 2:]) / hx2
        out = np.empty_like(u)
        out[1:] = dxx[1:-1] + (U[:-2, 1:-1] - 2.0 * U[1:-1, 1:-1] + U[2:, 1:-1]) / hz**2
        cap0, kap0 = delta + eps * hz / 2.0, kappa + hz / 2.0
        out[0] = kap0 * dxx[0] + (U[1, 1:-1] - U[0, 1:-1]) / hz
        mdiag = np.full_like(u, eps)
        mdiag[0] = cap0
        return out.ravel(), mdiag.ravel()

    @pytest.mark.parametrize("flux", ["compact"])
    def test_operator_matches_stencil(self, flux):
        rng = np.random.default_rng(5)
        g = FdGrid(Lx=3.0, Lz=2.0, nx=12, nz=7, dt=0.5, flux=flux)
        u = rng.standard_normal((g.nz, g.nx - 1))
        L, mdiag = _assemble(self.P, g)
        want, m_want = self.stencil(g, u)
        assert np.max(np.abs(L @ u.ravel() - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(mdiag, m_want)
        for scheme in ("crank_nicolson", "imex_euler"):
            lhs, rhs = _operators(self.P, replace(g, scheme=scheme))
            # CN's halves and IMEX's implicit and explicit parts add up to L
            got = rhs @ u.ravel() - lhs @ u.ravel()
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), scheme
        # IMEX is implicit in the normal direction only: its lhs couples no
        # two columns
        lhs, _ = _operators(self.P, replace(g, scheme="imex_euler"))
        rows, cols = lhs.nonzero()
        assert np.array_equal(rows % (g.nx - 1), cols % (g.nx - 1))


class TestOrdering:
    """The LU of the step is ordered by minimum degree on A^T + A."""

    def test_fill_guard(self, monkeypatch):
        # deterministic counts at 128^2 CN: MMD_AT_PLUS_A 656,494 nonzeros in
        # L and U, SuperLU's default COLAMD 1,195,108
        fills = []

        def splu(A, *args, **kwargs):
            lu = spla.splu(A, *args, **kwargs)
            fills.append(lu.L.nnz + lu.U.nnz)
            return lu

        monkeypatch.setattr(fdsolver, "spla", SimpleNamespace(splu=splu))
        g = FdGrid(nx=128, nz=128)
        fd_solve(P111, GAUSS_PSI, g, g.dt)
        assert len(fills) == 1
        assert fills[0] <= 700_000

    @pytest.mark.parametrize("flux", ["compact"])
    def test_ordering_changes_only_rounding(self, flux):
        g = FdGrid(nx=96, nz=96, flux=flux)
        steps = 5
        got = fd_solve(P111, GAUSS_PSI, g, steps * g.dt).fields[-1]
        lhs, rhs = _operators(P111, g)
        lu = spla.splu(lhs)
        u = _initial_state(P111, GAUSS_PSI, g)
        vec = u[:g.nz, 1:-1].reshape(-1)
        for _ in range(steps):
            vec = lu.solve(rhs @ vec)
        want = np.zeros_like(u)
        want[:g.nz, 1:-1] = vec.reshape(g.nz, g.nx - 1)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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


class TestSchemes:
    def test_imex_matches_cn(self):
        g_cn = FdGrid(nx=96, nz=96, dt=1e-3)
        g_im = FdGrid(nx=96, nz=96, dt=1e-3, scheme="imex_euler")
        a = fd_solve(P111, GAUSS_PSI, g_cn, 0.25, snapshots=[0.25]).field_at(0.25)
        b = fd_solve(P111, GAUSS_PSI, g_im, 0.25, snapshots=[0.25]).field_at(0.25)
        assert np.max(np.abs(a - b)) < 5e-3

    def test_imex_instability_detected(self):
        # tangentially explicit step far beyond its CFL limit
        g = FdGrid(nx=128, nz=16, Lz=2.0, dt=5e-2, scheme="imex_euler")
        p = Params(0.5, 1.0, 1.0, 2)
        with pytest.raises(SchemeError):
            fd_solve(p, GAUSS_PSI, g, 2.5, snapshots=[2.5])


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
                                         spec=QuadSpec(max_subdivisions=1))
        assert not converged

    def test_compare_requires_matching_windows(self):
        with pytest.raises(ValueError):
            compare(np.zeros(3), np.zeros(4))

    def test_compare_rejects_empty_window(self):
        with pytest.raises(ValueError, match="empty probe window"):
            compare(np.zeros(0), np.zeros(0))

    def test_compare_identical_is_zero(self):
        sup, l2 = compare(np.ones(5), np.ones(5))
        assert sup == 0.0 and l2 == 0.0
