"""The data layer pinned bit for bit.

Each case reaches the value of a datum, or the reflected heat kernel,
through a public entry point: ``solve_grid`` at probes on the wall
(x_N = 0), where a layer term is the boundary data carried by the
tangential heat flow for the layer's time (the data itself for HDpsi and
LDpsi, t/theta for HDPsi); the finite-difference start
``fdsolver._initial_state``; ``interior_value``; and the closed-form
``dirichlet_kernel`` and ``neumann_kernel``.  A case's row is a sha256
prefix of the float.hex of every value it returns.
"""

import hashlib

import numpy as np
import pytest

from dynheat.data import Boundary, InitialData, Interior, NormalProfile, interior_value
from dynheat.fdsolver import FdGrid, _initial_state
from dynheat.kernels import HalfSpacePoint, Params, dirichlet_kernel, neumann_kernel
from dynheat.solutions import solve_grid

# centre 0.25 and radius 0.75 put the probes xp = 1.0 and -0.5 exactly on
# the indicator's edge
BOUNDARIES = {
    "constant": Boundary("constant", c=1.7),
    "heat_gaussian": Boundary("heat_gaussian", a=0.5, center=0.25),
    "indicator": Boundary("indicator", rho=0.75, center=0.25),
    "complement_indicator": Boundary("complement_indicator", rho=0.75, center=0.25),
}
PHI = Interior("heat_gaussian", a=0.4, center=-0.2,
               normal=NormalProfile("gaussian", m=0.6, b=0.3))
PROFILES = {
    "gaussian": NormalProfile("gaussian", m=0.6, b=0.3),
    "indicator": NormalProfile("indicator", lo=0.25, hi=1.0),
    "gaussian_slope": NormalProfile("gaussian_slope", b=0.7),
    "power_cutoff": NormalProfile("power_cutoff", alpha=0.5),
}
WALL_XP = np.array([0.0, 0.5, -1.0, 1.0, -0.5, 0.25, 2.5])
OFFSETS = np.array([0.0, 0.3, 0.75, 1.0, 2.0])
NORMALS = np.array([0.0, 0.25, 0.5, 1.0, 1.5])


def _digest(values):
    hexes = [float(x).hex() for x in np.ravel(values)]
    return hashlib.sha256(" ".join(hexes).encode()).hexdigest()[:32]


def _wall(tag, kind):
    out = []
    for p in (Params(1.0, 1.0, 1.0, 2), Params(0.5, 2.0, 0.3, 2)):
        for t in (0.5, 2.0):
            u, err, conv = solve_grid(tag, p, InitialData(boundary=BOUNDARIES[kind]),
                                      WALL_XP, np.zeros_like(WALL_XP), t, theta=0.7)
            assert conv
            out += list(u) + [err]
    return out


def _initial(kind):
    g = FdGrid(Lx=2.0, Lz=2.0, nx=8, nz=8, dt=0.01)
    p = Params(0.5, 2.0, 1.0, 2)
    return [_initial_state(p, InitialData(phi, BOUNDARIES[kind]), g)
            for phi in (Interior("zero"), PHI)]


def _interior(profile, dim):
    phi = (Interior("constant", c=1.3) if profile == "constant"
           else Interior("heat_gaussian", a=0.4, normal=PROFILES[profile]))
    with np.errstate(divide="ignore"):
        return interior_value(phi, OFFSETS[None, :], NORMALS[:, None], dim)


def _kernel(kernel, dim):
    pts = [(HalfSpacePoint(0.0, 0.0), HalfSpacePoint(0.4, 0.7)),
           (HalfSpacePoint(1.2, 0.5), HalfSpacePoint(-0.3, 0.2)),
           (HalfSpacePoint(0.0, 1.0), HalfSpacePoint(0.0, 1.0)),
           (HalfSpacePoint(3.0, 0.1), HalfSpacePoint(0.0, 4.0))]
    return [kernel(x, y, t, dim) for x, y in pts for t in (0.05, 1.0, 7.5)]


CASES = {
    **{f"wall-{tag}-{kind}": (lambda tag=tag, kind=kind: _wall(tag, kind))
       for tag in ("HDpsi", "LDpsi", "HDPsi") for kind in BOUNDARIES},
    **{f"initial-{kind}": (lambda kind=kind: _initial(kind)) for kind in BOUNDARIES},
    **{f"interior-{prof}-N{dim}": (lambda prof=prof, dim=dim: _interior(prof, dim))
       for prof in ("constant", *PROFILES) for dim in (2, 3)},
    **{f"{name}-N{dim}": (lambda kernel=kernel, dim=dim: _kernel(kernel, dim))
       for name, kernel in (("dirichlet", dirichlet_kernel), ("neumann", neumann_kernel))
       for dim in (2, 3)},
}

_GOLDEN = {
    "wall-HDpsi-constant": "a2792ca9ab86f42b416c8afe1d0fca98",
    "wall-HDpsi-heat_gaussian": "60bd6d5a724c3f49a7f5eeffd513a802",
    "wall-HDpsi-indicator": "1b1b41209c07a07b445a187298104689",
    "wall-HDpsi-complement_indicator": "3aa7c275e7b8e66632746fac613b5151",
    "wall-LDpsi-constant": "a2792ca9ab86f42b416c8afe1d0fca98",
    "wall-LDpsi-heat_gaussian": "60bd6d5a724c3f49a7f5eeffd513a802",
    "wall-LDpsi-indicator": "1b1b41209c07a07b445a187298104689",
    "wall-LDpsi-complement_indicator": "3aa7c275e7b8e66632746fac613b5151",
    "wall-HDPsi-constant": "a2792ca9ab86f42b416c8afe1d0fca98",
    "wall-HDPsi-heat_gaussian": "ea75a8f461ffc07dd0a6913e2bc16517",
    "wall-HDPsi-indicator": "4dfad43ce342e98802139fc8ea3f48d9",
    "wall-HDPsi-complement_indicator": "843349892f49dfd4e872c5ff434ca920",
    "initial-constant": "7957a9bea7c65fa6b5929b2e3d7c0893",
    "initial-heat_gaussian": "a1b450213508762809ab9e4795fd8559",
    "initial-indicator": "4f9cb6498c39757a0839ec66f1bfd65a",
    "initial-complement_indicator": "72c7a2c57d99100c20cc042ee8a0b483",
    "interior-constant-N2": "98251360d05bc469761416b56773ed56",
    "interior-constant-N3": "98251360d05bc469761416b56773ed56",
    "interior-gaussian-N2": "cb740d79d25c36da7c2deb1f55f6435e",
    "interior-gaussian-N3": "e2fd7890b3ddbf49cddce68a8e0b2d2f",
    "interior-indicator-N2": "9820ae453bf631d828c7ae7e65b2ae92",
    "interior-indicator-N3": "1ba0d5e50c43eb1a03cd28c16ca8020e",
    "interior-gaussian_slope-N2": "3bb23b6168f28844f5dc83e64441ec38",
    "interior-gaussian_slope-N3": "b65057f170e5361ee6ce604a624802fa",
    "interior-power_cutoff-N2": "7dbfdcbdde3039c2a2d8ed447591a5c9",
    "interior-power_cutoff-N3": "cc50c23efc38b3125a18a9d4a3ae17f6",
    "dirichlet-N2": "6788dd25453b497f2df341adb6dcc8e9",
    "dirichlet-N3": "ec137a6314c3aeb16aa2350d63942606",
    "neumann-N2": "db6b006f5abfd99a6536b581b6c8c8ec",
    "neumann-N3": "beea94e0cf0814a25dd5da812830b579",
}


@pytest.mark.parametrize("case", CASES)
def test_data_golden(case):
    assert _digest(CASES[case]()) == _GOLDEN[case]
