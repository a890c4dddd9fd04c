import importlib
import os
import pkgutil
import subprocess
import sys

import dynheat


def test_import_loads_no_scipy_until_the_oracle_runs():
    # numpy alone is about 27.5 MB resident.  On top of it scipy.special adds
    # about 26 MB and scipy.sparse.linalg about 33 MB, and each costs about
    # 0.2 s of import (once scipy.sparse is loaded, scipy.special adds only
    # 4 MB and 0.05 s).  Only the finite-difference oracle needs the sparse
    # stack and only indicator data and the closed-form marginal references
    # need scipy.special, so each loads when first used, and a run that never
    # calls them pays for neither.  The finite-difference start takes
    # indicator data at T = 0, the indicator itself, without erf.
    src = os.path.dirname(os.path.dirname(dynheat.__file__))
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import dynheat, dynheat.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))); "
        "from dynheat import FdGrid, InitialData, Boundary, Params, fd_solve; "
        "fd_solve(Params(1, 1, 1, 2), InitialData(boundary=Boundary('heat_gaussian', a=0.5)), "
        "FdGrid(Lx=4.0, Lz=4.0, nx=16, nz=16, dt=0.01), 0.05); "
        "print('scipy.sparse.linalg' in sys.modules); "
        "fd_solve(Params(1, 1, 1, 2), InitialData(boundary=Boundary('indicator', rho=0.5)), "
        "FdGrid(Lx=4.0, Lz=4.0, nx=16, nz=16, dt=0.01), 0.05); "
        "print('scipy.special' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout.split() == ["[]", "True", "False"]


def test_sparse_names_resolve_and_others_raise():
    from dynheat import fdsolver

    assert fdsolver.sp.__name__ == "scipy.sparse"
    assert fdsolver.spla.__name__ == "scipy.sparse.linalg"
    assert not hasattr(fdsolver, "no_such_name")


def test_every_exported_name_exists():
    # a name deleted from a module but left in its __all__ fails here
    missing = []
    for info in pkgutil.iter_modules(dynheat.__path__):
        mod = importlib.import_module(f"dynheat.{info.name}")
        missing += [f"{info.name}.{n}" for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
