import importlib
import os
import pkgutil
import subprocess
import sys

import dynheat


def test_import_loads_no_fft_or_special():
    # scipy.fft and scipy.special add about 5 MB of resident memory each to
    # every run; the functions that need them import them when called
    src = os.path.dirname(os.path.dirname(dynheat.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import dynheat; "
            "print(sorted(m for m in ('scipy.fft', 'scipy.special') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_every_exported_name_exists():
    # a name deleted from a module but left in its __all__ fails here
    missing = []
    for info in pkgutil.iter_modules(dynheat.__path__):
        mod = importlib.import_module(f"dynheat.{info.name}")
        missing += [f"{info.name}.{n}" for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
