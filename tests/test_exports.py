import importlib
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize("module", ["trotterlab", "trotterlab.algebra", "trotterlab.kernels",
                                    "trotterlab.units", "trotterlab.trotter",
                                    "trotterlab.scenario", "trotterlab.fock"])
def test_every_all_entry_resolves(module):
    # The benchmark tracer calls getattr on every entry of the layer
    # modules' __all__, so a stale name would crash a traced run.
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_exports_only_the_version():
    import trotterlab
    assert trotterlab.__all__ == ["__version__"]


def test_cli_does_not_import_the_fock_oracle():
    import trotterlab
    src = str(Path(trotterlab.__file__).resolve().parents[1])
    probe = "import trotterlab.cli, sys; print('trotterlab.fock' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], cwd=src, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
