import importlib

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
