import ast
import importlib
import inspect
import itertools
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize("module", ["trotterlab", "trotterlab.algebra", "trotterlab.kernels",
                                    "trotterlab.units", "trotterlab.trotter",
                                    "trotterlab.scenario", "trotterlab.fock"])
def test_every_all_entry_resolves(module):
    # The benchmark tracer calls getattr on every entry of the layer
    # modules' __all__, so a stale name would crash a traced run; and it
    # wraps only those entries, so an unlisted public function goes untraced.
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)
    public = [name for name, obj in vars(mod).items()
              if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == module]
    assert [name for name in public if name not in mod.__all__] == []


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


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports (``__future__`` aside) and neither uses nor lists in ``__all__``."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_src_modules_use_every_import():
    import trotterlab
    unused = {path.name: names for path in sorted(Path(trotterlab.__file__).parent.glob("*.py"))
              if (names := unused_imports(ast.parse(path.read_text())))}
    assert unused == {}


def test_scenario_grammar_names_every_directive():
    # The grammar block is the first indented block of the module docstring.
    from trotterlab import scenario
    lines = scenario.__doc__.splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("    "))
    block = itertools.takewhile(lambda line: line.startswith("    "), lines[first:])
    assert {line.split()[0] for line in block} == set(scenario._DIRECTIVES)
