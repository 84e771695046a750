import ast
import importlib
import inspect
import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trotterlab.kernels import scalar_kernel

from builders import identity_kernel, kernel_to_json_dict, random_christensen_evans


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


# Layers whose public code must serve `run` or `validate`, and the names
# they need not reach: perfbench's checks read them.
REACHED_LAYERS = ("trotterlab.algebra", "trotterlab.kernels", "trotterlab.units",
                  "trotterlab.trotter", "trotterlab.scenario")
UNREACHED_ALLOWED = {"trotterlab.trotter.Partition.time_widths",
                     "trotterlab.kernels.OperatorKernel.entries"}


def public_code(module: str) -> dict:
    """``{name: code}`` of the module's ``__all__`` functions and of the public
    methods and properties written in its file, exception classes aside."""
    mod = importlib.import_module(module)
    found = {}
    for name in mod.__all__:
        obj = getattr(mod, name)
        if inspect.isfunction(obj):
            found[f"{module}.{name}"] = obj.__code__
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, member in vars(obj).items():
                func = getattr(member, "fget", None) or getattr(member, "__func__", member)
                if (inspect.isfunction(func) and func.__code__.co_filename == mod.__file__
                        and (not attr.startswith("_") or attr.endswith("__"))):
                    found[f"{module}.{name}.{attr}"] = func.__code__
    return found


def test_runs_reach_every_public_src_function(tmp_path, capsys):
    import trotterlab
    from trotterlab.cli import main
    documents = {"identity": identity_kernel(("a", "b"), 2),
                 "scalar": scalar_kernel(np.array([[1.0, 2.0], [2.0, 1.0]]), ("u", "v")),
                 "ce": random_christensen_evans(("a", "b"), 2, np.random.default_rng(11),
                                                scale=0.8)}
    for name, kernel in documents.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(kernel_to_json_dict(kernel)))
    scenarios = Path(trotterlab.__file__).parent / "scenarios"
    reached = set()
    sys.setprofile(lambda frame, event, arg: reached.add(frame.f_code) if event == "call" else None)
    try:
        for scenario in ("affine_42", "counterexample_41"):
            for schedule in ("dyadic:3:4", "random:2"):
                main(["run", str(scenarios / f"{scenario}.scenario"), "--schedule", schedule,
                      "--out", str(tmp_path / "out")])
        for name in documents:
            main(["validate", str(tmp_path / f"{name}.json")])
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    expected = {name: code for module in REACHED_LAYERS
                for name, code in public_code(module).items()}
    unreached = sorted(name for name, code in expected.items() if code not in reached)
    assert [name for name in unreached if name not in UNREACHED_ALLOWED] == []
