"""The library's module layering: a module imports only the layers below it.

``topology`` is the graph substrate, with the hop search, and imports
nothing from the package; ``state``, the routing state every router shares,
rests on ``topology`` and ``workload`` alone; HGR routes on that state and
never reaches into the greedy router (``mrg``) or the baselines. Importing
the package loads no process machinery: only a sweep with workers does.
"""

import ast
import subprocess
import sys
from pathlib import Path

import greenroute

PACKAGE = Path(greenroute.__file__).parent


def _imports(module):
    """The package modules that ``module`` imports from; ``greenroute`` for the package itself."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:  # relative, so within the package
            names.update([f"greenroute.{node.module}"] if node.module
                         else (f"greenroute.{alias.name}" for alias in node.names))
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
    return {name.split(".")[1] if "." in name else name for name in names if name.split(".")[0] == "greenroute"}


def test_each_module_imports_only_the_layers_below_it():
    assert _imports("topology") == set()
    assert _imports("state") <= {"topology", "workload"}
    assert not _imports("hgr") & {"mrg", "baselines", "greenroute"}


def test_importing_the_package_loads_no_process_pool():
    ran = subprocess.run([sys.executable, "-c", "import sys, greenroute; print(sorted(m for m in sys.modules "
                          "if m.split('.')[0] == 'multiprocessing' or m == 'concurrent.futures.process'))"],
                         capture_output=True, text=True, check=True, cwd=PACKAGE.parent)
    assert ran.stdout == "[]\n"
