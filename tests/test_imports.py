"""Every module-level import in the package is used, and no module restates
its public names in an __all__ list: a name without a leading underscore
is public.

No linter ships with the toolchain, so this walks the syntax tree: a name
bound by a top-level import must be read somewhere in the module.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "hrex").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_module_assigns_no_all(path):
    stores = [n for n in ast.walk(ast.parse(path.read_text()))
              if isinstance(n, ast.Name) and n.id == "__all__" and isinstance(n.ctx, ast.Store)]
    assert stores == [], "__all__ assigned at line %d" % stores[0].lineno


def loaded_after(statement: str) -> set[str]:
    """Names in sys.modules after running statement in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = statement + "; import sys; print(' '.join(sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    return set(done.stdout.split())


def test_package_root_loads_only_what_a_run_calls():
    # import hrex loads no submodule and no scipy; scipy.integrate serves
    # only the quadrature oracle, so the CLI does not load it either
    loaded = loaded_after("import hrex")
    assert sorted(m for m in loaded if m.startswith("hrex.") or m.split(".")[0] == "scipy") == []
    assert "scipy.integrate" not in loaded_after("import hrex.cli")
