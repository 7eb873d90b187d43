"""Every module-level import in the package is used, and every __all__
lists exactly its module's public names.

No linter ships with the toolchain, so this walks the syntax tree: a name
bound by a top-level import must be read somewhere in the module or be
re-exported through __all__.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "hrex").glob("*.py"))


def listed_in_all(tree: ast.Module) -> list[str] | None:
    """The names of the module's __all__, or None when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    exported = listed_in_all(tree) or []
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used and name not in exported]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os"]
    assert unused_imports("from a import b as c\n__all__ = ['c']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def all_mismatch(source: str) -> tuple[list[str], list[str]] | None:
    """(public top-level defs missing from __all__, names in __all__ that are
    not one), or None for a module without __all__."""
    tree = ast.parse(source)
    listed = listed_in_all(tree)
    if listed is None:
        return None
    public = [n.name for n in tree.body
              if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")]
    return [n for n in public if n not in listed], [n for n in listed if n not in public]


def test_all_checker_flags_both_directions():
    source = "__all__ = ['f', 'gone']\ndef f(): pass\ndef g(): pass\ndef _h(): pass\n"
    assert all_mismatch(source) == (["g"], ["gone"])
    assert all_mismatch("def f(): pass\n") is None


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_all_lists_exactly_the_public_defs(path):
    assert all_mismatch(path.read_text()) in (None, ([], []))


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
