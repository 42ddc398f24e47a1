import ast
from pathlib import Path

import rough_angles
import rough_angles.io  # noqa: F401  binds the submodule as a package attribute


def test_star_import_binds_only_the_public_names():
    ns: dict = {}
    exec("from rough_angles import *", ns)
    assert "io" not in ns  # the submodule would shadow the standard library's io
    assert sorted(set(ns) - {"__builtins__"}) == sorted(rough_angles.__all__)


def test_every_public_name_resolves():
    assert len(set(rough_angles.__all__)) == len(rough_angles.__all__)
    for name in rough_angles.__all__:
        assert getattr(rough_angles, name) is not None, name


def _unused_imports(source: str) -> list[str]:
    """Names an import statement in ``source`` binds and no expression reads;
    annotations are expressions in the tree, so a name used only there counts."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_modules_use_every_name_they_import():
    """The package's modules and the test modules.  The package's
    ``__init__.py`` is left out: it imports names to re-export them."""
    src = Path(rough_angles.__file__).parent
    files = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    files += sorted(Path(__file__).parent.glob("*.py"))
    unused = {f"{p.parent.name}/{p.name}": _unused_imports(p.read_text()) for p in files}
    assert {k: v for k, v in unused.items() if v} == {}


def test_unused_import_check_sees_annotations_and_aliases():
    assert _unused_imports("from typing import Optional\ndef f(x: Optional[int]): pass") == []
    assert _unused_imports("import numpy as np\nimport os.path\nos.sep") == ["line 1: np"]
    assert _unused_imports("from .m import a, b as c\nc()") == ["line 1: a"]
