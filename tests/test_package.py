"""Package surface: what each module says it exports."""

import ast
import importlib
import json
import pkgutil
from pathlib import Path

import pytest

import envcert

MODULES = sorted(m.name for m in pkgutil.iter_modules(envcert.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    # a stale __all__ entry does not fail at import, only at `import *`
    mod = importlib.import_module(f"envcert.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    if path.name == "__init__.py":
        return []  # every import there is a re-export
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # no linter is a dependency, so the stdlib parser stands in for one
    root = Path(__file__).resolve().parent.parent
    files = sorted((root / "src" / "envcert").glob("*.py")) + sorted((root / "tests").glob("*.py"))
    unused = [u for path in files for u in _unused_imports(path)]
    assert unused == []


def test_one_name_one_version():
    # the distribution reads its version from the package, and reports
    # carry the same value
    text = (Path(envcert.__file__).parents[2] / "pyproject.toml").read_text()
    assert 'name = "envcert"' in text
    assert 'version = {attr = "envcert.__version__"}' in text
    from envcert.report import ReportDocument, emit_report

    doc = ReportDocument(command="axioms", config={}, tolerances={}, result={})
    assert json.loads(emit_report(doc))["tool"]["version"] == envcert.__version__
