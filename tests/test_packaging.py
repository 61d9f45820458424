"""Packaging must declare exactly what the source imports.

Every third-party package imported anywhere under ``src/repro`` has to
appear in ``setup.py``'s ``install_requires``; otherwise a clean
``pip install`` yields a package that fails at import time.  And every
declared package has to be imported, so a dependency the code dropped
is not still installed into every deployment.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _imported_packages() -> dict[str, str]:
    """Top-level third-party package -> first ``path:line`` importing it."""
    found: dict[str, str] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top == "repro" or top in sys.stdlib_module_names:
                    continue
                where = f"{path.relative_to(ROOT)}:{node.lineno}"
                found.setdefault(top, where)
    return found


def _install_requires() -> set[str]:
    """Distribution names in the ``setup(install_requires=...)`` call."""
    tree = ast.parse((ROOT / "setup.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "setup":
            for kw in node.keywords:
                if kw.arg == "install_requires":
                    return {
                        re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower()
                        for req in ast.literal_eval(kw.value)
                    }
    raise AssertionError("setup.py has no setup(install_requires=...)")


def test_every_third_party_import_is_declared():
    imported = _imported_packages()
    assert "numpy" in imported  # the scan itself sees src/repro
    declared = _install_requires()
    missing = {
        package: where
        for package, where in imported.items()
        if package.lower() not in declared
    }
    assert not missing, f"imported but not in install_requires: {missing}"


def test_every_declared_requirement_is_imported():
    imported = {package.lower() for package in _imported_packages()}
    unused = _install_requires() - imported
    assert not unused, f"in install_requires but never imported: {unused}"
