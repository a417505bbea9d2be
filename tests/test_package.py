"""The package's public names."""

import ast
import re
from pathlib import Path

import heatinv

ROOT = Path(__file__).resolve().parent.parent


def _imported_from_heatinv(source: str) -> set[str]:
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "heatinv"
            for alias in node.names}


def test_every_exported_name_resolves():
    missing = [name for name in heatinv.__all__ if not hasattr(heatinv, name)]
    assert missing == []


def test_exports_are_what_the_readme_and_demos_import():
    """heatinv.__all__ is the names README's python block and the demos
    import from heatinv, plus transport_jets (a README feature), the errors
    those functions raise and __version__: no dead export."""
    readme = (ROOT / "README.md").read_text()
    sources = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(sources) == 1
    sources += [path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))]
    used = set().union(*map(_imported_from_heatinv, sources))
    extra = {"transport_jets", "QuadratureError", "PotentialEvalError",
             "PotentialSyntaxError", "__version__"}
    assert sorted(heatinv.__all__) == sorted(used | extra)
