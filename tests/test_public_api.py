"""The package's public names: ``hoprox.__all__`` is the solver API.

``__all__`` must list exactly the public names ``hoprox`` binds, and every
``hp.<name>`` that the benchmark harness or the README uses must be in it.
"""

import re
import types
from pathlib import Path

import hoprox

REPO = Path(__file__).resolve().parent.parent
HP_NAME = re.compile(r"\bhp\.([A-Za-z_]\w*)")


def test_all_is_the_public_names_bound():
    bound = {
        name
        for name, value in vars(hoprox).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(hoprox.__all__) == len(set(hoprox.__all__))
    assert set(hoprox.__all__) == bound


def test_names_used_by_benchmark_and_readme_are_exported():
    sources = sorted((REPO / "perfbench").glob("*.py")) + [REPO / "README.md"]
    used = {name for path in sources for name in HP_NAME.findall(path.read_text())}
    assert "run_alm" in used and "affine_operator" in used
    assert used <= set(hoprox.__all__), sorted(used - set(hoprox.__all__))
