"""Checks on the package source itself."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "topospat"

# bench/traced_cli.py wraps these in timing spans by looking them up on
# spatial_stats, so that module keeps them imported though it calls none
KEPT_FOR_THE_BENCH = {
    "spatial_stats.py": {"betti_curve", "curve_lp_distance", "landscape",
                         "landscape_lp_distance", "mean_step_curve", "superlevel_diagram",
                         "total_lifetime"},
}


def _unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    return imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_every_import_is_used(name):
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    assert _unused_imports(tree) == KEPT_FOR_THE_BENCH.get(name, set())
