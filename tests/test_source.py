"""Source hygiene: every name a module of fdseg imports is used by it."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fdseg"

# module -> imported names kept on purpose although the module never uses them
KEPT = {
    # perfbench/spans.py lists fdseg.trainer.fd_loss in PLAIN and patches it
    "trainer": {"fd_loss"},
}


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


def used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = imported_names(tree) - used_names(tree) - KEPT.get(path.stem, set())
    assert not unused, f"{path.name} imports but never uses {sorted(unused)}"
