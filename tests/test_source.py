"""Source hygiene: every name a module of fdseg imports is used by it, and
importing fdseg loads nothing beyond numpy and the standard library."""
import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest
import scipy.stats

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


def fresh_interpreter(code: str) -> str:
    """Stdout of `code` run by a new interpreter that imports from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout


def test_import_loads_only_numpy_and_the_standard_library():
    out = fresh_interpreter(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import fdseg.cli\n"
        "print(json.dumps([sorted(sys.modules), sorted(before)]))\n")
    modules, before = json.loads(out)
    assert not [m for m in modules if m.split(".")[0] == "scipy"]
    loaded = set(modules) - set(before)
    # multiprocessing registers __main__ a second time as __mp_main__
    others = {m.split(".")[0] for m in loaded} - set(sys.stdlib_module_names)
    assert others <= {"fdseg", "numpy", "__mp_main__"}, sorted(others)


def test_import_resolves_no_blas_symbol():
    out = fresh_interpreter(
        "import fdseg.cli\n"
        "from fdseg.tensor import _openblas\n"
        "print(_openblas.cache_info().currsize)\n")
    assert out.strip() == "0"


def test_t_test_imports_scipy_when_called():
    runs = (0.91, 0.87, 0.95, 0.90, 0.88)
    out = fresh_interpreter(
        "import json, sys\n"
        "from fdseg.trainer import one_sample_t_test\n"
        "assert 'scipy.special' not in sys.modules\n"
        f"print(json.dumps(one_sample_t_test(0.85, {runs!r})))\n")
    t, p, degenerate = json.loads(out)
    oracle = scipy.stats.ttest_1samp(runs, 0.85)
    assert not degenerate
    assert t == pytest.approx(oracle.statistic, rel=1e-12)
    assert p == pytest.approx(oracle.pvalue, rel=1e-9)
