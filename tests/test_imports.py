"""Each command loads only what it runs, checked in fresh interpreters."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import openrcd
from openrcd import allocation, bounds, config, functions, opensim, rcd, worstcase

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: printed by a snippet after it runs: which of these modules it loaded
REPORT = """
import sys
print(sorted(m for m in ("numpy.random", "concurrent.futures") if m in sys.modules))
"""


def loaded_after(code):
    """The lazily loaded modules a fresh interpreter holds after ``code``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code + REPORT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_importing_the_cli_loads_neither_numpy_random_nor_the_pool():
    assert loaded_after("import openrcd.cli") == "[]"


def test_the_fig2_sweep_never_loads_numpy_random(tmp_path):
    code = ("from openrcd.cli import main\n"
            f"assert main(['worstcase', '--preset', 'fig2-analogue', '--out', {str(tmp_path)!r}]) == 0")
    assert loaded_after(code) == "[]"


@pytest.mark.parametrize("starts, loaded", [
    (729, "[]"),                    # every templated start, no random one
    (730, "['numpy.random']"),      # the first random start builds the generator
    (760, "['numpy.random']"),
])
def test_a_search_loads_numpy_random_at_its_first_random_start(starts, loaded):
    code = ("from openrcd.worstcase import maximize_displacement\n"
            f"maximize_displacement(3, 4.0, 1.0, search_budget={starts}, seed=3)")
    assert loaded_after(code) == loaded


@pytest.mark.parametrize("n, loaded", [
    (5, "['numpy.random']"),
    (64, "['concurrent.futures', 'numpy.random']"),   # pooled from _POOL_MIN_AGENTS
])
def test_only_a_pooled_ensemble_loads_the_thread_pool(n, loaded):
    # two 40-row batches on two workers when pooled
    code = ("import os\n"
            "from openrcd import opensim\n"
            "from openrcd.config import ExperimentConfig\n"
            "os.cpu_count = lambda: 2\n"
            "opensim._BATCH_ROWS = 40\n"
            f"cfg = ExperimentConfig(n={n}, alpha=1.0, beta=1.2, budget=1.0, p_update=0.9,\n"
            "                       horizon=5, replications=80, seed=1)\n"
            "opensim.run_ensemble(cfg)")
    assert loaded_after(code) == loaded


def test_the_package_exports_every_module_name_once():
    assert len(openrcd.__all__) == len(set(openrcd.__all__))
    for module in (allocation, bounds, config, functions, opensim, rcd, worstcase):
        for name in module.__all__:
            assert getattr(openrcd, name) is getattr(module, name), (module.__name__, name)
    namespace = {}
    exec("from openrcd import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(openrcd.__all__)


def _unused_imports(path):
    """Names a module imports and never reads; names in its ``__all__`` and
    imports marked ``# noqa: F401`` are exempt."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ) and isinstance(node.value, ast.List):
            exported |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", sorted(Path(SRC, "openrcd").glob("*.py")), ids=lambda p: p.name)
def test_modules_import_no_name_they_never_use(path):
    assert _unused_imports(path) == []


#: the builtin ``sum`` calls allowed, by module and line: integer counts,
#: whose total is the same in any order
_INTEGER_SUMS = {("opensim.py", "replacement_count = sum(b.replacement_count for b in batches)")}


def _builtin_sums(path):
    """The stripped lines of ``path`` that call the builtin ``sum``."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    return sorted(lines[node.lineno - 1].strip() for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "sum")


@pytest.mark.parametrize("path", sorted(Path(SRC, "openrcd").glob("*.py")), ids=lambda p: p.name)
def test_modules_add_floats_without_the_builtin_sum(path):
    # the builtin sum compensates float sums from Python 3.12 on, so its
    # bits would depend on the interpreter; floats are added in order
    assert [line for line in _builtin_sums(path) if (path.name, line) not in _INTEGER_SUMS] == []
