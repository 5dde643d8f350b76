"""Every module-level import in the package and the scripts is used, and
every function, class and method of the package is referenced.

No linter ships with the test dependencies, so this walks the syntax trees
itself: a name bound by a top-level ``import`` must be read somewhere in its
module, and a name the package defines must be read somewhere in the
package, the scripts or the benchmark.  Tests do not count: what only a test
calls belongs in the tests.  The package ``__init__`` re-exports names and
is left out of the import check.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "srlcomb").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "scripts").glob("*.py"))


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    assert _unused_imports("import os\nimport sys as system\nfrom a.b import c, d\n"
                           "print(d, system)\n") == [(1, "os"), (3, "c")]


PACKAGE = sorted((ROOT / "src" / "srlcomb").glob("*.py"))
CALLERS = sorted(p for d in ("src", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py"))
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(source: str) -> list:
    """(line, name) of each module-level function and class, and of each
    method of such a class, as ``Class.method``; dunders are left out."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, _DEFS):
            out.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            out += [(sub.lineno, f"{node.name}.{sub.name}")
                    for sub in node.body if isinstance(sub, _DEFS)]
    return [(line, name) for line, name in out
            if not (name.rpartition(".")[2].startswith("__")
                    and name.endswith("__"))]


def _references(source: str) -> set:
    """The names a module reads, bare or as an attribute."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def _unreferenced(source: str, references: set) -> list:
    return [(line, name) for line, name in _definitions(source)
            if name.rpartition(".")[2] not in references]


@pytest.fixture(scope="module")
def references():
    return set().union(*(_references(p.read_text(encoding="utf-8")) for p in CALLERS))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_definition_is_referenced(path, references):
    assert _unreferenced(path.read_text(encoding="utf-8"), references) == []


def test_unreferenced_definition_is_found():
    source = ("class Box:\n"
              "    def __len__(self):\n        return self.size()\n"
              "    def size(self):\n        return 0\n"
              "    def unused(self):\n        return 1\n"
              "def main():\n    return len(Box())\n"
              "def helper():\n    return main()\n")
    assert _unreferenced(source, _references(source)) == [(6, "Box.unused"), (10, "helper")]


def test_features_and_pool_import_without_numpy():
    """Feature extraction, pooling and calibration need no numpy, so a
    process that only pools and extracts does not pay for importing it."""
    code = ("import sys, srlcomb.features, srlcomb.pool, srlcomb.calibrate; "
            "print('numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def _fresh(code: str) -> list:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    return out.stdout.splitlines()


def test_infer_gold_does_not_import_numpy_ma(tmp_path):
    """The bootstrap reads its bounds without ``np.percentile``, so scoring
    against gold does not pay for importing ``numpy.ma``."""
    systems = [f"--system={tmp_path}/sys{i}.props:{tmp_path}/sys{i}.scores" for i in (1, 2, 3)]
    argv = ["infer", *systems, f"--gold={tmp_path}/gold.props", f"--out={tmp_path}/out.props"]
    code = ("import sys; from srlcomb.cli import main; "
            f"assert main(['synth', '--out', {str(tmp_path)!r}, '--sentences', '5']) == 0; "
            f"assert main({argv!r}) == 0; "
            "print('numpy.ma' in sys.modules)")
    lines = _fresh(code)
    assert lines[-2].startswith("F1 ") and lines[-1] == "False"


def test_no_module_imports_numpy():
    """numpy is imported inside the functions that compute with it, so
    loading any module of the package, the command line included, leaves
    it unloaded."""
    names = sorted(f"srlcomb.{p.stem}" for p in PACKAGE if p.name != "__init__.py")
    assert {"srlcomb.cli", "srlcomb.learn", "srlcomb.evaluate",
            "srlcomb.infer_cs", "srlcomb.infer_dp"} <= set(names)
    code = f"import sys, {', '.join(names)}; print('numpy' in sys.modules)"
    assert _fresh(code)[-1] == "False"


def test_commands_without_learning_do_not_load_numpy(tmp_path):
    """Only training, model scoring and the bootstrap of ``--gold`` load
    numpy; every other command runs without it."""
    systems = [f"--system={tmp_path}/sys{i}.props:{tmp_path}/sys{i}.scores" for i in (1, 2, 3)]
    gold = f"--gold={tmp_path}/gold.props"
    commands = [
        ["synth", "--out", str(tmp_path), "--sentences", "5"],
        ["pool", *systems],
        ["pool", *systems, gold, "--dump", f"{tmp_path}/pool.json"],
        ["oracle", *systems, gold],
        ["curves", *systems, gold, "--out", f"{tmp_path}/curves.csv"],
        ["sweep", *systems, gold, "--o-values", "0,0.5", "--out", f"{tmp_path}/sweep.csv"],
        ["infer", *systems, f"--out={tmp_path}/out.props"],
        ["infer", *systems, gold, f"--out={tmp_path}/out.props"],
    ]
    code = ("import io, sys; from contextlib import redirect_stdout; "
            "from srlcomb.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    with redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "    print(argv[0], 'numpy' in sys.modules)\n")
    assert _fresh(code) == [f"{argv[0]} {argv is commands[-1]}" for argv in commands]
