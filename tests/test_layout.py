"""Layout: src/bfdr holds only code that the library, the CLI or perfbench runs.

Every module-level public function and class of ``src/bfdr`` must be
referenced, as a name or an attribute (a string does not count), from
``src/bfdr`` outside its own definition and the package ``__init__``, or from
``perfbench/``. Code that only tests call lives under ``tests/``
(``derivations.py``, ``oracles.py``).

scipy's special functions come in through ``_special.py`` alone, and nothing
imports ``scipy.stats`` or ``scipy.optimize``: each costs a CLI process a
large share of its start-up.

The statistics' names ``"mean_ump"`` and ``"median"`` are string constants
only in ``models.py``, where each model class names its own; every other
module reads ``model.statistic`` or the model's class.

The benchmark keeps its own copy of the CLI's model table; the two must agree.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bfdr"

#: The README-documented entry point for custom priors; no route calls it.
DOCUMENTED_ENTRY_POINTS = {"make_prior"}


def _references(tree, skip=None):
    """Names and attribute names used in ``tree``, outside the subtree ``skip``."""
    skipped = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    out = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def unreferenced(modules, outside_sources):
    """Public top-level definitions of ``modules`` (name -> source) that nothing uses.

    ``__init__`` neither defines nor references; ``outside_sources`` (e.g. the
    benchmark) count as references.
    """
    trees = {name: ast.parse(src) for name, src in modules.items() if name != "__init__"}
    outside = set().union(*(_references(ast.parse(src)) for src in outside_sources))
    missing = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            used = node.name in outside or any(
                node.name in _references(other, skip=node if other is tree else None)
                for other in trees.values()
            )
            if not used:
                missing.append(f"{module}.{node.name}")
    return missing


def test_every_public_definition_is_used_outside_the_tests():
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    bench = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    missing = [
        name for name in unreferenced(modules, bench)
        if name.split(".")[1] not in DOCUMENTED_ENTRY_POINTS
    ]
    assert missing == [], f"only tests use {missing}; move them under tests/"


def test_the_check_sees_names_not_strings():
    modules = {
        "__init__": "from .a import dead",
        "a": (
            "def used(x):\n    return x\n"
            "def dead():\n    return dead()\n"
            "class Quoted:\n    pass\n"
            "def caller():\n    return used(1), 'Quoted'\n"
        ),
        "b": "from . import a\n\ndef other():\n    return a.caller()\n",
    }
    assert unreferenced(modules, []) == ["a.dead", "a.Quoted", "b.other"]
    assert unreferenced(modules, ["b.other(Quoted)"]) == ["a.dead"]


#: The statistics' names, spelled only where the model classes define them.
STATISTIC_NAMES = {"mean_ump", "median"}


def statistic_spellers(modules):
    """Modules (name -> source), other than ``models``, holding a string
    constant that is a statistic's name."""
    return [name for name, src in modules.items() if name != "models" and any(
        isinstance(node, ast.Constant) and node.value in STATISTIC_NAMES
        for node in ast.walk(ast.parse(src)))]


def test_only_the_models_module_spells_a_statistic():
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert statistic_spellers(modules) == []


def test_the_statistic_check_sees_constants_not_words():
    modules = {
        "models": 'class LocationModel:\n    statistic = "median"\n',
        "a": '"""The median test."""\ntext = f"{n} median"\nmean = s == "mean_ump"\n',
        "b": 'def f(model):\n    return model.statistic, "median statistic"\n',
        "c": 'KIND = {"median": 1}\n',
    }
    assert statistic_spellers(modules) == ["a", "c"]


def scipy_imports(source):
    """scipy modules that ``source`` imports; ``from scipy import x`` counts as scipy.x."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return {name for name in found if name.split(".")[0] == "scipy"}


def importers(packages, exempt=()):
    """Modules of src/bfdr, other than ``exempt``, that import any of ``packages``."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        names = sorted(name for name in scipy_imports(path.read_text())
                       if any(name == p or name.startswith(p + ".") for p in packages))
        if names and path.name not in exempt:
            found[path.name] = names
    return found


def test_scipy_special_is_imported_only_by_the_special_module():
    assert importers(["scipy.special"], exempt=["_special.py"]) == {}


def test_no_module_imports_scipy_stats_or_optimize():
    assert importers(["scipy.stats", "scipy.optimize"]) == {}


def test_the_import_check_sees_every_spelling():
    source = (
        "import scipy.special\n"
        "from scipy import special as sp, stats\n"
        "from scipy.optimize import brentq\n"
        "import numpy as np\n"
        "from . import priors\n"
        "def f():\n    import scipy.integrate\n"
    )
    assert scipy_imports(source) == {
        "scipy", "scipy.special", "scipy.stats", "scipy.optimize", "scipy.optimize.brentq",
        "scipy.integrate",
    }


def perfbench_model_specs():
    """``MODEL_SPECS`` of perfbench/run.py, read from its source: importing the
    script would put perfbench/ on ``sys.path``."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "MODEL_SPECS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no MODEL_SPECS")


def test_the_cli_model_table_agrees_with_the_benchmark():
    from bfdr import cli, models

    table = {}
    for spec, (factory, theta0) in cli._MODELS.items():
        assert getattr(models, factory.__name__) is factory
        table[spec] = (factory.__name__, cli._build_model(spec)[0].statistic, theta0)
    assert table == perfbench_model_specs()
