"""bfdr's special functions: scipy's ufuncs, loaded without the scipy.special package.

The fast path loads ``scipy.special._ufuncs`` under a stub package; the
fallback imports ``scipy.special`` itself, when it is already imported or when
the stubbed load fails. All three must give the very same ufunc objects and
leave no stub behind.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.special

from bfdr import _special

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def used_names():
    """Every ``_sp.<name>`` that a module of src/bfdr reads."""
    names = set()
    for path in (SRC / "bfdr").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "_sp"):
                names.add(node.attr)
    return sorted(names)


NAMES = used_names()


def test_the_walk_finds_the_functions_bfdr_calls():
    assert {"ndtr", "ndtri", "stdtrit", "fdtri", "gammaincinv", "betainc"} <= set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_same_ufunc_as_scipy_special(name):
    assert getattr(scipy.special, name) is getattr(_special._sp, name)


# Runs in a fresh interpreter after PREAMBLE. Reports which module ``_sp`` is,
# whether a stub is left once bfdr is imported, and every function's values
# on a fixed grid as raw bytes; then imports scipy.special and checks identity.
PROBE = """
import itertools, json, sys
import numpy as np
{preamble}
import bfdr.cli
from bfdr import _special
import scipy

def real(module):
    return module is None or getattr(module, "__file__", None) is not None

left = {{"modules": real(sys.modules.get("scipy.special")),
         "attribute": real(vars(scipy).get("special"))}}
grid = [0.05, 0.3, 0.5, 0.9, 0.999]
values = {{}}
for name in {names!r}:
    f = getattr(_special._sp, name)
    args = np.array(list(itertools.product(grid, repeat=f.nin))).T
    values[name] = np.asarray(f(*args), dtype=float).tobytes().hex()
import scipy.special, scipy.stats
same = all(getattr(scipy.special, n) is getattr(_special._sp, n) for n in {names!r})
print(json.dumps({{"module": _special._sp.__name__, "no_stub_left": left,
                   "same_objects": same, "values": values, "refused": REFUSED}}))
"""

PREAMBLES = {
    "fast": "REFUSED = 0",
    "scipy-special-first": "REFUSED = 0\nimport scipy.special",
    # refuses _ufuncs only while the stub (a package without __file__) stands in
    "stubbed-load-fails": """
REFUSED = 0
class Refuse:
    def find_spec(self, name, path=None, target=None):
        global REFUSED
        package = sys.modules.get("scipy.special")
        stub = package is not None and not hasattr(package, "__file__")
        if name == "scipy.special._ufuncs" and stub:
            REFUSED += 1
            raise ImportError("refused under the stub")
        return None
sys.meta_path.insert(0, Refuse())
""",
}


def probe(branch):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = PROBE.format(preamble=PREAMBLES[branch], names=NAMES)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def probes():
    return {branch: probe(branch) for branch in PREAMBLES}


def test_fast_path_loads_only_the_ufuncs(probes):
    assert probes["fast"]["module"] == "scipy.special._ufuncs"


@pytest.mark.parametrize("branch", ["scipy-special-first", "stubbed-load-fails"])
def test_fallback_is_the_package(probes, branch):
    assert probes[branch]["module"] == "scipy.special"


def test_the_failing_load_was_attempted(probes):
    assert probes["stubbed-load-fails"]["refused"] == 1


@pytest.mark.parametrize("branch", list(PREAMBLES))
def test_no_stub_left_and_same_objects(probes, branch):
    assert probes[branch]["no_stub_left"] == {"modules": True, "attribute": True}
    assert probes[branch]["same_objects"]


@pytest.mark.parametrize("branch", ["scipy-special-first", "stubbed-load-fails"])
def test_every_branch_gives_bit_identical_values(probes, branch):
    assert set(probes["fast"]["values"]) == set(NAMES)
    assert probes[branch]["values"] == probes["fast"]["values"]
