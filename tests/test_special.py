"""Private extension modules loaded without their packages: scipy's special
ufuncs at import, numpy's Philox on the simulator's first call.

The fast path loads ``scipy.special._ufuncs`` (``numpy.random._philox``) under
a stub package; the fallback imports ``scipy.special`` (``numpy.random``)
itself, when it is already imported or when the stubbed load fails. All three
must give the very same objects and values and leave no stub behind.
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



def refused_under_the_stub(package, module):
    """A preamble that refuses ``package.module`` only while the stub (a
    package without ``__file__``) stands in, counting the refusals."""
    return f"""
REFUSED = 0
class Refuse:
    def find_spec(self, name, path=None, target=None):
        global REFUSED
        package = sys.modules.get({package!r})
        stub = package is not None and not hasattr(package, "__file__")
        if name == {package + "." + module!r} and stub:
            REFUSED += 1
            raise ImportError("refused under the stub")
        return None
sys.meta_path.insert(0, Refuse())
"""


PREAMBLES = {
    "fast": "REFUSED = 0",
    "scipy-special-first": "REFUSED = 0\nimport scipy.special",
    "stubbed-load-fails": refused_under_the_stub("scipy.special", "_ufuncs"),
}


def run_fresh(code):
    """The JSON that ``code`` prints, run in a fresh interpreter on this tree's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def probes():
    return {branch: run_fresh(PROBE.format(preamble=preamble, names=NAMES))
            for branch, preamble in PREAMBLES.items()}


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


# numpy's Philox, loaded on the simulator's first call. The test process has
# imported numpy.random itself, so each branch runs in a fresh interpreter: a
# CLI ``sim`` run at one worker, the modules it left loaded, its raw words
# against a later ``import numpy.random``'s, and the loads it made.
SIM_ARGV = ["sim", "--model", "normal-mean", "--prior", "normal:1", "--alpha", "0.05",
            "--n", "10", "--m", "5000", "--seed", "7", "--replications", "2"]
LEAN = ["numpy.random", "concurrent.futures"]

PHILOX_PROBE = """
import contextlib, io, json, sys
import numpy
{preamble}
with_numpy = "numpy.random" in sys.modules
import bfdr, bfdr.cli
from bfdr import _special, cli
after_import = [m for m in {lean!r} if m in sys.modules]
loads = []
load = _special._load
_special._load = lambda *args: loads.append(args[1]) or load(*args)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main({argv!r})
after_sim = [m for m in {lean!r} if m in sys.modules]
key, counter = 0x452821E638D01377 | (0xBE5466CF34E90C6C << 64), 12345
words = _special.philox()(counter=counter, key=key).random_raw(8)
import numpy.random
print(json.dumps({{
    "with_numpy": with_numpy, "after_import": after_import, "after_sim": after_sim,
    "loads": loads, "code": code,
    "stdout": out.getvalue(), "refused": REFUSED,
    "same_class": numpy.random.Philox is _special.philox(),
    "same_words": words.tolist() == numpy.random.Philox(
        counter=counter, key=key).random_raw(8).tolist()}}))
"""

PHILOX_PREAMBLES = {
    "fast": "REFUSED = 0",
    "numpy-random-first": "REFUSED = 0\nimport numpy.random",
    "stubbed-load-fails": refused_under_the_stub("numpy.random", "_philox"),
}


@pytest.fixture(scope="module")
def philox_probes():
    return {branch: run_fresh(PHILOX_PROBE.format(preamble=preamble, lean=LEAN, argv=SIM_ARGV))
            for branch, preamble in PHILOX_PREAMBLES.items()}


def test_bfdr_loads_no_numpy_random_until_the_simulator_runs(philox_probes):
    fast = philox_probes["fast"]
    if fast["with_numpy"]:
        pytest.skip("this numpy imports numpy.random with numpy itself (numpy 1.x)")
    assert fast["after_import"] == []
    assert "numpy.random" not in fast["after_sim"]


def test_one_worker_never_loads_the_thread_pool(philox_probes):
    for branch in PHILOX_PREAMBLES:
        assert "concurrent.futures" not in philox_probes[branch]["after_import"]
        assert "concurrent.futures" not in philox_probes[branch]["after_sim"]


def test_a_later_numpy_random_binds_the_same_generator(philox_probes):
    for branch in PHILOX_PREAMBLES:
        assert philox_probes[branch]["same_class"]
        assert philox_probes[branch]["same_words"]


def test_the_philox_fallback_is_the_package(philox_probes):
    assert philox_probes["stubbed-load-fails"]["refused"] == 1
    assert "numpy.random" in philox_probes["stubbed-load-fails"]["after_sim"]


def test_philox_is_loaded_once(philox_probes):
    for branch in PHILOX_PREAMBLES:
        assert philox_probes[branch]["loads"] == ["random"]


def test_every_philox_branch_gives_the_same_simulation(philox_probes):
    fast = philox_probes["fast"]
    assert fast["code"] == 0 and fast["stdout"].startswith("m,replication,")
    for branch in ("numpy-random-first", "stubbed-load-fails"):
        assert philox_probes[branch]["code"] == 0
        assert philox_probes[branch]["stdout"] == fast["stdout"]


# A cold simulation at two workers: both pool threads make the first
# uniform_block call, so both ask for the generator before it is loaded.
COLD_TWO_WORKERS = """
import dataclasses, json, os, sys
os.cpu_count = lambda: 2  # run the pool even on a one-CPU machine
from bfdr import _special, models, mtsim, priors
loads = []
load = _special._load
_special._load = lambda *args: loads.append(args[1]) or load(*args)
config = mtsim.SimConfig(models.normal_mean_model(), priors.normal_prior(1.0),
                         models.TestSetup("mean_ump", 0.0, 0.05, 10), m=20000, seed=5,
                         replications=2, workers=2)
pool = mtsim.simulate(config)
pooled = "concurrent.futures" in sys.modules
serial = mtsim.simulate(dataclasses.replace(config, workers=1))
fields = ("V", "S", "R", "fdr", "fdr_hat", "se_fdr", "delta_hat", "eps_hat")
print(json.dumps({"loads": loads, "pooled": pooled,
                  "differ": [f for f in fields if repr(getattr(pool, f)) != repr(getattr(serial, f))]}))
"""


def test_a_cold_two_worker_simulation_gives_the_one_worker_tallies():
    probe = run_fresh(COLD_TWO_WORKERS)
    assert probe["pooled"]
    assert probe["loads"] == ["random"]
    assert probe["differ"] == []
