"""Heavy modules stay off the simulator's import path.

networkx is needed only by ``build_callgraph`` and multiprocessing only
by an exploration with a worker pool (``jobs > 1``); both are imported
where they are used.  Importing the simulator, its apps and the explorer
in a fresh interpreter must load neither, and both uses must still work.
"""

import json
import os
import subprocess
import sys

import repro

HEAVY = ("networkx", "multiprocessing")

SCRIPT = """
import json
import sys

import repro
import repro.apps.host
import repro.apps.nginx
import repro.apps.redis
import repro.apps.sqlite
import repro.core.toolchain.build
import repro.core.vm
import repro.explore
import repro.explore.formal

HEAVY = %r
loaded = {"imports": [m for m in HEAVY if m in sys.modules]}

from repro.core.toolchain.callgraph import build_callgraph
from repro.core.toolchain.sources import default_kernel_sources

graph = build_callgraph(default_kernel_sources())
loaded["callgraph"] = "lwip:tcp_input" in graph

from repro.explore import ExplorationRequest, SyntheticEvaluator, explore
from repro.explore.configspace import generate_fig6_space

results = [explore(ExplorationRequest(
    layouts=generate_fig6_space(), evaluator=SyntheticEvaluator(seed=3),
    budget=500_000, jobs=jobs)) for jobs in (1, 2)]
loaded["pool_identical"] = all(
    sorted(result.recommended) == sorted(results[0].recommended)
    and result.measurements == results[0].measurements
    and result.pruned == results[0].pruned for result in results)
loaded["after"] = [m for m in HEAVY if m in sys.modules]
print(json.dumps(loaded))
""" % (HEAVY,)


def test_heavy_modules_load_only_where_used():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT], check=True, capture_output=True,
        text=True, timeout=300, env=dict(os.environ, PYTHONPATH=src),
    )
    loaded = json.loads(completed.stdout.strip().splitlines()[-1])
    assert loaded == {
        "imports": [],
        "callgraph": True,
        "pool_identical": True,
        "after": list(HEAVY),
    }
