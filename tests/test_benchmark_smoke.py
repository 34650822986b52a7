"""Every benchmark operation runs once on the current source.

perfbench/worker.py drives certcap through its public names (for example
``confgraph.confusability_graph`` in the ``ladder`` workload); a rename in
``src/`` that breaks one of them fails here, not only in the benchmark.
Each workload's seed-1 corpus is built in a temporary directory and every
operation is run once, as the benchmark's warm-up pass runs it.
"""

import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import corpus  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_every_operation_runs_once(workload, tmp_path, monkeypatch):
    monkeypatch.delenv("CERTCAP_BUDGET", raising=False)  # the corpus fixes every budget
    wl = worker.Workload(workload, 1, tmp_path)
    assert wl.ops
    for i in range(len(wl.ops)):
        seconds, digest = wl.run(i, first=True)
        assert seconds >= 0 and re.fullmatch(r"[0-9a-f]{64}", digest), wl.ops[i]["id"]
    assert len(list((tmp_path / "out").glob("*.json"))) >= len(wl.ops)
