"""The demonstration scripts run to completion.

scripts/decision_demo.py is left out: it sweeps the decider over many plants
and takes about 43 s on a 2-vCPU Xeon, against about 0.3 s and 9 s for the
two scripts run here.
"""

import importlib.util
import os
import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script", ["capacity_report.py", "tracking_thresholds.py"])
def test_script_exits_zero(script):
    done = subprocess.run([sys.executable, str(SCRIPTS / script)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def _bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPTS / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_sees_whether_bytecode_is_current(tmp_path):
    current = _bench_record().bytecode_current
    timestamp = py_compile.PycInvalidationMode.TIMESTAMP
    source = tmp_path / "mod.py"
    source.write_text("x = 1\n")
    assert not current(source)  # nothing cached
    py_compile.compile(str(source), doraise=True, invalidation_mode=timestamp)
    assert current(source)
    source.write_text("x = 22\n")  # a new size
    assert not current(source)
    py_compile.compile(str(source), doraise=True, invalidation_mode=timestamp)
    stat = source.stat()
    os.utime(source, ns=(stat.st_atime_ns, stat.st_mtime_ns + 2_000_000_000))
    assert not current(source)  # a new mtime
    py_compile.compile(str(source), doraise=True,
                       invalidation_mode=py_compile.PycInvalidationMode.CHECKED_HASH)
    assert not current(source)  # a hash-based header is not a timestamp one
