"""The demonstration scripts run to completion.

scripts/decision_demo.py is left out: it sweeps the decider over many plants
and takes about 43 s on a 2-vCPU Xeon, against about 0.3 s and 9 s for the
two scripts run here.
"""

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
