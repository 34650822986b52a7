#!/usr/bin/env python3
"""Record the benchmark of this checkout in one JSON file.

    python3 scripts/bench_record.py BENCH_<n>.json

Runs perfbench/run.py on the decide, ladder and track workloads at seed 1
with --seconds 25, once with --trace 0 (the end-to-end metrics) and once
with --trace 1 (the per-layer metrics), and writes their result lines with
the commit, whether src/ or perfbench/ differ from it, the Python version,
the machine and the bytecode-cache state when the recording started
(whether every src/certcap/*.py had current cached bytecode, and
PYTHONDONTWRITEBYTECODE), keys sorted.  Without a current cache each
workload process compiles certcap, which shows in setup_s and peak_rss_mb,
so compare two records only in the same cache state.  The six runs take a
few minutes on a 2-vCPU Xeon.  perfbench is only run, never changed; its own
outputs still go to .bench_out/.
"""

import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("decide", "ladder", "track")
SEED, SECONDS = 1, 25


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def bytecode_current(source: Path) -> bool:
    """Whether ``source`` has cached bytecode that an import would load as
    is: this interpreter's magic number and a timestamp header that matches
    the source's mtime and size."""
    try:
        with open(importlib.util.cache_from_source(source), "rb") as cached:
            header = cached.read(16)
    except OSError:
        return False
    stat = source.stat()
    return (header[:8] == importlib.util.MAGIC_NUMBER + bytes(4)
            and int.from_bytes(header[8:12], "little") == int(stat.st_mtime) & 0xFFFFFFFF
            and int.from_bytes(header[12:16], "little") == stat.st_size & 0xFFFFFFFF)


def _run(workload: str, trace: int) -> dict:
    """The result line of one perfbench run (its last line of stdout)."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, stdin=subprocess.DEVNULL)
    if done.returncode != 0:
        raise SystemExit(f"perfbench/run.py --workload {workload} --trace {trace} "
                         f"exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    record = {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--", "src", "perfbench")),
        "python": platform.python_version(),
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count()},
        "bytecode": {"current": all(map(bytecode_current,
                                        (ROOT / "src" / "certcap").glob("*.py"))),
                     "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "seed": SEED,
        "seconds": SECONDS,
        "workloads": {workload: {"end_to_end": _run(workload, 0),
                                 "per_layer": _run(workload, 1)}
                      for workload in WORKLOADS},
    }
    Path(argv[0]).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
