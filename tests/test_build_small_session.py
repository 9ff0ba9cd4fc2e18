"""build_index must return on a Ray session with 1 or 2 logical CPUs.

The segment-writer actor pool holds its CPUs for the whole pipeline; sized
at one CPU per writer it used to take every CPU of a small session, so the
upstream tasks never scheduled and the build never returned.  Each build
runs in its own process (its own Ray session, `ray.init(num_cpus=n)`)
under a timeout.
"""

import os
import signal
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import os, sys
import ray
ray.init(address="local", num_cpus=int(sys.argv[1]), include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from rindex.build import build_index
from rindex.fixtures import write_corpus
src = write_corpus(os.path.join(sys.argv[2], "corpus"), "tiny")
m = build_index(src, os.path.join(sys.argv[2], "index"))
print("doc_count", m["totals"]["doc_count"])
ray.shutdown()
"""


@pytest.mark.parametrize("num_cpus", [1, 2])
def test_build_returns_on_small_session(tmp_path, num_cpus):
    env = dict(os.environ, PYTHONPATH=ROOT)
    proc = subprocess.Popen(
        [sys.executable, "-c", SCRIPT, str(num_cpus), str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=ROOT, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the session's raylet too
        proc.communicate()
        pytest.fail(f"build_index did not return within 120 s on "
                    f"num_cpus={num_cpus}")
    assert proc.returncode == 0, out
    assert "doc_count 96" in out, out
