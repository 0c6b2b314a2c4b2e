"""The benchmark harness still runs against these sources.

perfbench imports vasskit's modules by name and wraps its public
functions (``decide_capped_bfs``, ``Vass.edges_from``, the fuzz targets'
checks, ...) from outside, so a change under src/ can break it without
failing any other test.  Its tiny-size self-test takes about ten
seconds.
"""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def test_perfbench_selftest():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:]
    assert "selftest: PASS" in proc.stdout
