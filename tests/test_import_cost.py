"""``import tridom`` and ``import tridom.cli`` load only what they run.

Each import runs in a fresh interpreter, and the test names modules that
must not appear among those the import adds.  It checks for their absence,
not for an exact list, since what an interpreter loads at startup depends on
its version and its ``.pth`` files.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the probe itself imports nothing before it takes the snapshot
PROBE = "import sys; before = set(sys.modules); import {module}; print(*set(sys.modules) - before)"


def _newly_loaded(module):
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE.format(module=module)],
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


@pytest.mark.parametrize("module, absent", [
    ("tridom", {"dataclasses", "inspect", "ast", "dis", "tokenize", "json", "csv",
                "multiprocessing"}),
    ("tridom.cli", {"dataclasses", "inspect", "csv", "ast", "multiprocessing"}),
])
def test_import_loads_none_of_the_unused_standard_modules(module, absent):
    loaded = _newly_loaded(module)
    assert module in loaded
    assert not loaded & absent
