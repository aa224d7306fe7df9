"""The package runs on numpy alone; scipy serves the tests as the oracle."""

import os
import subprocess
import sys

import xsdc


def test_import_loads_no_scipy():
    # a fresh interpreter: this test process has scipy loaded already
    src = os.path.dirname(os.path.dirname(xsdc.__file__))
    code = (
        "import sys, xsdc, xsdc.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"
