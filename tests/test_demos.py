"""Every narrative script under demos/ runs to completion and reports no disagreement."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

import padic_entropy

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
SRC = str(pathlib.Path(padic_entropy.__file__).resolve().parent.parent)

# The agreement each cross-checking demo must print (a regular expression).
AGREEMENTS = {
    "02_fixed_point_counts.py": r"agree\n *\d+( +-?\d+){3} +True\n",
    "03_three_routes.py": r"all four agree mod 2\^6: True\n",
    "04_convergence_zd.py": r"limit route agrees mod 3\^4: True\n",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert "False" not in proc.stdout, proc.stdout
    if demo.name in AGREEMENTS:
        assert re.search(AGREEMENTS[demo.name], proc.stdout), proc.stdout
