"""Every public entry point that takes p refuses a p that is not prime.

Each call runs in a subprocess with a timeout, since at p = 1 a valuation
loop never ends when nothing checks p first.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import padic_entropy

SRC = str(pathlib.Path(padic_entropy.__file__).resolve().parent.parent)

# f = 1 + 4t is a 1-unit at p = 2 and is answered at p = 4 unless p is checked
CALLS = {
    "tr_log_one_unit": "detlog.tr_log_one_unit(f, p, 8)",
    "logdet_unit": "detlog.logdet_unit(f, p, 8)",
    "c0_unit_normalize": "detlog.c0_unit_normalize(f, p, 8)",
    "logdet_finite": "detlog.logdet_finite(FiniteGroupRingElem.one(ZdQuotient((3,))), p, 6)",
    "mahler_1d": "mahler.mahler_1d(f, p, 8)",
    "newton_polygon": "mahler.newton_polygon(f, p)",
    "slope_split": "mahler.slope_split(f, p, 6)",
    "sup_norm": "groupring.sup_norm(f, p)",
    "series_guard": "padic.series_guard(p, 8)",
}

SCRIPT = """
import sys
from padic_entropy import detlog, groupring, mahler, padic
from padic_entropy.errors import NotPrime
from padic_entropy.groupring import FiniteGroupRingElem, LaurentPoly, ZdQuotient

f = LaurentPoly(1, {{(0,): 1, (1,): 4}})
for p in (1, 0, 4, 6, -3):
    try:
        {call}
    except NotPrime as ex:
        assert str(ex) == f"{{p}} is not prime", ex
    else:
        sys.exit(f"answered at p = {{p}}")
"""


@pytest.mark.parametrize("name", CALLS)
def test_a_p_that_is_not_prime_is_refused(name):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(call=CALLS[name])],
        capture_output=True,
        text=True,
        timeout=30,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
