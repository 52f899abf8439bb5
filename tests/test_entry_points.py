"""Every public entry point that takes p refuses a p that is not prime,
every one that takes a precision refuses one that is not an int >= 1, and
a value of the wrong type raises a TypeError that names the argument.

Each p call runs in a subprocess with a timeout, since at p = 1 a valuation
loop never ends when nothing checks p first.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import padic_entropy
from padic_entropy import detlog, entropy, fixcount, mahler, padic
from padic_entropy.errors import UsageError
from padic_entropy.groupring import FiniteGroupRingElem, LaurentPoly, ZdQuotient, diagonal_family

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
    "from_int_mod": "padic.Padic.from_int_mod(5, p, 3)",
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


ONE_UNIT = LaurentPoly(1, {(0,): 1, (1,): 3})  # 1 + 3t at p = 3
MAHLER = LaurentPoly(1, {(0,): 3, (1,): 1})  # t + 3: one root of valuation 1
COUNTED = LaurentPoly(1, {(0,): 2, (1,): -1, (2,): 2})

# At prec 0 the parent answered c0_unit_normalize (a decomposition),
# logdet_finite and mahler_1d (both O(3^0)); the others ended in a bare
# ValueError or TypeError, or in an unrelated coded refusal.  series_guard
# answered a negative prec with a working precision below zero, and
# Padic.from_rational and Padic.from_int_mod raised a bare ValueError.
PREC_CALLS = {
    "tr_log_one_unit": lambda prec: detlog.tr_log_one_unit(ONE_UNIT, 3, prec),
    "logdet_unit": lambda prec: detlog.logdet_unit(ONE_UNIT, 3, prec),
    "c0_unit_normalize": lambda prec: detlog.c0_unit_normalize(ONE_UNIT, 3, prec),
    "logdet_finite": lambda prec: detlog.logdet_finite(
        FiniteGroupRingElem.one(ZdQuotient((3,))), 3, prec
    ),
    "mahler_1d": lambda prec: mahler.mahler_1d(MAHLER, 3, prec),
    "slope_split": lambda prec: mahler.slope_split(MAHLER, 3, prec),
    "fix_count": lambda prec: fixcount.fix_count(COUNTED, ZdQuotient((2,)), 3, prec),
    "entropy_sequence": lambda prec: entropy.entropy_sequence(
        COUNTED, diagonal_family(1, [2, 3]), 3, prec
    ),
    "series_guard": lambda prec: padic.series_guard(3, prec),
    "from_rational": lambda prec: padic.Padic.from_rational(1, 2, 3, prec),
    "from_int_mod": lambda prec: padic.Padic.from_int_mod(5, 3, prec),
}


@pytest.mark.parametrize("prec", [0, -2, 2.5, "8", None])
@pytest.mark.parametrize("name", PREC_CALLS)
def test_a_precision_below_one_is_refused(name, prec):
    with pytest.raises(UsageError) as exc:
        PREC_CALLS[name](prec)
    assert type(exc.value) is UsageError
    assert str(exc.value) == "precision must be >= 1"


@pytest.mark.parametrize("name", PREC_CALLS)
def test_a_precision_of_one_is_answered(name):
    PREC_CALLS[name](1)


# The parent ended padic_log in AttributeError ('str' object has no attribute
# 'is_zero'), and the two constructors in a TypeError about string formatting.
WRONG_TYPE_CALLS = {
    "padic_log-str": (lambda: padic.padic_log("x"), "a must be a Padic, not str"),
    "padic_log-None": (lambda: padic.padic_log(None), "a must be a Padic, not NoneType"),
    "from_rational": (
        lambda: padic.Padic.from_rational("1", 1, 3, 8),
        "num and den must be ints, not str and int",
    ),
    "from_int_mod": (lambda: padic.Padic.from_int_mod("5", 3, 4), "c must be an int, not str"),
}


@pytest.mark.parametrize("name", WRONG_TYPE_CALLS)
def test_a_wrong_type_raises_a_type_error_that_names_the_argument(name):
    call, message = WRONG_TYPE_CALLS[name]
    with pytest.raises(TypeError) as exc:
        call()
    assert type(exc.value) is TypeError
    assert str(exc.value) == message
