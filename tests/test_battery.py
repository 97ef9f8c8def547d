"""Battery sanity: every instance parses, normalizes, and streams digits."""

import pytest

from floorlog.battery import BATTERY, by_name
from floorlog.exact import ExactReal
from floorlog.jumpdigits import r_stream


def test_battery_shape():
    assert len(BATTERY) == 20
    assert len({inst.name for inst in BATTERY}) == 20
    assert len({(i.alpha_text, i.beta_text, i.base) for i in BATTERY}) == 20
    assert sum(inst.alpha_is_rational for inst in BATTERY) == 13
    assert sum(not inst.alpha_is_rational for inst in BATTERY) == 7
    assert {inst.base for inst in BATTERY} == {2, 3, 10}


def test_by_name_roundtrip_and_error():
    assert by_name("i14").alpha_text == "sqrt(2)"
    with pytest.raises(KeyError, match="i99"):
        by_name("i99")


@pytest.mark.parametrize("inst", BATTERY, ids=lambda i: i.name)
def test_instances_normalize_into_the_fundamental_box(inst):
    norm = inst.normalized()
    zero = ExactReal(0)
    b = ExactReal(norm.base)
    one = ExactReal(1)
    assert norm.beta.compare(zero) >= 0
    assert norm.beta.compare(norm.alpha) < 0
    assert norm.alpha.compare(b) < 0
    assert norm.alpha.compare(one) >= 0


@pytest.mark.parametrize("inst", BATTERY, ids=lambda i: i.name)
def test_digit_streams_respect_the_bound(inst):
    norm = inst.normalized()
    bound = 2 * norm.base - 2
    assert all(0 <= r <= bound for r in r_stream(norm, 50))
