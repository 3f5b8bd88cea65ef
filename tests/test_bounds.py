"""Tests for the exact size-bound arithmetic and the 1 (mod p) line law."""

import math

import pytest
from sympy import factorint

from strongblock import geometry
from strongblock.bounds import (
    bset_size_poly,
    interval_violation_report,
    one_mod_p_profile,
    szonyi_membership,
)
from strongblock.errors import BudgetExceeded, InconclusiveE
from strongblock.geometry import PointSet, ProjectiveSpace
from strongblock.partition import prime_power, subgeometry_points

from oracles import line_through


def odd_prime_powers(lo, hi):
    return [q for q in range(lo, hi + 1)
            if q % 2 and len(factorint(q)) == 1]


def test_size_poly_matches_group_formula():
    # |B(4,q)| = r^2 + 3r + 3 with r = (q^3-1)(q^4-1)/(q-1)
    for q in range(2, 101):
        r = (q ** 3 - 1) * (q ** 4 - 1) // (q - 1)
        assert bset_size_poly(q) == r * r + 3 * r + 3


def test_size_poly_small_values(bset24):
    assert bset_size_poly(2) == 11343 == len(bset24)


def test_size_is_in_small_blocking_regime():
    # 2|B| < 3(q^12 + 1), the hypothesis of the interval law
    for q in odd_prime_powers(7, 101):
        assert 2 * bset_size_poly(q) < 3 * (q ** 12 + 1)


# ---------------------------------------------------------------------------
# interval trichotomy


def test_membership_examples():
    # |B(4,7)| overshoots the interval for every e
    size7 = bset_size_poly(7)
    assert szonyi_membership(7 ** 12, 7, size7) == "above"
    assert szonyi_membership(7 ** 12, 7 ** 12, size7) == "above"
    # |B(4,49)| undershoots the e = 1 interval of its 7^24 plane
    assert szonyi_membership(49 ** 12, 7, bset_size_poly(49)) == "below"
    # a line is always below, a Baer subplane sits inside its interval
    assert szonyi_membership(81, 9, 82) == "below"
    assert szonyi_membership(81, 9, 91) == "inside"


def test_membership_validation():
    with pytest.raises(ValueError):
        szonyi_membership(81, 1, 91)  # p^0
    # p^e = 3: the lower endpoint is met, the upper one is not real
    assert szonyi_membership(9, 3, 13) == "no-upper-bound"


def test_membership_is_monotone_in_size():
    order = {"below": 0, "inside": 1, "above": 2}
    last = 0
    for size in range(82, 120):
        status = order[szonyi_membership(81, 9, size)]
        assert status >= last
        last = status
    assert last == 2


def float_membership(plane_order, pe, size):
    """Floating-point reimplementation; rationalized to avoid cancellation."""
    pe = float(pe)
    plane = float(plane_order)
    if float(size) < plane + 1 + plane / (pe + 2):
        return "below"
    A = plane * pe + 1
    D = A * A - 4 * plane * plane * pe
    if D < 0:
        return "no-upper-bound"
    upper = 2 * plane * plane * pe / (A + math.sqrt(D))
    return "above" if float(size) > upper else "inside"


def test_exact_and_float_verdicts_agree():
    for q in odd_prime_powers(7, 101):
        p, h = prime_power(q)
        size = bset_size_poly(q)
        for e in range(1, 12 * h + 1):
            approx = float_membership(q ** 12, p ** e, size)
            assert szonyi_membership(q ** 12, p ** e, size) == approx, (q, e)


def test_report_q7():
    rep = interval_violation_report(7)
    assert rep.certified
    assert len(rep.per_e) == 12
    assert all(v.status == "above" for v in rep.per_e)
    assert rep.inconclusive_es() == []


@pytest.mark.parametrize("q", [11, 25, 27, 49, 81])
def test_report_certifies(q):
    assert interval_violation_report(q).certified


def test_report_q9_fails():
    # at e = 1 the size clears the lower bound while the upper endpoint is
    # not real, so nothing excludes that interval
    with pytest.raises(InconclusiveE):
        interval_violation_report(9)
    rep = interval_violation_report(9, strict=False)
    assert not rep.certified
    assert rep.inconclusive_es() == [1]
    assert rep.per_e[0].status == "no-upper-bound"


def test_report_validation():
    with pytest.raises(ValueError):
        interval_violation_report(8)
    with pytest.raises(ValueError):
        interval_violation_report(5)
    with pytest.raises(ValueError):
        interval_violation_report(15)


# ---------------------------------------------------------------------------
# 1 (mod p) line census


def test_baer_subplane_census(rg33):
    baer = subgeometry_points(rg33, 0)
    prof = one_mod_p_profile(baer, 3)
    assert prof.census == {1: 78, 4: 13}
    assert sum(prof.census.values()) == 91
    assert prof.holds


def test_line_census(gf9):
    space = ProjectiveSpace(gf9, 2)
    line = PointSet(space, line_through(space, (1, 0, 0), (0, 1, 0)))
    prof = one_mod_p_profile(line, 3)
    assert prof.census == {1: 90, 10: 1}
    assert prof.holds


def test_non_blocking_census_fails(gf9):
    space = ProjectiveSpace(gf9, 2)
    S = PointSet(space, [space.point_at(i) for i in range(5)])
    prof = one_mod_p_profile(S, 3)
    assert 0 in prof.census
    assert not prof.holds


def test_census_validation(gf9, rg33, monkeypatch):
    space3 = ProjectiveSpace(gf9, 1)
    with pytest.raises(ValueError):
        one_mod_p_profile(PointSet(space3, [(1, 0)]), 3)
    baer = subgeometry_points(rg33, 0)
    monkeypatch.setattr(geometry, "SCAN_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        one_mod_p_profile(baer, 3)
