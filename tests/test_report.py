"""First-mismatch search: the one-comparison path against the sorted scan."""

import json
import random

from qident.qring import Series
from qident.report import find_first_mismatch


def sorted_scan(lhs, rhs, order, zexp=None):
    """Every key up to `order`, in sorted order, until two coefficients
    differ."""
    keys = sorted(k for k in set(lhs.terms) | set(rhs.terms) if k[0] <= order)
    for qe, vk in keys:
        a, b = lhs.terms.get((qe, vk), 0), rhs.terms.get((qe, vk), 0)
        if a != b:
            exponents = {"q": qe, **dict(vk)}
            if zexp is not None:
                exponents["z"] = zexp
            return {"exponents": exponents, "lhs": a, "rhs": b}
    return None


def same_as_scan(lhs, rhs, order, zexp=None):
    """Equal to the sorted scan, down to the key order of the record."""
    got = find_first_mismatch(lhs, rhs, order, zexp)
    want = sorted_scan(lhs, rhs, order, zexp)
    assert json.dumps(got) == json.dumps(want)
    return got


X, Y, XY = (("x", 1),), (("y", 1),), (("x", -1), ("y", 2))


def test_pure_q_series():
    a = Series({(0, ()): 1, (3, ()): 2, (5, ()): -1}, 8)
    assert same_as_scan(a, Series(dict(a.terms), 8), 8) is None
    b = Series({(0, ()): 1, (3, ()): 5, (5, ()): 7}, 8)
    assert same_as_scan(a, b, 8) == {
        "exponents": {"q": 3}, "lhs": 2, "rhs": 5}


def test_formal_variable_terms():
    a = Series({(1, X): 1, (2, XY): 3, (2, ()): 1}, 8)
    b = Series({(1, X): 1, (2, XY): -3, (2, ()): 1}, 8)
    assert same_as_scan(a, b, 8) == {
        "exponents": {"q": 2, "x": -1, "y": 2}, "lhs": 3, "rhs": -3}


def test_a_difference_above_the_order_is_ignored():
    a = Series({(0, ()): 1, (4, X): 2}, 10)
    b = Series({(0, ()): 1, (4, X): 2, (9, ()): 1}, 10)
    assert same_as_scan(a, b, 8) is None
    assert same_as_scan(a, b, 9) == {
        "exponents": {"q": 9}, "lhs": 0, "rhs": 1}


def test_terms_at_one_q_power_that_differ_only_in_their_variables():
    a = Series({(2, X): 1, (2, ()): 4}, 8)
    b = Series({(2, Y): 1, (2, ()): 4}, 8)
    assert same_as_scan(a, b, 8) == {
        "exponents": {"q": 2, "x": 1}, "lhs": 1, "rhs": 0}
    assert same_as_scan(b, a, 8) == {
        "exponents": {"q": 2, "x": 1}, "lhs": 0, "rhs": 1}


def test_a_z_power_tags_the_record():
    a = Series({(1, X): 2}, 6)
    b = Series({(1, X): 3}, 6)
    assert same_as_scan(a, b, 6, zexp=-3) == {
        "exponents": {"q": 1, "x": 1, "z": -3}, "lhs": 2, "rhs": 3}
    assert same_as_scan(a, Series(dict(a.terms), 6), 6, zexp=-3) is None


def test_random_pairs_match_the_sorted_scan():
    rng = random.Random(1606)
    keys = [(qe, vk) for qe in range(-1, 7) for vk in ((), X, Y, XY)]
    for _ in range(200):
        a = {k: rng.randint(-2, 2) for k in rng.sample(keys, 6)}
        b = dict(a)
        for k in rng.sample(keys, rng.randint(0, 2)):
            b[k] = rng.randint(-2, 2)
        same_as_scan(Series(a, 6, -1), Series(b, 6, -1), rng.randint(0, 6),
                     rng.choice([None, 0, 2]))
