"""Exact-coefficient series with rational bases: algebra, evaluation,
rendering, serialisation."""

import json
import random
from fractions import Fraction

import pytest

from latzeta.dirichlet import DirichletSeries

BASES = [Fraction(q) for q in (1, 2, 3, 4, 6, Fraction(3, 2), Fraction(5, 3))]


def random_series(rng, max_terms=4):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        terms[rng.choice(BASES)] = rng.randrange(-6, 7)
    return DirichletSeries(terms)


# ----------------------------------------------------------------------
# construction and term access


@pytest.mark.parametrize("terms", [
    [(2, Fraction(1, 2))],
    [(2, Fraction(3, 2)), (2, Fraction(1, 2))],
    [(2, 2.7)],
])
def test_non_integer_coefficients_rejected(terms):
    with pytest.raises(ValueError, match="at base 2 is not an integer"):
        DirichletSeries(terms)


def test_integral_fraction_coefficients_accepted():
    assert DirichletSeries([(2, Fraction(4, 2))]).term_map() == {Fraction(2): 2}


def test_zero_coefficients_dropped():
    s = DirichletSeries({Fraction(2): 0, Fraction(3): 1})
    assert s.term_map() == {Fraction(3): 1}
    assert len(s) == 1
    assert bool(s)
    assert not DirichletSeries()
    assert DirichletSeries().term_map() == {}


def test_terms_summed_per_base_against_a_plain_sum():
    # bases given as ints, strings and Fractions, coefficients that cancel
    # and come back: the term map is the per-base sum without its zeros
    rng = random.Random(7)
    spellings = {
        Fraction(2): [2, "2", Fraction(2)],
        Fraction(3, 2): ["3/2", Fraction(3, 2)],
    }
    for _ in range(300):
        terms, expected = [], {}
        for _ in range(rng.randrange(8)):
            q = rng.choice(sorted(spellings))
            c = rng.randrange(-2, 3)
            terms.append((rng.choice(spellings[q]), c))
            expected[q] = expected.get(q, 0) + c
        series = DirichletSeries(terms)
        assert series.term_map() == {q: c for q, c in expected.items() if c}
        assert all(type(q) is Fraction for q, _ in series.terms())
        assert [q for q, _ in series.terms()] == sorted(series.term_map())


def test_terms_sorted_by_base():
    s = DirichletSeries({Fraction(4): 1, Fraction(1): 1, Fraction(3, 2): -2})
    assert [q for q, _ in s.terms()] == [Fraction(1), Fraction(3, 2), Fraction(4)]


def test_base_validation():
    with pytest.raises(ValueError):
        DirichletSeries({Fraction(0): 1})
    with pytest.raises(ValueError):
        DirichletSeries({Fraction(-2): 1})


def test_coefficient_lookup():
    s = DirichletSeries({Fraction(2): -3})
    assert s.coefficient(2) == -3
    assert s.coefficient(Fraction(2)) == -3
    assert s.coefficient(5) == 0


def test_is_ordinary():
    assert DirichletSeries({Fraction(1): 1, Fraction(6): -1}).is_ordinary()
    assert not DirichletSeries({Fraction(3, 2): 1}).is_ordinary()
    assert DirichletSeries().is_ordinary()


# ----------------------------------------------------------------------
# ring structure


def test_known_product():
    a = DirichletSeries({Fraction(1): 1, Fraction(2): -1})
    b = DirichletSeries({Fraction(1): 1, Fraction(3): -1})
    assert (a * b).term_map() == {
        Fraction(1): 1,
        Fraction(2): -1,
        Fraction(3): -1,
        Fraction(6): 1,
    }


def test_product_collects_equal_bases():
    a = DirichletSeries({Fraction(2): 1, Fraction(3): 1})
    assert (a * a).term_map() == {Fraction(4): 1, Fraction(6): 2, Fraction(9): 1}


def test_ring_laws_random():
    rng = random.Random(2001)
    for _ in range(60):
        f = random_series(rng)
        g = random_series(rng)
        h = random_series(rng)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - g == f + (-g)
        assert f - f == DirichletSeries()


def test_evaluation_is_ring_homomorphism():
    rng = random.Random(2002)
    for _ in range(40):
        f = random_series(rng)
        g = random_series(rng)
        s = rng.randrange(-2, 4)
        assert (f * g).evaluate_exact(s) == f.evaluate_exact(s) * g.evaluate_exact(s)
        assert (f + g).evaluate_exact(s) == f.evaluate_exact(s) + g.evaluate_exact(s)


def test_evaluate_exact():
    s = DirichletSeries({Fraction(1): 1, Fraction(2): -1})
    assert s.evaluate_exact(1) == Fraction(1, 2)
    assert s.evaluate_exact(2) == Fraction(3, 4)
    assert s.evaluate_exact(0) == 0
    assert s.evaluate_exact(-1) == -1
    with pytest.raises(TypeError):
        s.evaluate_exact(1.5)


def test_eq_hash():
    a = DirichletSeries({Fraction(2): 1})
    b = DirichletSeries({Fraction(2): 1, Fraction(3): 0})
    assert a == b and hash(a) == hash(b)
    assert a != DirichletSeries({Fraction(2): 2})
    assert a != "not a series"


# ----------------------------------------------------------------------
# exponent shift


def test_shift_exponent():
    # 1 - 4/2^s  at s -> s+2  becomes  1 - 1/2^s
    s = DirichletSeries({Fraction(1): 1, Fraction(2): -4})
    assert s.shift_exponent(2).term_map() == {Fraction(1): 1, Fraction(2): -1}
    assert s.shift_exponent(0) == s


def test_shift_exponent_checks():
    with pytest.raises(ValueError):
        DirichletSeries({Fraction(2): 1}).shift_exponent()  # 1/2 not integral
    with pytest.raises(ValueError):
        DirichletSeries({Fraction(2): 2}).shift_exponent(-1)


def test_shift_matches_pointwise_evaluation():
    rng = random.Random(2004)
    for _ in range(25):
        f = random_series(rng) * DirichletSeries({Fraction(1): 720})
        k = rng.randrange(0, 2)
        try:
            shifted = f.shift_exponent(k)
        except ValueError:
            continue
        for s in range(-1, 4):
            assert shifted.evaluate_exact(s) == f.evaluate_exact(s + k)


# ----------------------------------------------------------------------
# rendering and serialisation


def test_pretty():
    s = DirichletSeries(
        {Fraction(1): 1, Fraction(5, 3): -5, Fraction(5): 30, Fraction(10): -60}
    )
    assert s.pretty() == "1 - 5/(5/3)^s + 6/5^(s-1) - 6/10^(s-1)"
    assert s.pretty(collapse=False) == "1 - 5/(5/3)^s + 30/5^s - 60/10^s"
    assert DirichletSeries().pretty() == "0"
    assert DirichletSeries({Fraction(2): -1}).pretty() == "-1/2^s"


def test_json_roundtrip_random():
    rng = random.Random(2005)
    for _ in range(40):
        f = random_series(rng)
        doc = json.loads(f.to_json())
        assert doc == f.to_doc()
        terms = [(Fraction(t["q"]), int(t["c"])) for t in doc["terms"]]
        assert DirichletSeries(terms) == f


def test_json_bytes_stable():
    a = DirichletSeries({Fraction(4): 1, Fraction(3, 2): -2, Fraction(1): 1})
    b = DirichletSeries(
        [(Fraction(1), 1), (Fraction(3, 2), -2), (Fraction(4), 1)]
    )
    assert a.to_json() == b.to_json()
    assert (
        a.to_json()
        == '{"terms":[{"c":"1","q":"1/1"},{"c":"-2","q":"3/2"},{"c":"1","q":"4/1"}]}'
    )
