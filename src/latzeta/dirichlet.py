"""Finite general Dirichlet series with exact rational bases.

A series here is a finite sum ``sum c_q / q^s`` over rational bases
``q >= 1`` with nonzero integer coefficients ``c_q``.  All arithmetic is
exact.
"""

from __future__ import annotations

import json
from fractions import Fraction
from operator import itemgetter


def _as_base(q):
    if type(q) is not Fraction:
        q = Fraction(q)
    if q < 1:
        raise ValueError(f"series base must be >= 1, got {q}")
    return q


class DirichletSeries:
    """Immutable finite Dirichlet series ``sum c_q / q^s``.

    Value semantics: two series are equal iff their term maps are equal,
    and instances are hashable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        acc = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for q, c in items:
            q = _as_base(q)
            k = int(c)
            if k != c:
                raise ValueError(f"coefficient {c} at base {q} is not an integer")
            if k:
                acc[q] = acc.get(q, 0) + k
        # sorting by base alone compares two bases once, not for == and <
        self._terms = {q: c for q, c in sorted(acc.items(), key=itemgetter(0)) if c}

    # ------------------------------------------------------------------
    # views

    def terms(self):
        """Term map as a list of (base, coefficient), ascending by base."""
        return list(self._terms.items())

    def term_map(self):
        return dict(self._terms)

    def coefficient(self, q):
        return self._terms.get(_as_base(q), 0)

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def is_ordinary(self):
        """True iff every base is an integer."""
        return all(q.denominator == 1 for q in self._terms)

    # ------------------------------------------------------------------
    # ring structure

    def __add__(self, other):
        if not isinstance(other, DirichletSeries):
            return NotImplemented
        return DirichletSeries([*self._terms.items(), *other._terms.items()])

    def __neg__(self):
        return DirichletSeries({q: -c for q, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, DirichletSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, DirichletSeries):
            return NotImplemented
        return DirichletSeries(
            (q1 * q2, c1 * c2)
            for q1, c1 in self._terms.items()
            for q2, c2 in other._terms.items()
        )

    def __eq__(self, other):
        if not isinstance(other, DirichletSeries):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # ------------------------------------------------------------------
    # evaluation

    def evaluate_exact(self, s):
        """Exact value at an integer exponent (negatives allowed)."""
        if not isinstance(s, int):
            raise TypeError("exact evaluation needs an integer exponent")
        return sum((c * q ** (-s) for q, c in self._terms.items()), Fraction(0))

    def shift_exponent(self, k=1):
        """The series for ``s -> s + k``; needs every coefficient to stay
        integral (base q contributes a factor q**-k), else ValueError."""
        if k < 0:
            raise ValueError("only forward shifts are supported")
        acc = {}
        for q, c in self._terms.items():
            scaled = Fraction(c) / q**k
            if scaled.denominator != 1:
                raise ValueError(
                    f"coefficient {c} at base {q} does not shift integrally"
                )
            acc[q] = int(scaled)
        return DirichletSeries(acc)

    # ------------------------------------------------------------------
    # rendering and serialisation

    def pretty(self, collapse=True):
        """Human form, e.g. ``1 - 5/(5/3)^s + 6/5^(s-1)``.

        With ``collapse=True`` a term ``c/q^s`` with integer base ``q``
        dividing ``c`` is shown as ``(c/q)/q^(s-1)``.
        """
        if not self._terms:
            return "0"
        parts = []
        for q, c in self._terms.items():
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if q == 1:
                body = str(mag)
            else:
                exp = "s"
                if collapse and q.denominator == 1 and mag % q.numerator == 0:
                    mag //= q.numerator
                    exp = "(s-1)"
                base = (
                    str(q.numerator)
                    if q.denominator == 1
                    else f"({q.numerator}/{q.denominator})"
                )
                body = f"{mag}/{base}^{exp}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = first_body if first_sign == "+" else f"-{first_body}"
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def to_doc(self):
        return {
            "terms": [
                {"q": f"{q.numerator}/{q.denominator}", "c": str(c)}
                for q, c in self._terms.items()
            ]
        }

    def to_json(self):
        return json.dumps(self.to_doc(), sort_keys=True, separators=(",", ":"))

    def __repr__(self):
        return f"DirichletSeries({self.pretty(collapse=False)!r})"
