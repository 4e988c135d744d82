"""Fraction-free matrix products, and one power chain per semisimple hull.

`mat_mul` multiplies integer numerators over one common denominator per
factor; `_ref_mat_mul` is the plain sum of Fraction products it replaced.
For a semisimple X, `hull_matrix` builds the hull from the integer powers
of dX that the Krylov loop of the minimal polynomial already made, so it
runs the integer product core `matrices._product`, which `mat_mul` runs
too, exactly deg(min_poly) times.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from alghull import hull, matrices
from alghull import polynomials as pol
from fraction_linalg import mat_mul as _ref_mat_mul

ENTRIES = st.one_of(
    st.integers(-5, 5),
    st.just(0),
    st.fractions(min_value=-7, max_value=7, max_denominator=12),
    st.integers(-2**80, 2**80),
)


def _rect(rows, cols, entries=ENTRIES):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def factor_pairs(draw):
    """(A, B) of shapes m x n and n x q, m, n, q in 1..5; each factor is
    drawn as mixed integers and fractions, all integers, or all zero."""
    m, n, q = (draw(st.integers(1, 5)) for _ in range(3))
    out = []
    for rows, cols in ((m, n), (n, q)):
        kind = draw(st.sampled_from(("mixed", "integer", "zero")))
        entries = {"mixed": ENTRIES, "integer": st.integers(-9, 9), "zero": st.just(0)}[kind]
        mat = draw(_rect(rows, cols, entries))
        out.append(matrices.as_matrix(mat) if draw(st.booleans()) else mat)
    return tuple(out)


@settings(max_examples=200, deadline=None)
@given(factor_pairs())
def test_mat_mul_matches_fraction_sum(pair):
    a, b = pair
    got = matrices.mat_mul(a, b)
    assert got == _ref_mat_mul(a, b)
    assert all(isinstance(x, Fraction) for row in got for x in row)
    assert len(got) == len(a) and all(len(row) == len(b[0]) for row in got)


def test_mat_mul_examples():
    a = matrices.as_matrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(-1, 6), 2]])
    b = matrices.as_matrix([[Fraction(3, 4)], [Fraction(5, 7)]])
    assert matrices.mat_mul(a, b) == ((Fraction(3, 8) + Fraction(5, 21),),
                                      (Fraction(-1, 8) + Fraction(10, 7),))
    z = matrices.zero(2)
    assert matrices.mat_mul(z, a) == z == matrices.mat_mul(a, z)
    assert matrices.mat_mul(matrices.identity(2), a) == a


def test_mat_mul_rejects_incompatible_shapes():
    a = matrices.as_matrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(matrices.DimensionError):
        matrices.mat_mul(a, a)
    with pytest.raises(matrices.DimensionError):
        matrices.mat_mul(a, matrices.as_matrix([[1], [2]]))


@pytest.mark.parametrize("entry", corpus.CORPUS, ids=lambda e: e.label)
def test_semisimple_hull_multiplies_deg_min_poly_times(entry):
    x = matrices.companion(entry.poly)
    calls = []
    real = matrices._product

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrices, "_product", counted)
        res = hull.hull_matrix(x, group_order=entry.group_order)
    degree = pol.degree(matrices.min_poly(x))
    assert len(calls) == degree
    # the same basis as one built from a separate power chain
    powers = matrices.powers(x, degree)
    assert res.span.basis == tuple(matrices.linear_combination(g, powers, len(x))
                                   for g in res.witnesses["upsilon_basis"])
