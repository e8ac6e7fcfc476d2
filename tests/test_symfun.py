"""Two-letter symmetric functions: tables, conventions, basis identities."""

import pytest

from convcheck.arith import MultiPoly
from convcheck.identities import get_context
from convcheck.symfun import sym_ehp
from test_quadext import ROOTS

x1 = MultiPoly.var("x1")
x2 = MultiPoly.var("x2")


def h(n, a=x1, b=x2):
    return sym_ehp("h", n, a, b)


def p(n, a=x1, b=x2):
    return sym_ehp("p", n, a, b)


def test_complete_homogeneous_small_table():
    assert h(0) == MultiPoly.constant(1)
    assert h(1) == x1 + x2
    assert str(h(2)) == "x1^2 + x1*x2 + x2^2"
    assert h(3) == x1 ** 3 + x1 ** 2 * x2 + x1 * x2 ** 2 + x2 ** 3


def test_negative_indices_vanish():
    # S_(j<0) = 0 is the convention of the records' S_j (Context.S); the
    # bases themselves refuse a negative index
    ctx = get_context("indeterminate")
    for n in (-1, -2, -7):
        assert ctx.S(n).is_zero()
    with pytest.raises(ValueError):
        p(-1)


def test_power_sum_small_table():
    assert p(0) == MultiPoly.constant(2)
    assert p(1) == x1 + x2
    assert p(2) == x1 ** 2 + x2 ** 2


def test_sum_matches_literal_definition():
    for n in range(0, 12):
        literal = MultiPoly.constant(0)
        for i in range(n + 1):
            literal = literal + x1 ** i * x2 ** (n - i)
        assert h(n) == literal


def test_h_and_p_coincide_with_s_and_phi():
    # the context's S_n and phi_n (letters x1, x2) are built independently
    ctx = get_context("indeterminate")
    for n in range(0, 41):
        assert h(n) == ctx.S(n)
        assert p(n) == ctx.phi(n)


def test_newton_relation_two_letters():
    # p_n = e_1 p_(n-1) - e_2 p_(n-2) for n >= 2
    e1 = x1 + x2
    e2 = x1 * x2
    for n in range(2, 20):
        assert p(n) == e1 * p(n - 1) - e2 * p(n - 2)


def test_works_over_extension_ring():
    lam1, lam2, *_ = ROOTS["fibonacci"]
    # S_n is symmetric, hence has no sqrt part over conjugate letters
    for n in range(0, 8):
        val = h(n, lam1, lam2)
        assert val.b.is_zero()


def test_unknown_basis_kind_rejected():
    with pytest.raises(ValueError):
        sym_ehp("m", 1, x1, x2)
    with pytest.raises(ValueError):
        sym_ehp("e", 1, x1, x2)
    with pytest.raises(ValueError):
        sym_ehp("h", -1, x1, x2)
