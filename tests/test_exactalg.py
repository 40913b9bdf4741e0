import random
from fractions import Fraction

import pytest

from g2hecke import exactalg
from g2hecke.exactalg import (
    NonExactDivision,
    RationalExpr,
    RingError,
    ShapeError,
    eval_unit_circle_zeros,
    exact_div,
    laurent_gcd,
    parse_expr,
    ring,
)


def make_ring():
    return ring(["v", "X"], {"v": "q"})


def test_ring_constructor():
    R = ring(["v", "X"])
    assert R.nvars == 2
    with pytest.raises(RingError):
        ring(["v", "v"])
    with pytest.raises(RingError):
        ring([])
    with pytest.raises(RingError):
        ring(["v"], {"v": "v"})


def test_difference_of_squares():
    R = make_ring()
    v, one = R.var("v"), R.one()
    assert (one + v) * (one - v) == one - v ** 2


def test_cancellation_returns_laurent():
    R = make_ring()
    X, one = R.var("X"), R.one()
    q = ((one - X) * (one - X ** -1)) / (one - X)
    assert q.is_laurent()
    assert q.as_laurent() == one - X ** -1


def test_q_eliminated_into_v():
    R = make_ring()
    e = parse_expr(R, "1 - q*X")
    v, X, one = R.var("v"), R.var("X"), R.one()
    assert e == one - v ** 2 * X
    assert "q" in e.render() and "v" not in e.render()
    assert parse_expr(R, e.render()) == e
    assert (one - v ** -2 * X).render() == "1 - q^-1*X"


def test_division_by_zero():
    R = make_ring()
    with pytest.raises(ZeroDivisionError):
        R.one() / R.zero()
    with pytest.raises(ZeroDivisionError):
        RationalExpr(R.one(), R.zero())


def test_ring_mismatch():
    R1 = ring(["v", "X"])
    R2 = ring(["a", "b"])
    with pytest.raises(RingError):
        R1.one() + R2.one()


def _random_expr(R, rng, nterms=3, span=2, coeff=4):
    out = R.zero()
    for _ in range(rng.randint(1, nterms)):
        exps = tuple(rng.randint(-span, span) for _ in range(R.nvars))
        c = Fraction(rng.randint(-coeff, coeff), rng.randint(1, coeff))
        out = out + R.monomial(exps, c)
    return out


def test_ring_axioms_on_random_samples():
    R = make_ring()
    rng = random.Random(20240811)
    for _ in range(60):
        a = _random_expr(R, rng)
        b = _random_expr(R, rng)
        c = _random_expr(R, rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_fraction_times_denominator_recovers_numerator():
    R = make_ring()
    rng = random.Random(77)
    for _ in range(40):
        f = _random_expr(R, rng)
        g = _random_expr(R, rng)
        if g.is_zero():
            continue
        assert (f / g) * g == RationalExpr(f, R.one())


def test_reduction_cancels_common_factor():
    R = make_ring()
    rng = random.Random(5150)
    for _ in range(25):
        f = _random_expr(R, rng, nterms=2)
        g = _random_expr(R, rng, nterms=2)
        h = _random_expr(R, rng, nterms=2)
        if g.is_zero() or h.is_zero():
            continue
        assert (f * h) / (g * h) == f / g


def test_gcd_divides_both():
    R = make_ring()
    X, one = R.var("X"), R.one()
    f = (one - X) * (one + X)
    g = (one - X) * (one - X ** -1)
    d = laurent_gcd(f, g)
    assert exact_div(f, d) is not None
    assert exact_div(g, d) is not None
    assert not d.is_constant()


def test_canonicalization_is_idempotent():
    R = make_ring()
    rng = random.Random(31)
    for _ in range(25):
        f = _random_expr(R, rng)
        g = _random_expr(R, rng)
        if g.is_zero():
            continue
        r = RationalExpr(f, g)
        again = RationalExpr(r.num, r.den)
        assert again.num == r.num and again.den == r.den
        # monomials are units: shifting either side only scales by m1/m2
        m1 = R.monomial(tuple(rng.randint(-4, 4) for _ in range(R.nvars)), rng.randint(1, 3))
        m2 = R.monomial(tuple(rng.randint(-4, 4) for _ in range(R.nvars)), rng.randint(-3, -1))
        shifted = RationalExpr(m1 * f, m2 * g)
        scaled = r * RationalExpr(m1, m2)
        assert shifted.num == scaled.num and shifted.den == scaled.den


def test_exact_division():
    R = make_ring()
    X, one = R.var("X"), R.one()
    assert exact_div(X - X ** -1, one - X ** -2) == X
    assert exact_div(X ** -2 - X ** 2, one - X ** -2) == -(X ** 2) - one
    with pytest.raises(NonExactDivision):
        exact_div(one - X, one + X)


@pytest.mark.parametrize("depth, match", [(0, "gcd"), (1, "content")], ids=["reduction", "content"])
def test_gcd_that_does_not_divide_raises(monkeypatch, depth, match):
    # depth 0: RationalExpr gets the non-divisor; depth 1: the content inside the gcd does
    honest = exactalg._poly_gcd
    calls = []

    def non_divisor(f, g, slot, nvars):
        calls.append(slot)
        if len(calls) <= depth:
            return honest(f, g, slot, nvars)
        return {(1, 0): Fraction(1), (0, 0): Fraction(3)}

    monkeypatch.setattr(exactalg, "_poly_gcd", non_divisor)
    R = make_ring()
    v, X, one = R.var("v"), R.var("X"), R.one()
    with pytest.raises(NonExactDivision, match=match):
        RationalExpr(v * X + one, v * X - one)


def test_gcd_work_on_the_long_i_measure(monkeypatch):
    # the unreduced long-I numerator carries a v^12 X^2 monomial factor; a
    # gcd that pseudo-divides against it instead of stripping it makes
    # about 5,000 calls here
    from g2hecke.plancherel import PlancherelCase, mu

    honest = exactalg._poly_gcd
    calls = []

    def counting(f, g, slot, nvars):
        calls.append(slot)
        return honest(f, g, slot, nvars)

    monkeypatch.setattr(exactalg, "_poly_gcd", counting)
    mu(PlancherelCase.from_id("long-I", 2)).expr
    assert 0 < len(calls) <= 500


def _silberger(R, a, b):
    X, one = R.var("X"), R.one()
    qa_inv = R.monomial({"v": -2 * a})
    qb_inv = R.monomial({"v": -2 * b})
    num = (one - X) * (one - X ** -1) * (one + X) * (one + X ** -1)
    den = (one - qa_inv * X) * (one - qa_inv * X ** -1)
    den = den * (one + qb_inv * X) * (one + qb_inv * X ** -1)
    return RationalExpr(num, den)


def test_unit_circle_zeros_silberger_shapes():
    R = make_ring()
    # frozen by inspecting which numerator factors survive reduction:
    # q_alpha > 1 keeps (1-X)(1-X^-1), q_alpha* > 1 keeps (1+X)(1+X^-1)
    assert eval_unit_circle_zeros(_silberger(R, 1, 0), "X") == {1}
    assert eval_unit_circle_zeros(_silberger(R, 1, 2), "X") == {1, -1}
    assert eval_unit_circle_zeros(_silberger(R, 2, 0), "X") == {1}
    assert eval_unit_circle_zeros(_silberger(R, 0, 0), "X") == set()


def test_unit_circle_zeros_constant():
    R = make_ring()
    const = RationalExpr(R.const(7), R.one())
    assert eval_unit_circle_zeros(const, "X") == set()


def test_unit_circle_zeros_rejects_unfactorable():
    R = make_ring()
    v, X, one = R.var("v"), R.var("X"), R.one()
    bad = RationalExpr(one + X + X ** 2 * v, R.one())
    with pytest.raises(ShapeError):
        eval_unit_circle_zeros(bad, "X")


def test_parse_print_round_trip():
    R = make_ring()
    rng = random.Random(808)
    for _ in range(40):
        f = _random_expr(R, rng)
        if f.is_zero():
            continue
        assert parse_expr(R, f.render()) == f
    r = _random_expr(R, rng) / (R.one() + R.var("X"))
    assert parse_expr(R, r.render()) == r


def test_parse_rejects_garbage():
    R = make_ring()
    with pytest.raises(ValueError):
        parse_expr(R, "1 + $")
    with pytest.raises(RingError):
        parse_expr(R, "1 + y")
    with pytest.raises(ValueError):
        parse_expr(R, "(1 + X")


def test_substitute():
    R = make_ring()
    v, X, one = R.var("v"), R.var("X"), R.one()
    f = one - v ** 2 * X + X ** -1
    assert f.substitute("X", 1) == R.const(2) - v ** 2
    assert f.substitute("X", -1) == v ** 2
    g = f.substitute("v", 1)
    assert g == one - X + X ** -1
    with pytest.raises(NonExactDivision):
        (X ** -1).substitute("X", one + v)
