import random
from fractions import Fraction

import pytest

from g2hecke import exactalg
from g2hecke.exactalg import (
    LaurentExpr,
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


def test_inexact_coefficients_are_refused():
    R = make_ring()
    X = R.var("X")
    for bad in (0.5, 1.0, True, False, "1"):
        with pytest.raises(TypeError):
            LaurentExpr(R, {(0, 0): bad})
        with pytest.raises(TypeError):
            R.const(bad)
        with pytest.raises(TypeError):
            R.monomial({"X": 1}, bad)
        with pytest.raises(TypeError):
            X * bad
        with pytest.raises(TypeError):
            X + bad
        with pytest.raises(TypeError):
            X / bad


def test_integral_coefficients_are_int():
    from g2hecke.plancherel import silberger_form

    R = make_ring()
    X = R.var("X")
    e = LaurentExpr(R, {(0, 1): Fraction(4, 2), (0, 0): Fraction(1, 2), (1, 0): Fraction(0)})
    assert e.terms == {(0, 1): 2, (0, 0): Fraction(1, 2)}
    assert type(e.terms[(0, 1)]) is int
    half = X / 2
    assert type(half.terms[(0, 1)]) is Fraction
    for whole in (half + half, half * 2, half * R.const(2), (half * half) / Fraction(1, 4)):
        assert all(type(c) is int for c in whole.terms.values()), whole.terms
    assert exactalg._div(6, -3) == -2 and type(exactalg._div(6, -3)) is int
    assert exactalg._div(1, 2) == Fraction(1, 2)
    assert exactalg._div(Fraction(3, 2), Fraction(1, 2)) == 3 and type(exactalg._div(Fraction(3, 2), Fraction(1, 2))) is int
    r = silberger_form(2, 1)
    assert all(type(c) is int for part in (r.num, r.den) for c in part.terms.values())


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
    # depth 0: RationalExpr gets the non-divisor; depth 1: the content inside
    # the PRS gets it, so the heuristic is switched off to reach that path
    honest = exactalg._poly_gcd
    calls = []

    def non_divisor(f, g, slot, nvars):
        calls.append(slot)
        if len(calls) <= depth:
            return honest(f, g, slot, nvars)
        return {(1, 0): Fraction(1), (0, 0): Fraction(3)}

    monkeypatch.setattr(exactalg, "_poly_gcd", non_divisor)
    if depth:
        monkeypatch.setattr(exactalg, "_heu_gcd", lambda f, g, slot, nvars: None)
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


def _count_prs(monkeypatch) -> list:
    """Record every call of the PRS fallback behind the heuristic gcd."""
    honest = exactalg._prs_gcd
    calls = []

    def counting(f, g, slot, nvars):
        calls.append(slot)
        return honest(f, g, slot, nvars)

    monkeypatch.setattr(exactalg, "_prs_gcd", counting)
    return calls


class _OverBudget(Exception):
    pass


def _gcd_budget(monkeypatch) -> dict:
    """Cap the number of _poly_gcd calls; past ``budget["left"]`` it raises _OverBudget."""
    honest = exactalg._poly_gcd
    budget = {"left": 0}

    def budgeted(f, g, slot, nvars):
        budget["left"] -= 1
        if budget["left"] < 0:
            raise _OverBudget
        return honest(f, g, slot, nvars)

    monkeypatch.setattr(exactalg, "_poly_gcd", budgeted)
    return budget


def test_shipped_measures_never_reach_the_prs(monkeypatch):
    from g2hecke.plancherel import CASE_IDS, PlancherelCase, mu, silberger_form

    calls = _count_prs(monkeypatch)
    for case_id in CASE_IDS:
        for f in (1, 2):
            mu(PlancherelCase.from_id(case_id, f)).expr
    for a in range(9):
        for b in range(9):
            silberger_form(a, b)
    assert calls == []


def test_rejected_heuristic_candidate_falls_back_to_the_prs(monkeypatch):
    R = make_ring()
    v, X, one = R.var("v"), R.var("X"), R.one()
    num = (one + v * X) * (one - X) * (one - v ** 2 * X ** -1)
    den = (one - X) * (R.const(2) + X) * (one - v ** 2 * X ** -1)
    canonical = RationalExpr(num, den)
    assert canonical.num == one + v * X and canonical.den == X + R.const(2)

    honest = exactalg._xi_adic

    def spoiled(h, slot, xi):
        # the honest digits times (x_slot + 3): never a divisor of these inputs
        key = [0] * R.nvars
        one_key, key[slot] = tuple(key), 1
        return exactalg._poly_mul(honest(h, slot, xi), {tuple(key): 1, one_key: 3})

    monkeypatch.setattr(exactalg, "_xi_adic", spoiled)
    calls = _count_prs(monkeypatch)
    again = RationalExpr(num, den)
    assert calls, "the spoiled candidate was accepted"
    assert (again.num.terms, again.den.terms) == (canonical.num.terms, canonical.den.terms)


def test_small_mu_ring_sum_does_not_stall(monkeypatch):
    # the recursive PRS alone ran for over 60 s on this sum (over 58,000
    # _poly_gcd calls); a budget on calls, not on wall time, keeps it honest
    from g2hecke.plancherel import MU_RING

    parts = [
        ("1/4*q*c + 3/2*X*c^2", "q*X - 1/2*v*c + 1/3*c^2"),
        ("1/2*q*X*c^2 - 3/2*X", "v*X*c + 1/3*c^2 - 1/3"),
    ]
    (n1, d1), (n2, d2) = [(parse_expr(MU_RING, n), parse_expr(MU_RING, d)) for n, d in parts]
    a, b = RationalExpr(n1, d1), RationalExpr(n2, d2)
    budget = _gcd_budget(monkeypatch)
    budget["left"] = 10
    total = a + b
    assert total.num * (d1 * d2) == (n1 * d2 + n2 * d1) * total.den
    assert not total.is_laurent()


def test_power_reduces_once(monkeypatch):
    # the powers of a reduced numerator and denominator are coprime; reducing
    # after every factor made 28 _poly_gcd calls here
    from g2hecke.plancherel import silberger_form

    r = silberger_form(1, 2)
    repeated = RationalExpr(r.ring.one(), r.ring.one())
    for _ in range(12):
        repeated = repeated * r
    assert r ** 0 == 1
    budget = _gcd_budget(monkeypatch)
    budget["left"] = 2
    assert r ** 12 == repeated


def test_monomial_denominator_needs_no_gcd(monkeypatch):
    from g2hecke.plancherel import MU_RING

    budget = _gcd_budget(monkeypatch)
    r = RationalExpr(MU_RING.one(), MU_RING.one())
    assert r.is_laurent() and r.num.is_one()
    assert budget["left"] == 0


@pytest.mark.parametrize(
    "c", [3, -2, Fraction(2, 3), Fraction(-5, 4)], ids=["int", "neg-int", "frac", "neg-frac"]
)
@pytest.mark.parametrize("exps", [{"v": 2, "X": 1}, {}, {"v": -3, "X": -1}, {"v": 1, "X": -2}])
def test_monomial_denominator_equals_the_gcd_path(c, exps):
    # multiplying both sides by a non-monomial h sends the same fraction
    # through the gcd, which must cancel h and land on the same canonical form
    R = make_ring()
    num = parse_expr(R, "2*q*X - 3/2 + X^-1")
    den = R.monomial(exps, c)
    h = R.var("v") + 3 * R.var("X", -1)
    short, long = RationalExpr(num, den), RationalExpr(num * h, den * h)
    assert (short.num.terms, short.den.terms) == (long.num.terms, long.den.terms)
    assert short.is_laurent() and short.num * den == num
    assert all(type(k) is int or k.denominator != 1 for k in short.num.terms.values())


def test_heuristic_gcd_agrees_with_the_prs_on_a_seeded_corpus(monkeypatch):
    # sums and products of small rationals; the PRS-only reference gets a
    # budget of _poly_gcd calls, and an item past it (the PRS swelling the
    # heuristic is there to avoid) is checked by cross-multiplication only
    rings = [(ring(["v", "X", "c"], {"v": "q"}), 240), (make_ring(), 40), (ring(["x"]), 40)]
    honest_heu = exactalg._heu_gcd
    heu_on = [True]
    monkeypatch.setattr(exactalg, "_heu_gcd", lambda *a: honest_heu(*a) if heu_on[0] else None)
    budget = _gcd_budget(monkeypatch)
    rng = random.Random(1989)
    compared = over = 0
    for R, count in rings:
        for _ in range(count):
            p = []
            while len(p) < 4:
                f = _random_expr(R, rng, span=1)
                if not f.is_zero():
                    p.append(f)
            add = rng.random() < 0.5
            num = p[0] * p[3] + p[2] * p[1] if add else p[0] * p[2]
            den = p[1] * p[3]

            def combine():
                a, b = RationalExpr(p[0], p[1]), RationalExpr(p[2], p[3])
                return a + b if add else a * b

            heu_on[0], budget["left"] = True, 40
            fast = combine()
            assert fast.num * den == num * fast.den
            heu_on[0], budget["left"] = False, 1000
            try:
                slow = combine()
            except _OverBudget:
                over += 1
                continue
            compared += 1
            assert (fast.num.terms, fast.den.terms) == (slow.num.terms, slow.den.terms)
    assert compared >= 280 and compared + over == 320


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
