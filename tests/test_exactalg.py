import operator
import random
import re
import signal
import sys
import time
from fractions import Fraction
from math import comb, prod

import pytest

from g2hecke import blocks, exactalg
from g2hecke.exactalg import (
    LaurentExpr,
    NonExactDivision,
    RationalExpr,
    RingError,
    eval_unit_circle_zeros,
    exact_div,
    parse_expr,
    ring,
)
from g2hecke.plancherel import MuFunction, PlancherelError, labels


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
    # an empty name prints as nothing, and a shared alias parses back as one of its variables
    for names, aliases in ((["v", ""], None), (["v"], {"v": ""}), (["v", "X"], {"v": "q", "X": "q"})):
        with pytest.raises(RingError):
            ring(names, aliases)
    # names are printed verbatim: (a b)^2 + X would print as a b^2 + X, and v^2 as 2q
    for names, aliases in ((["a b", "X"], None), (["v", "X"], {"v": "2q"}), (["v", 1], None)):
        with pytest.raises(RingError, match="does not parse as a name"):
            ring(names, aliases)


NAME = r"[^\W\d]\w*"  # a name token of the parser


def _one_name_token(s):
    try:
        return exactalg._Tokens(s).toks == [("name", s)]
    except ValueError:  # a character the parser reads as no token
        return False


def test_name_rule_is_the_parsers_name_token():
    # ring checks names with str methods, as it runs at import where re is not loaded
    for cp in range(0x10000):
        c = chr(cp)
        assert exactalg._is_name(c) == bool(re.fullmatch(NAME, c)) == _one_name_token(c), hex(cp)
    rng = random.Random(11)
    alphabet = "aZ_0९٣²½ é\u0301-*x\u00aa\u2167"
    for _ in range(5000):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        assert exactalg._is_name(s) == bool(re.fullmatch(NAME, s)) == _one_name_token(s), s


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
            X - bad
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


def test_mixed_operands_promote_through_the_fraction():
    # a LaurentExpr on the left hands a RationalExpr operand to the reflected method
    R = make_ring()
    v, X, one = R.var("v"), R.var("X"), R.one()
    L = one - v * X + X ** -2
    r = RationalExpr(v + X, one - v ** 2 * X)
    lifted = RationalExpr(L, one)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        got = op(L, r)
        assert type(got) is RationalExpr and got == op(lifted, r), op.__name__
    for other in (r, lifted, RationalExpr(L + one, one)):
        assert (L == other) == (other == L)
    assert L == lifted and L - lifted == 0
    # a number on the left, and negative powers of a fraction and of a parsed sum
    assert 3 / L == RationalExpr(R.const(3), L)
    assert 2 - r == RationalExpr(2 * r.den - r.num, r.den)
    assert r ** -2 == RationalExpr(r.den ** 2, r.num ** 2)
    assert parse_expr(R, "(1+X)^-2") == RationalExpr(one, (one + X) ** 2)


def test_equal_values_hash_alike():
    R = make_ring()
    X, one = R.var("X"), R.one()
    assert len({RationalExpr(X, one), X}) == 1
    assert len({R.const(3), 3}) == 1
    assert len({R.const(Fraction(1, 2)), Fraction(1, 2), RationalExpr(R.const(1), R.const(2))}) == 1
    assert len({R.zero(), 0, RationalExpr(R.zero(), X)}) == 1


@pytest.mark.parametrize("name", ["y", "q"], ids=["unknown", "alias"])
@pytest.mark.parametrize(
    "call",
    [
        lambda f, name: f.substitute(name, 1),
        lambda f, name: f.invert_variable(name),
        lambda f, name: eval_unit_circle_zeros(f, name),
        lambda f, name: (f / (f + 1)).substitute(name, 1),
    ],
    ids=["substitute", "invert_variable", "eval_unit_circle_zeros", "rational-substitute"],
)
def test_unknown_variable_is_a_ring_error(call, name):
    R = make_ring()
    with pytest.raises(RingError, match=rf"^unknown variable '{name}' in ring \('v', 'X'\)$"):
        call(R.var("X"), name)


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
    d = LaurentExpr(R, exactalg._poly_gcd(f.terms, g.terms, 0))
    assert exact_div(f, d) is not None
    assert exact_div(g, d) is not None
    assert not d.is_constant()
    # g = -(X - 1)^2 / X, so the reduced f / g keeps one factor X - 1 of two
    r = f / g
    assert r.den == X - one and r.num == X ** 2 + X


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

    def non_divisor(f, g, slot):
        calls.append(slot)
        if len(calls) <= depth:
            return honest(f, g, slot)
        return {(1, 0): Fraction(1), (0, 0): Fraction(3)}

    monkeypatch.setattr(exactalg, "_poly_gcd", non_divisor)
    if depth:
        monkeypatch.setattr(exactalg, "_heu", lambda f, g, slots: None)
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

    def counting(f, g, slot):
        calls.append(slot)
        return honest(f, g, slot)

    monkeypatch.setattr(exactalg, "_poly_gcd", counting)
    mu(PlancherelCase("long-I", 2)).expr
    assert 0 < len(calls) <= 500


def _count_prs(monkeypatch) -> list:
    """Record every call of the PRS fallback behind the heuristic gcd."""
    honest = exactalg._prs_gcd
    calls = []

    def counting(f, g, slot):
        calls.append(slot)
        return honest(f, g, slot)

    monkeypatch.setattr(exactalg, "_prs_gcd", counting)
    return calls


def _count_gcd_work(monkeypatch) -> list:
    """Record every call of GCDHEU or the PRS; GCDHEU then answers None, so the PRS follows."""
    calls = _count_prs(monkeypatch)
    monkeypatch.setattr(exactalg, "_heu", lambda *a: calls.append("heu"))
    return calls


class _OverBudget(Exception):
    pass


def _gcd_budget(monkeypatch) -> dict:
    """Cap the number of _poly_gcd calls; past ``budget["left"]`` it raises _OverBudget."""
    honest = exactalg._poly_gcd
    budget = {"left": 0}

    def budgeted(f, g, slot):
        budget["left"] -= 1
        if budget["left"] < 0:
            raise _OverBudget
        return honest(f, g, slot)

    monkeypatch.setattr(exactalg, "_poly_gcd", budgeted)
    return budget


def test_shipped_measures_never_reach_the_prs(monkeypatch):
    from g2hecke.plancherel import CASE_IDS, PlancherelCase, mu, silberger_form

    calls = _count_prs(monkeypatch)
    for case_id in CASE_IDS:
        for f in (1, 2):
            mu(PlancherelCase(case_id, f)).expr
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
    # the powers of a reduced numerator and denominator are coprime and stay in
    # canonical form; reducing after every factor made 28 _poly_gcd calls here,
    # and reducing the power once made 2
    from g2hecke.plancherel import silberger_form

    r = silberger_form(1, 2)
    repeated = RationalExpr(r.ring.one(), r.ring.one())
    for _ in range(12):
        repeated = repeated * r
    assert r ** 0 == 1
    _gcd_budget(monkeypatch)  # a budget of no gcd call
    assert r ** 12 == repeated


@pytest.mark.parametrize("n, products", [(0, 0), (1, 1), (2, 2), (8, 4), (13, 6)])
def test_power_squares_only_while_bits_remain(monkeypatch, n, products):
    # popcount(n) + bit_length(n) - 1 products: no squaring after the top bit,
    # whose square would be the largest product and unused
    honest = exactalg._poly_mul
    calls = []

    def counting(a, b):
        calls.append(None)
        return honest(a, b)

    R = make_ring()
    base = R.one() + R.var("X")
    expected = parse_expr(R, " + ".join(f"{comb(n, k)}*X^{k}" for k in range(n + 1)))
    monkeypatch.setattr(exactalg, "_poly_mul", counting)
    assert base ** n == expected
    assert len(calls) == products


def test_fraction_power_equals_repeated_products(monkeypatch):
    # a base with Fraction coefficients is raised over the integers and divided
    # by d^n once, where d is the lcm of its denominators
    R = make_ring()
    rng = random.Random(499)
    honest = exactalg._poly_mul
    seen = []

    def counting(a, b):
        seen.extend(type(c) for c in (*a.values(), *b.values()))
        return honest(a, b)

    for _ in range(12):
        base = _random_expr(R, rng, nterms=3)
        if all(type(c) is int for c in base.terms.values()):
            continue
        n = rng.randint(1, 9)
        repeated = R.one()
        for _ in range(n):
            repeated = repeated * base
        monkeypatch.setattr(exactalg, "_poly_mul", counting)
        raised = base ** n
        monkeypatch.setattr(exactalg, "_poly_mul", honest)
        assert raised == repeated
    assert seen and set(seen) == {int}


def test_monomial_denominator_needs_no_gcd(monkeypatch):
    # a one-term operand has gcd 1: the gcd answers it without GCDHEU or the PRS
    from g2hecke.plancherel import MU_RING

    calls = _count_gcd_work(monkeypatch)
    r = RationalExpr(MU_RING.one(), MU_RING.one())
    assert r.is_laurent() and r.num.is_one()
    assert calls == []


def test_constant_over_a_polynomial_needs_no_gcd_work(monkeypatch):
    # GCDHEU took 55 s on the quotient below, evaluating the 1,700-bit
    # denominator at a point of that size for a gcd with the constant 1
    R = ring(["v", "X"], {"v": "q"})
    den = parse_expr(R, "(70001*v-50003*X)^100")
    calls = _count_gcd_work(monkeypatch)
    r = parse_expr(R, "1/(70001*v-50003*X)^100")
    rng = random.Random(7)
    quotients = []
    for _ in range(20):
        f = _random_expr(R, rng, nterms=3)
        c = R.const(rng.choice([1, -3, Fraction(2, 5)]))
        if not f.is_zero():
            quotients.append((c, f, RationalExpr(c, f)))
    assert calls == []
    assert r.num * den == r.den and not r.is_laurent()
    assert all(q.num * f == c * q.den for c, f, q in quotients)


def _at(p, point):
    """The Laurent polynomial p at a point, one nonzero value per ring variable, in Fraction."""
    total = Fraction(0)
    for e, c in p.terms.items():
        term = Fraction(c)
        for x, k in zip(point, e):
            term *= Fraction(x) ** k
        total += term
    return total


def test_two_term_quotient_by_a_wide_power_is_fast():
    # GCDHEU started xi from the larger norm, evaluating v + X at a 1,700-bit
    # point, and this quotient took 47 s
    R = make_ring()
    start = time.perf_counter()
    r = parse_expr(R, "(v+X)/(70001*v-50003*X)^100")
    assert time.perf_counter() - start < 2
    for v, x in [(1, 2), (3, -1), (-2, 5), (7, 7)]:
        assert _at(r.num, (v, x)) / _at(r.den, (v, x)) == Fraction(v + x, (70001 * v - 50003 * x) ** 100)


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
    honest_heu = exactalg._heu
    heu_on = [True]
    monkeypatch.setattr(exactalg, "_heu", lambda *a: honest_heu(*a) if heu_on[0] else None)
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


def _random_text(rng, depth=0):
    """A random expression over v, X, c and the alias q, in the parser's grammar."""
    if depth == 3 or (depth and rng.random() < 0.3):
        name, k = rng.choice("vXcq"), rng.randint(-2, 3)
        leaf = name if k == 1 else f"{name}^{k}"
        return leaf if rng.random() < 0.5 else f"{leaf} {rng.choice('+-')} {rng.randint(0, 9)}"
    a, b = _random_text(rng, depth + 1), _random_text(rng, depth + 1)
    op = rng.choice("+-*//^")
    if op in "+-":
        return f"{a} {op} {b}"
    if op == "^":
        return f"({a})^{rng.randint(-2, 3)}"
    return f"({a}){op}({b})"


def _eval_text(text, v, x, c):
    """The text evaluated in Fraction arithmetic by Python itself, q being v^2."""
    python = re.sub(r"\d+", lambda m: f"F({m.group()})", text).replace("^", "**")
    F = Fraction
    return eval(python, {"F": F}, {"v": F(v), "X": F(x), "c": F(c), "q": F(v) ** 2})


def _gcd_degree(a, b):
    """The degree of gcd(a, b) over Q, for coefficient lists (lowest first), by Euclid."""
    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    a, b = trim(a), trim(b)
    while b:
        while len(a) >= len(b):
            k, q = len(a) - len(b), a[-1] / b[-1]
            for i, bc in enumerate(b):
                a[k + i] -= q * bc
            trim(a)
        a, b = b, a
    return len(a) - 1


def _coefficients(p, slot, point):
    """p as a polynomial in the variable ``slot``, the others set from ``point``, lowest first."""
    low = min(e[slot] for e in p.terms)
    out = [Fraction(0)] * (max(e[slot] for e in p.terms) - low + 1)
    for e, c in p.terms.items():
        term = Fraction(c)
        for i, (x, k) in enumerate(zip(point, e)):
            if i != slot:
                term *= Fraction(x) ** k
        out[e[slot] - low] += term
    return out


@pytest.mark.parametrize("heuristic", [True, False], ids=["gcdheu", "prs-only"])
def test_parsed_texts_agree_with_their_values_and_are_reduced(monkeypatch, heuristic):
    # an evaluation oracle that shares no code with the package: each text is
    # evaluated by Python in Fraction arithmetic at integer points, and the parsed
    # fraction must have that value, a monic denominator touching exponent 0 in
    # every variable, and no common factor in any one variable at a random point;
    # GCDHEU answers every gcd here, so a second pass switches it off for the PRS
    if not heuristic:
        monkeypatch.setattr(exactalg, "_heu", lambda *a: None)
    R = ring(["v", "X", "c"], {"v": "q"})
    rng = random.Random(2024)
    compared = 0
    for _ in range(300):
        text = _random_text(rng)
        points = [tuple(rng.choice([-7, -3, -2, -1, 1, 2, 3, 5, 11]) for _ in range(3)) for _ in range(3)]
        try:
            r = parse_expr(R, text)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                _eval_text(text, *points[0])
            continue
        num, den = (r.num, r.den) if isinstance(r, RationalExpr) else (r, R.one())
        for point in points:
            try:
                value = _eval_text(text, *point)
            except ZeroDivisionError:
                continue
            assert _at(num, point) / _at(den, point) == value, text
            compared += 1
        assert den.terms[max(den.terms)] == 1, text
        assert all(min(e[i] for e in den.terms) == 0 for i in range(3)), text
        if num.is_zero():
            assert den.is_one(), text
            continue
        for slot in range(3):
            point = [rng.randint(-10 ** 6, 10 ** 6) or 1 for _ in range(3)]
            assert _gcd_degree(_coefficients(num, slot, point), _coefficients(den, slot, point)) == 0, text
    assert compared >= 600


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


def test_unit_circle_zeros_of_any_reduced_expression():
    # no factored shape is needed: 1 + X + v*X^2 has no root of the form +-monomial
    R = make_ring()
    v, X, one = R.var("v"), R.var("X"), R.one()
    unfactorable = one + X + v * X ** 2
    assert eval_unit_circle_zeros(RationalExpr(unfactorable, one), "X") == set()
    assert eval_unit_circle_zeros(RationalExpr((one - X) * unfactorable, one), "X") == {1}
    # the reduction cancels 1 + X, so X = -1 is no zero
    cancelled = RationalExpr((one - X) * (one + X), (one + X) * (one - v * X))
    assert eval_unit_circle_zeros(cancelled, "X") == {1}
    assert eval_unit_circle_zeros(RationalExpr(R.zero(), one), "X") == {1, -1}


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


@pytest.mark.parametrize(
    "text, expected",
    [
        ("1 + $", (ValueError, "unexpected character '$' in expression")),
        ("1 + y", (RingError, "unknown variable 'y' in ring ('v', 'X')")),
        ("2X", (ValueError, "trailing input at 'X'")),
        ("X\u00b2", (RingError, "unknown variable 'X\u00b2' in ring ('v', 'X')")),
        ("\u00b2", (ValueError, None)),
        ("\u0663*X", "3*X"),
        ("X +\tX\n", "2*X"),
        ("X_1", (RingError, "unknown variable 'X_1' in ring ('v', 'X')")),
        ("\u00e9", (RingError, "unknown variable '\u00e9' in ring ('v', 'X')")),
        ("", (ValueError, "unexpected token None")),
        ("()", (ValueError, "unexpected token ')'")),
        ("X^", (ValueError, "exponent must be an integer literal")),
        ("X^y", (ValueError, "exponent must be an integer literal")),
        ("1/(1-X) + X", "(X^2 - X - 1) / (X - 1)"),
        ("X - 1/(1-X)", "(X^2 - X + 1) / (X - 1)"),
    ],
)
def test_tokens(text, expected):
    # a superscript digit is no decimal digit, so alone it is pinned only as
    # a ValueError: the name pattern takes it and the ring refuses the name
    R = make_ring()
    if isinstance(expected, str):
        assert parse_expr(R, text).render() == expected
        return
    kind, message = expected
    with pytest.raises(kind) as caught:
        parse_expr(R, text)
    assert message is None or str(caught.value) == message


def test_parse_takes_deep_input_without_a_recursion_error():
    # unary signs are read in a loop and sums iteratively; nesting past the
    # interpreter's stack is a ValueError, not a RecursionError
    R = make_ring()
    X = R.var("X")
    assert parse_expr(R, "-" * 1200 + "X") == X
    assert parse_expr(R, "+-" * 601 + "X") == -X
    assert parse_expr(R, " + ".join(["X"] * 3000)) == 3000 * X
    with pytest.raises(ValueError, match="^expression nests too deeply$"):
        parse_expr(R, "(" * 400 + "X" + ")" * 400)


def test_parse_refuses_a_power_past_the_term_cap():
    # (1 + v + X)^200 has 20301 terms and ran for more than half a minute;
    # the refusal reads only the base's term count and the exponent
    R = make_ring()
    for text in ("(1 + v + X)^200", "(1 + X)^-500", "((1 + X)/(1 - v))^500", "(1 + X)^" + "9" * 1000):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"expands past {exactalg.MAX_POWER_TERMS} terms$"):
            parse_expr(R, text)
        assert time.perf_counter() - start < 0.1, text
    X, one = R.var("X"), R.one()
    assert parse_expr(R, "(1 + X)^499") == (one + X) ** 499  # 500 terms: at the cap
    assert parse_expr(R, "X^100000") == X ** 100000  # a monomial power has one term


def test_parse_refuses_a_power_past_the_coefficient_bit_cap():
    # ^499 of this two-term fraction lies inside the term cap but ran for over half a minute:
    # its 32-bit coefficients grow to about 16,000 bits in each of 500 terms
    R = make_ring()
    base = "((70001*v-50003*X)/(30007*v+110003*X))"
    for e in (499, 200, -499):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^a power of a base with 32-bit coefficients writes past "
                                             f"{exactalg.MAX_POWER_BITS} bits$"):
            parse_expr(R, f"{base}^{e}")
        assert time.perf_counter() - start < 1
    assert parse_expr(R, f"{base}^2") == parse_expr(R, f"{base}*{base}")  # 3 * 2 * 32 bits
    X, v, one = R.var("X"), R.var("v"), R.one()
    # 500 terms * 499 * 3 bits (the 3 over an integer denominator): inside the cap
    assert parse_expr(R, "((v + X)/(3 - X))^499") == ((v + X) / (3 - X)) ** 499
    assert parse_expr(R, "X^100000") == X ** 100000  # one term of 2 bits
    assert parse_expr(R, "0^7") == R.zero()  # no coefficients at all


def test_parse_refuses_a_product_past_the_squared_term_cap():
    # every power lies inside the cap, but four of them multiplied took 3.8 s; a
    # product or quotient may multiply at most MAX_POWER_TERMS ** 2 pairs of terms
    R = make_ring()
    cap = exactalg.MAX_POWER_TERMS ** 2
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^a product of 1891 and 496 terms passes {cap}$"):
        parse_expr(R, "(1+v+X)^30*(1+v+X)^30*(1+v+X)^30*(1+v+X)^30")
    assert time.perf_counter() - start < 2
    with pytest.raises(ValueError, match=f"^a product of 500 and 501 terms passes {cap}$"):
        parse_expr(R, "(1 + X)^499 / ((1 + v)^499 + X^1000)")
    assert len(parse_expr(R, "(1+v+X)^30*(1+v+X)^30").terms) == 1891  # 496 * 496 pairs: inside the cap


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="Python before 3.10.7 has no digit limit")
def test_parse_refuses_a_value_it_cannot_print():
    # str() refuses an int past sys.get_int_max_str_digits() digits, so these parsed
    # and then failed in render() and repr(); each power lies inside MAX_POWER_BITS,
    # and the product of two powers that each print passes the limit too
    R = make_ring()
    limit = sys.get_int_max_str_digits()
    for text in ("103^3210", "q*10^-7177", "7^3000*7^3000", f"10^{limit}"):
        with pytest.raises(ValueError, match=f"^a coefficient passes {limit} digits, the limit of integer string "
                                             f"conversion$"):
            parse_expr(R, text)
    for text in (f"10^{limit - 1}", f"-10^{limit - 1}*X", "7^3000*7^3000/7^3000", f"q/10^{limit - 1}"):
        e = parse_expr(R, text)
        assert parse_expr(R, e.render()) == e and repr(e)
    sys.set_int_max_str_digits(0)  # no limit: every value prints
    try:
        e = parse_expr(R, "q*10^-7177")
        assert parse_expr(R, e.render()) == e and len(e.render()) > 7177
    finally:
        sys.set_int_max_str_digits(limit)


def test_parse_reads_back_a_unit_monomial_past_the_power_guard():
    # a one-term base with coefficient +-1 writes no coefficient bits, so its
    # powers pass MAX_POWER_BITS; every other base keeps the guard
    R = ring(["v", "X"], {"v": "q"})
    for value in (R.monomial({"v": 10 ** 9}), R.monomial({"v": -10 ** 9 - 1, "X": 10 ** 9}, -1),
                  R.monomial({"X": 10 ** 9}, Fraction(-7, 3))):
        assert parse_expr(R, value.render()) == value, value.render()
    assert R.monomial({"v": 10 ** 9}).render() == "q^500000000"
    assert parse_expr(R, "(-q/X)^1000001") == R.monomial({"v": 2000002, "X": -1000001}, -1)
    for text in ("(2*q)^1000000", "(1/2)^1000000"):
        with pytest.raises(ValueError, match="-bit coefficients writes past"):
            parse_expr(R, text)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="Python before 3.10.7 has no digit limit")
def test_parse_refuses_an_exponent_it_cannot_print():
    # nested powers of a unit monomial multiply their exponents past the digit
    # limit, where no literal goes
    limit = sys.get_int_max_str_digits()
    R = ring(["v", "X"], {"v": "q"})
    with pytest.raises(ValueError, match=f"^an exponent passes {limit} digits, the limit of integer string "
                                         f"conversion$"):
        parse_expr(R, f"(X^{10 ** (limit // 2)})^{10 ** (limit // 2)}")
    e = parse_expr(R, f"(X^{10 ** (limit // 2)})^{10 ** (limit // 2 - 1)}")
    assert parse_expr(R, e.render()) == e


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="Python before 3.10.7 has no digit limit")
def test_repr_names_the_width_of_a_coefficient_str_refuses():
    # arithmetic, unlike parse_expr, can build a value whose coefficient str() refuses;
    # render() cannot carry it and raises, repr() gives the widest coefficient's bits
    from g2hecke.hecke import HeckeElement

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        R = ring(["v", "X"])
        big = R.const(7) ** 6000
        assert (7 ** 6000).bit_length() == 16845
        assert repr(big) == "<LaurentExpr with a 16845-bit coefficient>"
        assert repr(1 / (R.var("X") - big)) == "<RationalExpr with a 16845-bit coefficient>"
        h = HeckeElement(blocks._noncomm(1, 1), {(0, 0, 0): 7 ** 6000})
        assert repr(h) == "<HeckeElement with a 16845-bit coefficient>"
        for value in (big, big / 3, h):
            with pytest.raises(ValueError, match="^Exceeds the limit \\(4300 digits\\) for integer string conversion"):
                value.render()
        assert repr(big / 3) == "<LaurentExpr with a 16845-bit coefficient>"  # a Fraction: numerator and 2 bits
        assert repr(R.var("X") / 3 - 7) == "<LaurentExpr 1/3*X - 7>"  # a value that prints is unchanged
    finally:
        sys.set_int_max_str_digits(limit)


FUZZ_TOKENS = ["v", "X", "c", "q", "0", "1", "2", "3", "7", "10", "+", "-", "*", "/", "^", "(", ")", "^-", " "]


class _Slow(Exception):
    pass


def _too_slow(signum, frame):
    raise _Slow


def _parse_outcome(R, text):
    """The parsed value of ``text``, or the name of the error parsing it raised."""
    try:
        return parse_expr(R, text)
    except ZeroDivisionError:
        return "zero-division"
    except ValueError:
        return "refused"


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
def test_seeded_token_fuzz_of_the_parser():
    # texts of 1 to 24 tokens, joined without separators so that digits run
    # together ("10" "3" reads 103); each text parses or raises ValueError
    # (RingError among them) or ZeroDivisionError, within a time limit set in
    # process; a parsed value prints back to itself.  Among this seed's texts is
    # one whose value passes the digit limit of integer string conversion
    R = ring(["v", "X", "c"], {"v": "q"})
    rng = random.Random(1)
    outcomes = {"parsed": 0, "refused": 0, "zero-division": 0}
    previous = signal.signal(signal.SIGALRM, _too_slow)
    try:
        for _ in range(5000):
            text = "".join(rng.choice(FUZZ_TOKENS) for _ in range(rng.randint(1, 24)))
            signal.setitimer(signal.ITIMER_REAL, 2.0)
            try:
                e = _parse_outcome(R, text)
                if not isinstance(e, str):  # printing and parsing back may raise nothing
                    printed = e.render()
                    back = parse_expr(R, printed)
            except _Slow:
                pytest.fail(f"parsing {text!r} and printing it back took longer than 2 s")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            if isinstance(e, str):
                outcomes[e] += 1
                continue
            outcomes["parsed"] += 1
            assert back == e and back.render() == printed, text
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert outcomes["parsed"] > 100 and outcomes["zero-division"] > 10, outcomes


# valid names, names that do not read back as one token, and the empty name last
FUZZ_NAMES = ["v", "X", "c", "q", "t", "x_1", "é", "²", "a b", "2q", "٣", ""]


def _fuzz_exponent(rng):
    """A random exponent: mostly a small int, sometimes a large one, a bool, a float or a Fraction."""
    return rng.choice([rng.randint(-6, 6)] * 6 + [rng.randint(-10 ** 9, 10 ** 9), True, 1.0, Fraction(3, 2)])


def _fuzz_coefficient(rng):
    return rng.choice([rng.randint(-9, 9), rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                       rng.randint(-10 ** 30, 10 ** 30), False, True, 0.5])


def _fuzz_call(rng, names, aliases):
    """A random constructor call on a ring, as (kind, args), and what it must give:
    {exponent vector: coefficient}, or the error it must raise."""
    kind = rng.choice(["var", "mapping", "vector", "const"])
    coeff = 1 if kind == "var" else _fuzz_coefficient(rng)
    exps, wrong = [0] * len(names), False  # wrong: an unknown name or a vector of the wrong length
    if kind == "const":
        args, given = (coeff,), []
    elif kind == "vector":
        given = [_fuzz_exponent(rng) for _ in range(len(names) + rng.choice([0, 0, 0, -1, 1]))]
        args, exps, wrong = (given, coeff), given, len(given) != len(names)
    else:
        by_alias = {a: v for v, a in aliases.items()}
        pool = (names + list(by_alias)) * 3 + [n for n in FUZZ_NAMES if n not in names and n not in by_alias]
        mapping = {rng.choice(pool): _fuzz_exponent(rng) for _ in range(1 if kind == "var" else rng.randint(0, 3))}
        args, given = (mapping, coeff) if kind == "mapping" else next(iter(mapping.items())), list(mapping.values())
        for name, e in mapping.items():
            var, k = (by_alias[name], 2) if name in by_alias else (name, 1)
            if var in names and type(e) is int:
                exps[names.index(var)] += k * e
            wrong = wrong or var not in names
    if wrong or any(type(e) is not int for e in given):  # a bool or a float is no exponent
        return kind, args, RingError
    if type(coeff) is not int and not isinstance(coeff, Fraction):  # nor is it a coefficient
        return kind, args, TypeError
    return kind, args, ({tuple(exps): coeff} if coeff else {})


def _fuzz_value(rng, leaves, depth=3):
    """A random sum, difference, product or small power of leaves (value, model) and scalars,
    with its model: the value at a point, in Fraction."""
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.2:
            c = rng.choice([rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 3))])
            return c, lambda point: Fraction(c)
        return rng.choice(leaves)
    op = rng.choice(["+", "-", "*", "^"])
    a, fa = _fuzz_value(rng, leaves, depth - 1)
    if op == "^":
        # a negative power only of a nonzero single term, the one case a Laurent polynomial allows
        k = rng.randint(-2 if isinstance(a, LaurentExpr) and len(a.terms) == 1 else 0, 3)
        return a ** k, lambda point: fa(point) ** k
    b, fb = _fuzz_value(rng, leaves, depth - 1)
    f = {"+": operator.add, "-": operator.sub, "*": operator.mul}[op]
    return f(a, b), lambda point: f(fa(point), fb(point))


def test_seeded_fuzz_of_ring_declarations_and_constructors():
    # random declarations (duplicate, empty and colliding names included) and random
    # var/monomial/const calls: each builds exactly the expected single term, with an
    # alias exponent doubled and an integral coefficient stored as an int, or raises
    # RingError or TypeError; sums, products and small powers of the built values
    # agree with Python's own Fraction arithmetic at seeded integer points, and each
    # of them prints text that parses back to it
    rng = random.Random(7)
    counts = {"rings": 0, "refused rings": 0, "terms": 0, "RingError": 0, "TypeError": 0, "values": 0}
    for _ in range(400):
        names = rng.sample(FUZZ_NAMES[:-1], rng.randint(1, 4))
        if rng.random() < 0.25:  # a duplicate name, an empty one, or none at all
            names = rng.choice([names + names[:1], names + [""], []])
        free = [n for n in FUZZ_NAMES if n not in names]  # the empty name among them
        aliases = {rng.choice(names or FUZZ_NAMES): rng.choice(free if rng.random() < 0.8 else FUZZ_NAMES)
                   for _ in range(rng.choice([0, 1, 1, 2]))}
        valid = (names and len(set(names)) == len(names) and all(re.fullmatch(NAME, n) for n in names) and
                 len(set(aliases.values())) == len(aliases) and
                 all(v in names and re.fullmatch(NAME, a) and a not in names for v, a in aliases.items()))
        if not valid:
            with pytest.raises(RingError):
                ring(names, aliases)
            counts["refused rings"] += 1
            continue
        R = ring(names, aliases)
        counts["rings"] += 1
        leaves = []
        for _ in range(rng.randint(3, 12)):
            kind, args, expected = _fuzz_call(rng, names, aliases)
            method = {"var": R.var, "mapping": R.monomial, "vector": R.monomial, "const": R.const}[kind]
            if isinstance(expected, type):
                with pytest.raises(expected):
                    method(*args)
                counts[expected.__name__] += 1
                continue
            got = method(*args)
            assert isinstance(got, LaurentExpr) and got.ring is R and got.terms == expected, (kind, args)
            assert all(type(c) is int for c in got.terms.values() if Fraction(c).denominator == 1), (kind, args)
            counts["terms"] += 1
            assert parse_expr(R, got.render()) == got, (kind, args)
            if all(abs(k) <= 6 for e in expected for k in e):  # the points below are powered exactly
                leaves.append((got, lambda point, t=expected: sum(
                    c * prod(Fraction(x) ** k for x, k in zip(point, e)) for e, c in t.items())))
        for _ in range(4 if leaves else 0):
            value, model = _fuzz_value(rng, leaves)
            if isinstance(value, LaurentExpr):
                assert parse_expr(R, value.render()) == value, value.render()
            for _ in range(3):
                point = [rng.choice([-3, -2, -1, 1, 2, 3, 5]) for _ in names]
                got = _at(value, point) if isinstance(value, LaurentExpr) else Fraction(value)
                assert got == model(point)
            counts["values"] += 1
    assert min(counts.values()) > 50, counts


@pytest.mark.parametrize("exponent", [0.5, True, Fraction(1, 2), Fraction(2)])
def test_monomial_refuses_a_non_int_exponent(exponent):
    R = make_ring()
    with pytest.raises(RingError, match=f"^exponents must be int, not {type(exponent).__name__}$"):
        R.var("X", exponent)
    with pytest.raises(RingError):
        R.monomial((0, exponent))
    with pytest.raises(RingError):
        R.monomial({"q": exponent})


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


def _half_integer_labels(monkeypatch):
    half = Fraction(1, 2)
    return labels(MuFunction("long-I", (), (), ((-1, half, 1), (-1, half, -1))))


def _ambiguous_descriptor(monkeypatch):
    rows = blocks.table_rows("short-positive")
    monkeypatch.setattr(blocks, "table_rows", lambda family: [*rows, rows[0]])
    return blocks.classify(rows[0].descriptor)


@pytest.mark.parametrize(
    "call, expected",
    [
        # the polynomial-only early return that GCDHEU's trial division relies on
        (lambda mp: exactalg._poly_div_exact({(0,): 1, (1,): 1}, {(1,): 1, (2,): 1}), None),
        (lambda mp: ring(["v"], {"w": "q"}), (RingError, "unknown variable 'w'")),
        (lambda mp: make_ring().monomial((1,)), (RingError, "wrong length")),
        (lambda mp: make_ring().var("X") ** 1.5, (TypeError, "must be an integer")),
        (lambda mp: (1 + make_ring().var("X")) ** -1, (NonExactDivision, "non-monomial")),
        (_half_integer_labels, (PlancherelError, "not integer powers of q")),
        (lambda mp: RationalExpr(make_ring().zero(), make_ring().one()).is_zero(), True),
        (_ambiguous_descriptor, (blocks.BlocksError, r"ambiguous across rows \[1, 1\]")),
    ],
    ids=["div-bottom-degree", "alias-unknown", "vector-length", "float-power", "negative-power",
         "half-integer-labels", "rational-is-zero", "ambiguous-descriptor"],
)
def test_each_refusal_and_rare_answer(monkeypatch, call, expected):
    # branches no other test runs: each refusal must raise, each answer must hold
    if not isinstance(expected, tuple):
        assert call(monkeypatch) is expected
        return
    error, match = expected
    with pytest.raises(error, match=match):
        call(monkeypatch)
