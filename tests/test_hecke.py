import inspect
import random
from fractions import Fraction

import pytest

from g2hecke import hecke
from g2hecke.exactalg import exact_div
from g2hecke.hecke import (
    COEFF_RING,
    AffineHeckePresentation,
    HeckeElement,
    HeckeError,
    RGroup,
    WeightFunction,
    basis_element,
    check_lusztig,
    multiply,
    verify_relations,
)

TABLE_PAIRS = [(0, 0), (1, 1), (2, 2), (3, 1)]
# lam_star = 0 < lam and lam = 0 < lam_star, where a pair of the terms of g
# cancels in the product, and more pairs that no golden table row has
MORE_PAIRS = [(2, 0), (6, 0), (0, 2), (4, 2), (3, 3), (5, 1)]
# (M^2, M) with M = 2^10: the run that check makes for every pair but (0, 0)
GENERIC = hecke._GENERIC_PAIR
M = GENERIC[1]


def pres(lam, lam_star):
    return AffineHeckePresentation(WeightFunction(lam, lam_star), RGroup.trivial())


def qpow(k):
    return COEFF_RING.monomial({"v": 2 * k})


def commutation_coefficient(lam, lam_star):
    """g = q^lam - 1 + X^-1 (v^(lam+lam*) - v^(lam-lam*)), built in the (v, X) ring."""
    R = COEFF_RING
    diff = R.monomial({"v": lam + lam_star}) - R.monomial({"v": lam - lam_star})
    return qpow(lam) - R.one() + R.var("X") ** -1 * diff


def test_quadratic_product_lambda_3():
    p = pres(3, 1)
    got = multiply(basis_element(p, 0, 1), basis_element(p, 0, 1))
    assert got == HeckeElement(p, {(0, 1, 6): 1, (0, 1, 0): -1, (0, 0, 6): 1})


def test_quadratic_product_lambda_0_group_algebra():
    p = pres(0, 0)
    assert multiply(basis_element(p, 0, 1), basis_element(p, 0, 1)) == basis_element(p, 0, 0)


@pytest.mark.parametrize("y", [1, -1, 2, -2, 3, -3])
@pytest.mark.parametrize("pair", TABLE_PAIRS)
def test_theta_commutation_matches_independent_expansion(pair, y):
    # oracle: assemble the commutation coefficient directly in the (v, X) ring
    # and push a generator through, without using the product routine
    p = pres(*pair)
    Ts = basis_element(p, 0, 1)
    commutator = multiply(basis_element(p, y, 0), Ts) - multiply(Ts, basis_element(p, -y, 0))

    R = COEFF_RING
    X, one_ = R.var("X"), R.one()
    quot = exact_div(X ** y - X ** -y, one_ - X ** -2)
    expected_poly = commutation_coefficient(*pair) * quot
    vi, xi = R.index["v"], R.index["X"]
    assert commutator.terms == {(e[xi], 0, e[vi]): c for e, c in expected_poly.terms.items()}


def basic_representation(p):
    """The action of p on Laurent polynomials in X, built on exactalg.

    theta_x multiplies by X^x and T_s f = q^lam s(f) + g (f - s(f)) / (1 - X^-2),
    where s inverts X.
    """
    lam, lam_star = p.weights.pair()
    X, one_ = COEFF_RING.var("X"), COEFF_RING.one()
    g = commutation_coefficient(lam, lam_star)

    def act(h, f):
        sf = f.invert_variable("X")
        t_f = qpow(lam) * sf + g * exact_div(f - sf, one_ - X ** -2)
        out = COEFF_RING.zero()
        for (x, w, e), c in h.terms.items():
            out = out + COEFF_RING.monomial({"v": e, "X": x}, c) * (t_f if w else f)
        return out

    return act


def first_representation_mismatch(p, mul, products=60, seed=0):
    """First seeded (a, b, f) with rep(mul(a, b)) f != rep(a) rep(b) f, or None.

    Every operator commutes with the symmetric Laurent polynomials, over which
    the Laurent polynomials are free on {1, X}, so f runs over those two.
    """
    rng = random.Random(seed)
    act = basic_representation(p)

    def random_element():
        e = HeckeElement(p, {})
        for _ in range(rng.randint(1, 2)):
            scalar = rng.choice([1, -1, 2, Fraction(1, 2), Fraction(-3, 5)])
            ve = rng.randint(-2, 2)
            e = e + HeckeElement(p, {(rng.randint(-3, 3), rng.choice((0, 1)), ve): scalar})
        return e

    for _ in range(products):
        a, b = random_element(), random_element()
        ab = mul(a, b)
        for f in (COEFF_RING.one(), COEFF_RING.var("X")):
            if act(ab, f) != act(a, act(b, f)):
                return a, b, f
    return None


def with_lambda_star(lam_star):
    """A product that multiplies with the wrong lam_star and relabels the result."""

    def mul(a, b):
        wrong = pres(a.pres.weights.pair()[0], lam_star)
        product = multiply(HeckeElement(wrong, a.terms), HeckeElement(wrong, b.terms))
        return HeckeElement(a.pres, product.terms)

    return mul


def fresh_table(monkeypatch):
    """An empty product table, so entries are built from the rules as patched."""
    monkeypatch.setattr(hecke, "_TABLE", hecke._ProductTable())


def negate_rule_sign(monkeypatch):
    """Flip the sign of the X-shift of every term of g."""
    fresh_table(monkeypatch)
    monkeypatch.setattr(hecke, "_G", tuple((-s, i, j, sign) for s, i, j, sign in hecke._G))


def swap_labels(monkeypatch):
    """Swap the powers i, j of lam and lam_star in every term of g."""
    fresh_table(monkeypatch)
    monkeypatch.setattr(hecke, "_G", tuple((s, j, i, sign) for s, i, j, sign in hecke._G))


def product_under(patch):
    """The product with ``_G`` patched by ``patch`` for the one call."""

    def mul(a, b):
        with pytest.MonkeyPatch.context() as mp:
            patch(mp)
            return multiply(a, b)

    return mul


rule_sign_flipped = product_under(negate_rule_sign)
# at (2, 2) the swap changes nothing, so it is run where lam != lam_star
labels_swapped = product_under(swap_labels)


WRONG_PRODUCTS = pytest.mark.parametrize(
    "pair, mul",
    [
        ((1, 1), rule_sign_flipped),
        ((2, 2), rule_sign_flipped),
        ((3, 1), rule_sign_flipped),
        ((3, 1), with_lambda_star(2)),
        ((3, 1), with_lambda_star(3)),
        ((1, 1), with_lambda_star(0)),
        ((2, 2), with_lambda_star(0)),
        (GENERIC, rule_sign_flipped),
        (GENERIC, with_lambda_star(M + 2)),
        (GENERIC, with_lambda_star(0)),
        (GENERIC, with_lambda_star(M * M)),
        ((3, 1), labels_swapped),
        (GENERIC, labels_swapped),
    ],
    ids=[
        "rule-sign-1-1", "rule-sign-2-2", "rule-sign-3-1",
        "3-2-as-3-1", "3-3-as-3-1", "1-0-as-1-1", "2-0-as-2-2",
        "rule-sign-generic", "generic-lam-star-plus-2", "generic-lam-star-0", "generic-lam-star-lam",
        "i-j-swap-3-1", "i-j-swap-generic",
    ],
)


@pytest.mark.parametrize("pair", TABLE_PAIRS + MORE_PAIRS)
def test_products_match_basic_representation(pair):
    assert first_representation_mismatch(pres(*pair), multiply) is None


@WRONG_PRODUCTS
def test_basic_representation_catches_wrong_products(pair, mul):
    assert first_representation_mismatch(pres(*pair), mul) is not None


@WRONG_PRODUCTS
def test_verify_relations_sees_wrong_products(monkeypatch, pair, mul):
    # the T_s1 quadratic relation is where a wrong lam_star shows, and the
    # faithful polynomial representation sees every wrong product
    monkeypatch.setattr(hecke, "multiply", mul)
    rep = verify_relations(pres(*pair), 1)
    failed = {c.name for c in rep.failures}
    assert "quadratic-s1" in failed
    assert "representation" in failed


def test_length_additive_t_products():
    p = pres(2, 2)
    assert multiply(basis_element(p, 0, 0), basis_element(p, 0, 1)) == basis_element(p, 0, 1)
    assert multiply(basis_element(p, 0, 1), basis_element(p, 0, 0)) == basis_element(p, 0, 1)
    assert multiply(basis_element(p, 2, 0), basis_element(p, -5, 0)) == basis_element(p, -3, 0)


# check's hecke detail string lists these names, so a change to them is deliberate
HARNESS_CHECKS = ["quadratic-s1", "group-algebra-degeneration", "representation"]


@pytest.mark.parametrize("pair", TABLE_PAIRS + MORE_PAIRS)
def test_verify_relations_all_pairs(pair):
    rep = verify_relations(pres(*pair), 3)
    assert rep.ok, rep.summary()
    assert [c.name for c in rep.checks] == HARNESS_CHECKS


def test_group_algebra_degeneration_sees_a_wrong_constant_term(constant_term_flipped):
    # at q = 1 the coefficient g is 2, not 0, so the product is no longer
    # the group algebra's
    rep = verify_relations(pres(3, 1), 3)
    failed = {c.name: c.detail for c in rep.failures}
    assert set(failed) == {"quadratic-s1", "group-algebra-degeneration", "representation"}
    assert failed["group-algebra-degeneration"] == "q->1 failed on (0, 1)*(-3, 0)"


def test_verify_relations_reports_sabotage(monkeypatch):
    negate_rule_sign(monkeypatch)
    rep = verify_relations(pres(1, 1), 2)
    assert not rep.ok
    assert any(c.name == "representation" for c in rep.failures)


def mutated_multiply(old, new):
    """``multiply`` compiled from its own source with ``old`` replaced by ``new``."""
    source = inspect.getsource(hecke.multiply)
    assert source.count(old) == 1
    namespace = dict(vars(hecke))
    exec(source.replace(old, new), namespace)
    return namespace["multiply"]


@pytest.mark.parametrize(
    "old, new",
    [("c1 * c2", "c1 // c2"), ("sign * c", "sign // c"), ("key = x + y, u, e", "key = x + y, u, e1")],
    ids=["c1-floordiv-c2", "sign-floordiv-c", "w0-drops-right-v-power"],
)
@pytest.mark.parametrize("pair", TABLE_PAIRS)
def test_representation_sees_a_product_that_mishandles_coefficients(monkeypatch, pair, old, new):
    # on coefficients +-1 the floor-division mutants agree with the product, and
    # the third drops the right operand's v-power only where w = 0, which basis
    # pairs do not carry: only the representation check's 3 v^d operands show
    # all three on every pair
    monkeypatch.setattr(hecke, "multiply", mutated_multiply(old, new))
    rep = verify_relations(pres(*pair), 1)
    assert "representation" in {c.name for c in rep.failures}


@pytest.mark.parametrize("pair", TABLE_PAIRS)
def test_quadratic_s1_alone_sees_a_product_that_keeps_a_zero_term(monkeypatch, pair):
    # a zero coefficient left in the product of operands with several terms:
    # the T_s1 relation multiplies such operands, and the basis products of
    # the other checks have one term each
    honest = hecke.multiply

    def mul(a, b):
        product = honest(a, b)
        if len(a.terms) > 1 or len(b.terms) > 1:
            product.terms.setdefault((0, 0, 0), 0)
        return product

    monkeypatch.setattr(hecke, "multiply", mul)
    rep = verify_relations(pres(*pair), 3)
    assert [c.name for c in rep.failures] == ["quadratic-s1"]


@pytest.mark.parametrize("pair", TABLE_PAIRS)
def test_group_algebra_degeneration_alone_sees_a_wrong_specialization(monkeypatch, pair):
    # v^e is added to each coefficient instead of multiplied into it: only the
    # q -> 1 check specializes v
    def added(self, value):
        out: dict = {}
        for (x, w, e), c in self.terms.items():
            out[x, w] = out.get((x, w), 0) + c + Fraction(value) ** e
        return {k: c for k, c in out.items() if c}

    monkeypatch.setattr(HeckeElement, "specialize_v", added)
    rep = verify_relations(pres(*pair), 3)
    assert [c.name for c in rep.failures] == ["group-algebra-degeneration"]


def test_representation_sees_a_product_wrong_only_off_x_zero(monkeypatch):
    # (q - 1) theta_{x+y} added where x = 3 and w = 1: invisible at q = 1 and
    # away from x = 0, so only the x-shift comparison sees it
    honest = hecke.multiply

    def mul(a, b):
        product = honest(a, b)
        if (3, 1, 0) in a.terms and len(a.terms) == len(b.terms) == 1:
            (y, _, _), = b.terms
            product = product + HeckeElement(a.pres, {(3 + y, 0, 2): 1, (3 + y, 0, 0): -1})
        return product

    monkeypatch.setattr(hecke, "multiply", mul)
    rep = verify_relations(pres(3, 1), 3)
    assert [c.name for c in rep.failures] == ["representation"]
    assert "x-shift" in rep.failures[0].detail


def test_representation_sees_a_product_that_drops_right_v_powers(monkeypatch):
    # basis pairs carry no v-power, so on them this product is right; the
    # v-power operands of representation and the T_s1 relation see it
    honest = hecke.multiply

    def mul(a, b):
        dropped: dict = {}
        for (y, u, _), c in b.terms.items():
            dropped[y, u, 0] = dropped.get((y, u, 0), 0) + c
        return honest(a, HeckeElement(b.pres, dropped))

    monkeypatch.setattr(hecke, "multiply", mul)
    rep = verify_relations(pres(3, 1), 3)
    assert {c.name for c in rep.failures} == {"quadratic-s1", "representation"}


def test_generic_exponents_stay_far_from_a_collision(monkeypatch):
    # the generic run checks every pair only while each v-exponent it meets is
    # k + i lam + j lam_star with |j|, |k| < M/2, so that it decodes as one
    # monomial; a harness that reaches wider exponents must fail here
    assert GENERIC == (M * M, M)
    seen = {"multiply": set(), "act": set(), "t_s": set()}

    def keep(out, at, source):
        seen[source].update(key[at] for key in out)
        return out

    honest_mul, honest_act, honest_op = hecke.multiply, hecke._act, hecke._demazure_lusztig

    def mul(a, b):
        product = honest_mul(a, b)
        keep(product.terms, 2, "multiply")
        return product

    def demazure_lusztig(p, quotients):
        t_s = honest_op(p, quotients)
        return lambda vec: keep(t_s(vec), 1, "t_s")

    monkeypatch.setattr(hecke, "multiply", mul)
    monkeypatch.setattr(hecke, "_act", lambda terms, images: keep(honest_act(terms, images), 1, "act"))
    monkeypatch.setattr(hecke, "_demazure_lusztig", demazure_lusztig)
    for bound in (3, 8):
        assert verify_relations(pres(*GENERIC), bound).ok
    assert all(seen.values())
    digits = set()
    for e in set().union(*seen.values()):
        k = (e + M // 2) % M - M // 2
        j = ((e - k) // M + M // 2) % M - M // 2
        digits.add(((e - k - j * M) // (M * M), j, k))
    # the ranges measured at bounds 3 and 32
    assert {i for i, _, _ in digits} <= set(range(-1, 5))
    assert {j for _, j, _ in digits} <= set(range(-2, 3))
    assert {k for _, _, k in digits} <= {-1, 0, 1}


def test_verify_relations_over_a_trivial_finite_part():
    p = AffineHeckePresentation(None, RGroup.trivial())
    rep = verify_relations(p, 3)
    assert rep.ok, rep.summary()
    assert [c.name for c in rep.checks] == HARNESS_CHECKS
    # there is no T_s1 there, so the relation check says it compared nothing
    details = {c.name: c.detail for c in rep.checks}
    assert details["quadratic-s1"] == "trivial finite part"


def test_product_uses_the_one_closed_form(monkeypatch):
    # negate every sign of the closed form; a product carrying its own copy of
    # it would pass both the representation check and the T_s1 relation
    honest = hecke._commutation_quotient
    fresh_table(monkeypatch)
    monkeypatch.setattr(hecke, "_commutation_quotient", lambda y: [(k, -s) for k, s in honest(y)])
    assert first_representation_mismatch(pres(3, 1), multiply) is not None
    rep = verify_relations(pres(3, 1), 3)
    failed = {c.name for c in rep.failures}
    assert "quadratic-s1" in failed
    assert "representation" in failed


def count_products(monkeypatch, p, bound):
    calls = []
    honest = hecke.multiply

    def counted(a, b):
        calls.append(1)
        return honest(a, b)

    monkeypatch.setattr(hecke, "multiply", counted)
    assert verify_relations(p, bound).ok
    return len(calls)


@pytest.mark.parametrize("pair", TABLE_PAIRS)
def test_verify_relations_forms_core_products_once(monkeypatch, pair):
    # one product for each of the 196 basis pairs, shared by the q -> 1 check
    # and the representation check (off x = 0 its right operand carries
    # 3 v^+-1); the T_s1 relation takes 2
    assert count_products(monkeypatch, pres(*pair), 3) == 196 + 2


@pytest.mark.parametrize(
    "pair, bound, products",
    [(pair, 1, 36 + 2) for pair in TABLE_PAIRS] + [(None, 1, 9), (None, 3, 49)],
)
def test_verify_relations_forms_one_product_per_basis_pair(monkeypatch, pair, bound, products):
    # (2b + 1)^2 basis pairs for each (w, u), and the T_s1 relation's 2; a
    # trivial finite part has one (w, u) and no T_s1
    p = AffineHeckePresentation(None, RGroup.trivial()) if pair is None else pres(*pair)
    assert count_products(monkeypatch, p, bound) == products


@pytest.mark.parametrize("bound", [1, 3, 8])
def test_verify_relations_divides_once_per_exponent(monkeypatch, bound):
    calls = []
    honest = hecke.exact_div

    def counted(f, g):
        calls.append(1)
        return honest(f, g)

    monkeypatch.setattr(hecke, "exact_div", counted)
    for pair in TABLE_PAIRS:
        calls.clear()
        assert verify_relations(pres(*pair), bound).ok
        assert len(calls) <= 2 * bound + 3


@pytest.mark.parametrize("bound", [1, 3, 8])
def test_first_verify_relations_divides_exactly_once_per_exponent(monkeypatch, bound):
    # with no kept divisions, the first call divides once for each |k| <= b + 1
    monkeypatch.setattr(hecke, "_QUOTIENTS", {})
    calls = []
    honest = hecke.exact_div

    def counted(f, g):
        calls.append(1)
        return honest(f, g)

    monkeypatch.setattr(hecke, "exact_div", counted)
    assert verify_relations(pres(3, 1), bound).ok
    assert len(calls) == 2 * bound + 3


def test_verify_relations_reuses_the_divisions_of_the_process(monkeypatch):
    # D(k) does not depend on the presentation: once a call has divided for
    # every |k| <= b + 1, another call at the same bound divides nothing
    assert verify_relations(pres(3, 1), 3).ok
    calls = []
    honest = hecke.exact_div

    def counted(f, g):
        calls.append(1)
        return honest(f, g)

    monkeypatch.setattr(hecke, "exact_div", counted)
    assert verify_relations(pres(2, 2), 3).ok
    assert calls == []


def test_kept_divisions_are_bounded_and_exact():
    assert verify_relations(pres(1, 1), hecke.MAX_DEGREE_BOUND).ok
    kept = hecke._QUOTIENTS
    assert len(kept) <= 2 * hecke.MAX_DEGREE_BOUND + 3 == 67
    X, one_ = COEFF_RING.var("X"), COEFF_RING.one()
    xi = COEFF_RING.index["X"]
    for k, d in kept.items():
        assert abs(k) <= hecke.MAX_DEGREE_BOUND + 1
        fresh = exact_div(X ** k - X ** -k, one_ - X ** -2)
        assert d == {e[xi]: c for e, c in fresh.terms.items()}, k


def test_warm_divisions_still_catch_a_wrong_closed_form(monkeypatch):
    # the kept divisions come from exact division, so they cannot hide a
    # sabotaged closed form
    assert verify_relations(pres(3, 1), 3).ok
    honest = hecke._commutation_quotient
    fresh_table(monkeypatch)
    monkeypatch.setattr(hecke, "_commutation_quotient", lambda y: [(k, -s) for k, s in honest(y)])
    failed = {c.name for c in verify_relations(pres(3, 1), 3).failures}
    assert {"quadratic-s1", "representation"} <= failed


def random_pairs(p, seed, count=40):
    """Seeded pairs of elements over p with up to three terms each."""
    rng = random.Random(seed)

    def element():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            key = rng.randint(-4, 4), rng.choice((0, 1)), rng.randint(-3, 3)
            terms[key] = terms.get(key, 0) + rng.choice([1, -2, Fraction(3, 2)])
        return HeckeElement(p, terms)

    return [(element(), element()) for _ in range(count)]


def test_product_tables_of_interleaved_presentations_agree_with_fresh_ones():
    # one table serves every presentation; products over (1, 1), (3, 1) and
    # (1, 1) again, interleaved, equal those over fresh presentations
    first, second = pres(1, 1), pres(3, 1)
    work = {0: first, 1: second, 2: first}
    pairs = {seed: random_pairs(p, seed) for seed, p in work.items()}
    interleaved = {seed: [] for seed in work}
    for i in range(40):
        for seed in work:
            a, b = pairs[seed][i]
            interleaved[seed].append(multiply(a, b).terms)
    for seed, p in work.items():
        fresh = [multiply(a, b).terms for a, b in random_pairs(pres(*p.weights.pair()), seed)]
        assert interleaved[seed] == fresh


def test_equal_but_distinct_presentations_give_equal_products():
    a, b = pres(3, 1), pres(3, 1)
    assert a == b and a is not b
    over_a = [multiply(x, y) for x, y in random_pairs(a, 5)]
    over_b = [multiply(x, y) for x, y in random_pairs(b, 5)]
    assert [x.terms for x in over_a] == [x.terms for x in over_b]
    assert all(x.pres is b for x in over_b)


@pytest.mark.parametrize("bound, calls", [(1, 6), (3, 14), (8, 34)])
def test_verify_relations_takes_each_quotient_once_per_table_entry(monkeypatch, bound, calls):
    # one call per (y, u) entry the products reach; the 38, 198 and 1,158
    # products of each pair add none, and the entries serve every pair
    seen = []
    honest = hecke._commutation_quotient

    def counted(y):
        seen.append(y)
        return honest(y)

    fresh_table(monkeypatch)
    monkeypatch.setattr(hecke, "_commutation_quotient", counted)
    for pair in TABLE_PAIRS:
        assert verify_relations(pres(*pair), bound).ok
        assert len(seen) == calls


def test_verify_relations_reports_sabotaged_quotient(monkeypatch):
    honest = hecke._commutation_quotient
    fresh_table(monkeypatch)
    monkeypatch.setattr(hecke, "_commutation_quotient", lambda y: honest(y)[1:])
    rep = verify_relations(pres(3, 1), 2)
    failed = {c.name for c in rep.failures}
    assert "quadratic-s1" in failed
    assert "representation" in failed


def test_q_to_one_specialization_is_group_algebra():
    p = pres(3, 1)
    for x, w in [(2, 1), (-1, 0), (0, 1)]:
        for y, u in [(1, 1), (3, 0)]:
            prod = multiply(basis_element(p, x, w), basis_element(p, y, u))
            y_moved = y if w == 0 else -y
            assert prod.specialize_v(1) == {(x + y_moved, (w + u) % 2): 1}


def test_specialize_v_leaves_out_cancelled_coefficients():
    p = pres(1, 1)
    h = HeckeElement(p, {(0, 1, 2): 1, (0, 1, 0): -1, (1, 0, -1): Fraction(1, 2)})
    assert h.specialize_v(1) == {(1, 0): Fraction(1, 2)}
    assert h.specialize_v(2) == {(0, 1): 3, (1, 0): Fraction(1, 4)}
    assert h.specialize_v(Fraction(1, 2)) == {(0, 1): Fraction(-3, 4), (1, 0): 1}
    # repeated exponents over different basis vectors, one of them cancelling
    r = HeckeElement(p, {(0, 0, 2): 3, (1, 1, 2): -1, (1, 1, 0): 4, (2, 0, 2): 5, (2, 0, -2): -80})
    assert r.specialize_v(2) == {(0, 0): 12}
    half = {(0, 0): Fraction(3, 4), (1, 1): Fraction(15, 4), (2, 0): Fraction(-1275, 4)}
    assert r.specialize_v(Fraction(-1, 2)) == half
    assert all(type(c) is int for c in r.specialize_v(-2).values())


@pytest.mark.parametrize(
    "value, want",
    [
        (2, {(0, 1): 3, (1, 0): Fraction(3, 2), (2, 0): Fraction(1), (3, 1): Fraction(-1, 4), (4, 0): Fraction(1)}),
        (-3, {(0, 1): 8, (1, 0): Fraction(-1), (2, 0): Fraction(-8, 27), (3, 1): Fraction(-1, 9),
              (4, 0): Fraction(-3, 2)}),
        (Fraction(2, 3), {(0, 1): Fraction(-5, 9), (1, 0): Fraction(9, 2), (2, 0): Fraction(27),
                          (3, 1): Fraction(-9, 4), (4, 0): Fraction(1, 3)}),
    ],
)
def test_specialize_v_keeps_values_and_types_over_negative_exponents(value, want):
    # negative v-exponents divide exactly: an int power stays int, a quotient that
    # is not integral becomes a Fraction, and sums keep the type Python gives them
    h = HeckeElement(pres(3, 1), {(0, 1, 2): 1, (0, 1, 0): -1, (1, 0, -1): 3, (2, 0, -3): 8, (3, 1, -2): -1,
                                  (4, 0, 1): Fraction(1, 2)})
    got = h.specialize_v(value)
    assert got == want
    assert {k: type(c) for k, c in got.items()} == {k: type(c) for k, c in want.items()}


def test_specialize_v_at_zero_is_an_error():
    h = HeckeElement(pres(1, 1), {(0, 0, 0): 1, (1, 0, -1): 2})
    for zero in (0, Fraction(0)):
        with pytest.raises(HeckeError):
            h.specialize_v(zero)


@pytest.mark.parametrize("value", [0.1, 1.0, "1/3", True, None], ids=["float", "integral-float", "str", "bool", "none"])
def test_specialize_v_takes_only_int_or_fraction(value):
    # the rule the constructor applies to coefficients; Fraction(0.1) would
    # silently give the binary value of the float
    h = HeckeElement(pres(1, 1), {(0, 0, 0): 1, (1, 0, -1): 2})
    with pytest.raises(HeckeError):
        h.specialize_v(value)


def test_operators_refuse_operands_that_are_neither_elements_nor_scalars():
    p = pres(1, 1)
    e = HeckeElement(p, {(0, 1, 0): 1, (1, 0, 2): Fraction(1, 2)})
    for op in (
        lambda: e * 0.5, lambda: 0.5 * e, lambda: e * True, lambda: e * "2",
        lambda: e + 1, lambda: 1 + e, lambda: e - 1, lambda: 1 - e, lambda: e + None,
    ):
        with pytest.raises(TypeError):
            op()
    # scalars are int or Fraction, on either side, and two elements multiply
    assert e * 2 == 2 * e == e + e
    assert e * e == multiply(e, e) and e * e != e * 2
    assert (Fraction(1, 2) * e).terms == {(0, 1, 0): Fraction(1, 2), (1, 0, 2): Fraction(1, 4)}
    assert e - e == HeckeElement(p, {})


@pytest.mark.parametrize(
    "terms",
    [
        {(0, 0, 0): 0.5},
        {(0, 2, 0): 1},
        {(0.5, 0, 0): 1},
        {(0, 0, 1.5): 1},
        {(True, 0, 0): 1},
        {(0, 0, 0): True},
        {(Fraction(1), 0, 0): 1},
        {(0, True, 0): 1},
        {(0, 0): 1},
        {5: 1},
    ],
    ids=[
        "float-coefficient", "w-2", "float-lattice-point", "float-v-exponent",
        "bool-lattice-point", "bool-coefficient", "fraction-lattice-point", "bool-weyl-component",
        "short-key", "non-tuple-key",
    ],
)
def test_element_rejects_bad_terms(terms):
    with pytest.raises(HeckeError):
        HeckeElement(pres(1, 1), terms)


def test_rank_restrictions():
    # the lattice is rank 1 by construction, and the finite Weyl part has order
    # 2 exactly when there are weights: no other order can be given or set
    assert pres(1, 1).weyl_order == 2
    assert AffineHeckePresentation(None, RGroup.trivial()).weyl_order == 1
    with pytest.raises(HeckeError, match="^no reflection basis vector over a trivial finite part$"):
        basis_element(AffineHeckePresentation(None, RGroup.trivial()), 0, 1)
    with pytest.raises(TypeError):
        AffineHeckePresentation(3, WeightFunction(1, 1), RGroup.trivial())
    with pytest.raises(AttributeError):
        pres(1, 1).weyl_order = 3


@pytest.mark.parametrize(
    "build",
    [
        lambda: WeightFunction(True, False),
        lambda: verify_relations(pres(1, 1), True),
        lambda: verify_relations(pres(1, 1), 2.0),
    ],
    ids=["bool-weights", "bool-bound", "float-bound"],
)
def test_only_ints_are_labels_and_bounds(build):
    # True == 1 and 2.0 == 2, so the range tests alone would take them
    with pytest.raises(HeckeError):
        build()


def test_presentation_invariants():
    with pytest.raises(HeckeError):
        WeightFunction(-1, 0)
    with pytest.raises(HeckeError):
        WeightFunction(1.5, 0.5)
    with pytest.raises(HeckeError):
        RGroup("twisted")


def test_presentation_equality_contract():
    a = pres(3, 1)
    assert a == pres(3, 1) and a is not pres(3, 1)
    assert a != pres(2, 2)
    commutative = AffineHeckePresentation(None, RGroup.trivial())
    crossed_unknown = AffineHeckePresentation(None, RGroup.unknown())
    assert commutative != crossed_unknown
    assert crossed_unknown == AffineHeckePresentation(None, RGroup.unknown())
    # elements over equal but distinct presentations compare by their terms
    theta_1 = basis_element(a, 1, 0)
    assert theta_1 == basis_element(pres(3, 1), 1, 0) and theta_1 != basis_element(pres(2, 2), 1, 0)


def test_mixed_presentation_arithmetic_rejected():
    with pytest.raises(HeckeError):
        multiply(basis_element(pres(1, 1), 0, 1), basis_element(pres(2, 2), 0, 1))


def test_lusztig_membership(golden_label_pairs):
    assert golden_label_pairs == {(1, 1), (2, 2), (3, 1)}
    assert check_lusztig(WeightFunction(3, 1), golden_label_pairs)
    assert check_lusztig(WeightFunction(2, 2), golden_label_pairs)
    assert not check_lusztig(WeightFunction(0, 0), golden_label_pairs)
    assert not check_lusztig(WeightFunction(4, 2), golden_label_pairs)
    assert check_lusztig(WeightFunction(4, 2), allowed={(4, 2)})
    # any collection of pairs will do, and a frozenset of tuples is used as it is
    assert check_lusztig(WeightFunction(4, 2), allowed=[[4, 2]])
    assert check_lusztig(WeightFunction(4, 2), allowed=frozenset({(4, 2)}))
    assert not check_lusztig(WeightFunction(3, 1), allowed=iter([[4, 2]]))
    # the set is required: the package holds no default copy of the label column
    with pytest.raises(TypeError):
        check_lusztig(WeightFunction(3, 1))


def test_render_element_grammar():
    p = pres(1, 1)
    e = multiply(basis_element(p, 0, 1), basis_element(p, 0, 1))
    s = e.render()
    assert "theta[0]*T[]" in s and "theta[0]*T[0]" in s
