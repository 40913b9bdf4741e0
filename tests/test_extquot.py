import random
from fractions import Fraction

import pytest

from g2hecke import extquot
from g2hecke.cli import _matching_corpus, _oracle_sweep
from g2hecke.extquot import (
    ExtQuotError,
    ExtQuotPoint,
    FiniteOrbitModel,
    check_property,
    crossed_product_irr_count,
    depth_zero_transfer,
    extended_quotient,
    matching_bijection,
    torsion_model,
)


def test_three_point_example():
    # Z/2 fixing one point of three, swapping the other two
    m = torsion_model(3, "inversion", offset=0)  # 0 fixed, 1 <-> 2
    eq = extended_quotient(m)
    assert len(eq) == 3
    assert sum(1 for p in eq if p.representative == 0) == 2
    assert sum(1 for p in eq if p.representative == 1) == 1
    assert crossed_product_irr_count(m) == 3


def test_trivial_symmetry_counts_points():
    m = torsion_model(5, "trivial")
    assert len(extended_quotient(m)) == 5
    assert crossed_product_irr_count(m) == 5


def test_free_involution_on_two_points():
    m = torsion_model(2, "shift-half")  # 0 <-> 1, free
    assert len(extended_quotient(m)) == 1
    assert crossed_product_irr_count(m) == 1


def test_exhaustive_sweep_oracle_equality_and_closed_form():
    for _, m in _oracle_sweep(8):
        eq = len(extended_quotient(m))
        cp = crossed_product_irr_count(m)
        assert eq == cp, m
        if m.gamma is not None:
            k = sum(1 for p in m.points if m.gamma[p] == p)
            free = (m.size - k) // 2
            assert eq == 2 * k + free, m


def dense_center_dim(m):
    """Center dimension of Fun(X) x| Gamma by dense Gaussian elimination.

    The reference for the union-find count: the kernel of z -> z*b - b*z
    over every basis element b, with the full dim x dim system over Q.
    """
    group = [0] if m.gamma is None else [0, 1]

    def act(g, x):
        return x if g == 0 else m.gamma[x]

    basis = [(x, g) for x in m.points for g in group]
    index = {b: i for i, b in enumerate(basis)}
    dim = len(basis)

    def mult(a, b):
        (x, g), (y, h) = a, b
        if x != act(g, y):
            return None
        return (x, (g + h) % 2 if len(group) == 2 else 0)

    rows = []
    for b in basis:
        row_block = [[Fraction(0)] * dim for _ in range(dim)]
        for a in basis:
            left = mult(a, b)
            if left is not None:
                row_block[index[left]][index[a]] += 1
            right = mult(b, a)
            if right is not None:
                row_block[index[right]][index[a]] -= 1
        rows.extend(r for r in row_block if any(r))

    r = 0
    for c in range(dim):
        sel = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return dim - r


def test_crossed_product_count_matches_dense_rank():
    for label, m in _oracle_sweep(12):
        assert crossed_product_irr_count(m) == dense_center_dim(m), label


def test_crossed_product_count_reads_no_extended_quotient(monkeypatch):
    # the oracle is independent: it never reads the route it checks
    def refuse(m):
        raise AssertionError("the oracle read the extended quotient")

    monkeypatch.setattr(extquot, "extended_quotient", refuse)
    monkeypatch.setattr(extquot, "_quotient_pairs", refuse)
    for label, m in _oracle_sweep(8):
        assert crossed_product_irr_count(m) == dense_center_dim(m), label


def test_crossed_product_count_scales():
    # 800 basis elements; the dense elimination above grows as their cube
    m = torsion_model(400, "inversion", offset=2)
    fixed = sum(1 for p in m.points if m.gamma[p] == p)
    assert fixed == 2
    assert crossed_product_irr_count(m) == 2 * fixed + (400 - fixed) // 2


def test_output_independent_of_point_ordering():
    base = FiniteOrbitModel(
        [0, 1, 2, 3], {0: 1, 1: 2, 2: 3, 3: 0}, {0: 0, 1: 3, 2: 2, 3: 1}
    )
    shuffled = FiniteOrbitModel(
        [3, 1, 0, 2], {0: 1, 1: 2, 2: 3, 3: 0}, {0: 0, 1: 3, 2: 2, 3: 1}
    )
    a = {(p.representative, p.irrep_label) for p in extended_quotient(base)}
    b = {(p.representative, p.irrep_label) for p in extended_quotient(shuffled)}
    assert a == b


def test_model_validation():
    with pytest.raises(ExtQuotError):
        FiniteOrbitModel([0, 1], {0: 0, 1: 1}, None)  # not a single cycle
    with pytest.raises(ExtQuotError):
        FiniteOrbitModel([0, 1, 2], {0: 1, 1: 2, 2: 0}, {0: 1, 1: 2, 2: 0})  # order 3
    with pytest.raises(ExtQuotError, match="involution"):
        # order 4, and gamma t gamma = t^3 = t^-1: only the involution check refuses it
        FiniteOrbitModel([0, 1, 2, 3], {i: (i + 1) % 4 for i in range(4)}, {i: (i + 1) % 4 for i in range(4)})
    with pytest.raises(ExtQuotError):
        FiniteOrbitModel([0, 1, 2, 3], {0: 1, 1: 0, 2: 3, 3: 2}, None)  # two cycles
    with pytest.raises(ExtQuotError):
        # involution that does not normalize the translations
        FiniteOrbitModel(
            [0, 1, 2, 3, 4], {i: (i + 1) % 5 for i in range(5)}, {0: 0, 1: 2, 2: 1, 3: 3, 4: 4}
        )


@pytest.mark.parametrize("n", [True, 4.0], ids=["bool", "float"])
def test_torsion_model_takes_only_an_int_level(n):
    # True == 1 would build a one-point model, and 4.0 would reach range()
    with pytest.raises(ExtQuotError):
        torsion_model(n)


@pytest.mark.parametrize(
    "points, translation",
    [([[0]], {}), ([0, {1: 1}], {0: 0}), ([0, 0], {0: 0}), ([0, "a"], {0: "a", "a": 0}), ([None], {None: None})],
    ids=["list-label", "dict-label", "repeated", "unordered", "one-unordered"],
)
def test_model_rejects_bad_point_labels(points, translation):
    # the library constructor refuses these like from_json does, without a raw TypeError;
    # a lone label is compared with itself, or None would reach the quotient's p <= gamma(p)
    with pytest.raises(ExtQuotError):
        FiniteOrbitModel(points, translation)


def test_json_round_trip():
    m = torsion_model(6, "inversion", offset=2)
    again = FiniteOrbitModel.from_json(m.to_json())
    assert again.points == m.points
    assert again.translation == m.translation
    assert again.gamma == m.gamma


def test_check_property_identity_and_offset_maps():
    m1 = torsion_model(6, "inversion")
    m2 = torsion_model(6, "inversion", offset=2)
    identity = {x: x for x in range(6)}
    assert check_property(m1, m1, identity)
    # constant offset by c conjugates inversion offset 0 into offset 2c
    offset_map = {x: (x + 1) % 6 for x in range(6)}
    assert check_property(m1, m2, offset_map)
    # the same offset map into the unshifted model breaks equivariance
    verdict = check_property(m1, m1, offset_map)
    assert not verdict and verdict.reason == "symmetry equivariance fails"
    bad = {x: (2 * x) % 6 for x in range(6)}
    assert not check_property(m1, m1, bad)


def test_matching_bijection_and_refusal():
    m1 = torsion_model(6, "inversion")
    m2 = torsion_model(6, "inversion", offset=2)
    offset_map = {x: (x + 1) % 6 for x in range(6)}
    pairs = matching_bijection(m1, m2, offset_map)
    assert len(pairs) == len(extended_quotient(m1)) == len(extended_quotient(m2))
    with pytest.raises(ExtQuotError):
        matching_bijection(m1, m1, offset_map)
    # gamma trivial on both sides: the pairing is the map itself on points
    t1, t2 = torsion_model(4, "trivial"), torsion_model(4, "trivial")
    shift = {x: (x + 3) % 4 for x in range(4)}
    pairs = matching_bijection(t1, t2, shift)
    assert {(p.representative, q.representative) for p, q in pairs} == {
        (x, (x + 3) % 4) for x in range(4)
    }


def test_matching_on_the_three_point_model():
    # both sides the 3-point model with one fixed point: 3 <-> 3 pairing
    m1 = torsion_model(3, "inversion", offset=0)
    m2 = torsion_model(3, "inversion", offset=0)
    pairs = matching_bijection(m1, m2, {x: x for x in range(3)})
    assert len(pairs) == 3
    # inverse composition is the identity
    fwd = {(p.representative, p.irrep_label): (q.representative, q.irrep_label) for p, q in pairs}
    bwd = {v: k for k, v in fwd.items()}
    assert all(bwd[fwd[k]] == k for k in fwd)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matching_and_transfer_differ_only_in_their_refusals(seed):
    # check pairs each good map once, through matching_bijection; the depth-zero
    # transfer must give the same pairs and refuse the same maps, in its own words
    refusals = {matching_bijection: "refusing to construct the matching: ", depth_zero_transfer: "transfer rejected: "}
    corpus = _matching_corpus(seed)
    assert len(corpus) >= 50
    for m1, m2, good in corpus:
        assert matching_bijection(m1, m2, good) == depth_zero_transfer(m1, m2, good)
        if m1.size < 3:
            continue  # every bijection of two points is equivariant
        bad = dict(good)
        bad[0], bad[1] = good[1], good[0]
        verdict = check_property(m1, m2, bad)
        assert not verdict
        for construct, prefix in refusals.items():
            with pytest.raises(ExtQuotError) as caught:
                construct(m1, m2, bad)
            assert str(caught.value) == prefix + verdict.reason


def test_depth_zero_transfer_preserves_cardinality():
    rng = random.Random(99)
    for n in range(2, 13):
        for kind, offset in [("inversion", 0), ("inversion", 1), ("trivial", 0)]:
            m_g = torsion_model(n, kind, offset=offset)
            m_g0 = torsion_model(n, kind, offset=offset)
            identity = {x: x for x in range(n)}
            pairs = depth_zero_transfer(m_g, m_g0, identity)
            assert len(pairs) == len(extended_quotient(m_g))
            # non-equivariant injections must be rejected
            if n > 2:
                perm = list(range(n))
                rng.shuffle(perm)
                bad = {x: perm[x] for x in range(n)}
                if check_property(m_g, m_g0, bad):
                    continue  # the shuffle accidentally landed on an equivariance
                with pytest.raises(ExtQuotError):
                    depth_zero_transfer(m_g, m_g0, bad)


def test_property_verdict_carries_witness():
    m = torsion_model(4, "inversion")
    bad = {0: 0, 1: 2, 2: 1, 3: 3}
    verdict = check_property(m, m, bad)
    assert not verdict
    assert verdict.witness is not None


def reference_quotient(m):
    """The extended quotient by the orbit/stabilizer route, as (rep, index) pairs.

    Orbits are collected from the sorted points, each represented by its
    minimum; a stabilizer of order 2 gives two characters.
    """
    seen, out = set(), []
    for p in sorted(m.points):
        if p in seen:
            continue
        orbit = {p, p if m.gamma is None else m.gamma[p]}
        seen |= orbit
        rep = min(orbit)
        stabilizer = 2 if m.gamma is not None and m.gamma[rep] == rep else 1
        out += [(rep, i) for i in range(stabilizer)]
    return out


def relabelled(m, label, order=None):
    """The model m with point p renamed label(p), its points listed in ``order``."""
    points = [label(p) for p in (order or m.points)]
    gamma = None if m.gamma is None else {label(p): label(q) for p, q in m.gamma.items()}
    return FiniteOrbitModel(points, {label(p): label(q) for p, q in m.translation.items()}, gamma)


def regression_models():
    rng = random.Random(5)
    for label, m in _oracle_sweep(12):
        yield label, m
        order = list(m.points)
        rng.shuffle(order)
        yield label + ("shuffled",), relabelled(m, lambda p: p, order)
        # "p10" sorts before "p2", so representatives move with the labels
        yield label + ("strings",), relabelled(m, lambda p: f"p{p}", order)


def test_quotient_and_count_match_the_references():
    for label, m in regression_models():
        got = [(p.representative, p.irrep_label) for p in extended_quotient(m)]
        assert got == reference_quotient(m), label
        assert crossed_product_irr_count(m) == dense_center_dim(m), label


def test_matching_wraps_each_pair_once(monkeypatch):
    # the pairing works on plain pairs and builds records only for what it returns
    m1 = torsion_model(12, "inversion")
    m2 = torsion_model(12, "inversion", offset=4)
    shift = {x: (x + 2) % 12 for x in range(12)}
    size = len(extended_quotient(m1))
    built = []
    honest = ExtQuotPoint.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        honest(self, *args, **kwargs)

    monkeypatch.setattr(ExtQuotPoint, "__init__", counted)
    pairs = matching_bijection(m1, m2, shift)
    assert len(pairs) == size
    assert len(built) == 2 * size


def test_a_target_short_of_one_point_is_not_a_bijection(monkeypatch):
    m1 = torsion_model(6, "inversion")
    m2 = torsion_model(6, "inversion", offset=2)
    shift = {x: (x + 1) % 6 for x in range(6)}
    honest = extquot._quotient_pairs
    monkeypatch.setattr(extquot, "_quotient_pairs", lambda m: honest(m)[:-1] if m is m2 else honest(m))
    with pytest.raises(ExtQuotError, match="transfer is not a bijection onto the target"):
        matching_bijection(m1, m2, shift)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FiniteOrbitModel([], {}), "a model needs at least one point"),
        (lambda: torsion_model(5, "shift-half"), "shift-half needs an even torsion level"),
        (lambda: torsion_model(4, "bogus"), "unknown symmetry kind 'bogus'"),
        # check_property returns its verdict; matching_bijection raises on it
        (
            lambda: matching_bijection(torsion_model(4), torsion_model(2), {0: 0, 1: 1, 2: 0, 3: 1}),
            "refusing to construct the matching: models have different sizes",
        ),
        (
            lambda: matching_bijection(torsion_model(2), torsion_model(2, "identity"), {0: 0, 1: 1}),
            "refusing to construct the matching: symmetry groups have different orders",
        ),
    ],
    ids=["no-points", "odd-shift-half", "unknown-symmetry", "sizes-differ", "symmetry-orders-differ"],
)
def test_library_refusals(build, message):
    with pytest.raises(ExtQuotError) as err:
        build()
    assert str(err.value) == message
