import json

import pytest

from g2hecke.rootdata import RootDatumError, affine_mul, bad_primes, g2_datum, generate_weyl


def _perm_closure_order(datum):
    """Independent group-order oracle: close the root permutations induced by
    the simple reflections, never touching matrices or words."""
    roots = list(datum.roots)
    index = {r: i for i, r in enumerate(roots)}
    gens = []
    for m in datum.simple_reflections():
        gens.append(tuple(index[tuple(sum(m[i][j] * r[j] for j in range(datum.rank)) for i in range(datum.rank))] for r in roots))
    identity = tuple(range(len(roots)))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[i] for i in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def test_g2_positive_roots_and_pairings():
    d = g2_datum()
    assert len(d.positive_roots) == 6
    alpha, beta = (1, 0), (0, 1)
    assert d.pairing(alpha, alpha) == 2
    assert d.pairing(beta, beta) == 6
    assert d.pairing(alpha, beta) == -3


def test_g2_weyl_group_order_12():
    d = g2_datum()
    W = generate_weyl(d)
    assert len(W) == 12
    assert max(w.length for w in W) == 6
    # oracle: closure of the induced root permutations
    assert _perm_closure_order(d) == 12


def test_g2_longest_element_is_minus_one():
    d = g2_datum()
    W = generate_weyl(d)
    w0 = max(W, key=lambda w: w.length)
    assert w0.matrix == ((-1, 0), (0, -1))


def test_bad_primes():
    assert bad_primes(g2_datum()) == {2, 3}
    from g2hecke.rootdata import BasedRootDatum

    weird = BasedRootDatum(("a",), [(1,)], [[2]], "H3?")
    with pytest.raises(RootDatumError):
        bad_primes(weird)


def test_length_changes_by_one_under_simple_reflection():
    d = g2_datum()
    W = generate_weyl(d)
    by_matrix = {w.matrix: w for w in W}
    gens = d.simple_reflections()
    for w in W:
        for g in gens:
            m = tuple(
                tuple(sum(g[i][k] * w.matrix[k][j] for k in range(2)) for j in range(2))
                for i in range(2)
            )
            sw = by_matrix[m]
            assert abs(sw.length - w.length) == 1


def test_reflection_fixes_wall_and_negates_root():
    d = g2_datum()
    for gamma in d.positive_roots:
        m = d.reflection_matrix(gamma)
        img = tuple(sum(m[i][j] * gamma[j] for j in range(2)) for i in range(2))
        assert img == tuple(-x for x in gamma)
        # any vector with <x, gamma^> = 0 is fixed; build one explicitly
        a, b = d.coroot_pairing((1, 0), gamma), d.coroot_pairing((0, 1), gamma)
        x = (b.numerator * a.denominator, -a.numerator * b.denominator)
        fixed = tuple(sum(m[i][j] * x[j] for j in range(2)) for i in range(2))
        assert fixed == x


def test_invalid_datum_rejected():
    from g2hecke.rootdata import BasedRootDatum

    with pytest.raises(RootDatumError):
        BasedRootDatum(("a", "b"), [(1, 0), (0, 1), (1, 2)], [[2, -1], [-1, 2]], "A2?")


def test_json_round_trip_is_stable():
    d = g2_datum()
    blob = json.dumps(d.to_json(), sort_keys=True)
    assert json.loads(blob)["positive_roots"] == [[1, 0], [0, 1], [1, 1], [2, 1], [3, 1], [3, 2]]


def test_affine_mul_group_law():
    identity, s0, s1 = (0, 1), (0, -1), (1, -1)
    elements = [(n, s) for n in range(-4, 5) for s in (1, -1)]
    for a in elements:
        for b in elements:
            for c in elements:
                assert affine_mul(affine_mul(a, b), c) == affine_mul(a, affine_mul(b, c))
    assert affine_mul(s0, s0) == affine_mul(s1, s1) == identity
    # s1 s0 is the unit translation
    assert affine_mul(s1, s0) == (1, 1)
