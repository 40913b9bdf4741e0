"""Acceptance suite: one test per criterion, one pass/fail line each.

Every expected value here is exact; runtime budgets are asserted where the
criterion states one.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time
from importlib import resources

from g2hecke.blocks import FAMILIES, check_weyl_iso, emit_table, table_rows
from g2hecke.cli import _matching_corpus, _oracle_sweep
from g2hecke.extquot import (
    check_property,
    crossed_product_irr_count,
    depth_zero_transfer,
    extended_quotient,
    matching_bijection,
    ExtQuotError,
)
from g2hecke.hecke import (
    AffineHeckePresentation,
    RGroup,
    WeightFunction,
    check_lusztig,
    verify_relations,
)
from g2hecke.plancherel import PlancherelCase, labels, mu
from g2hecke.rootdata import bad_primes, g2_datum, generate_weyl


def _report(number: int, title: str, started: float, budget: float | None):
    elapsed = time.monotonic() - started
    line = f"[PASS] criterion {number}: {title} ({elapsed:.2f}s)"
    print(line)
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_table_reproduction():
    t0 = time.monotonic()
    counts = {}
    for family in FAMILIES:
        emitted = emit_table(family)
        path = resources.files("g2hecke").joinpath(
            f"data/tables/{family.replace('-', '_')}.json"
        )
        with path.open() as f:
            golden = json.load(f)
        assert emitted == golden, f"{family} differs from golden"
        counts[family] = len(emitted["rows"])
    assert counts == {
        "long-depth-zero": 7,
        "long-positive": 6,
        "short-depth-zero": 4,
        "short-positive": 7,
    }
    # parameter patterns of the long depth-zero family, as printed
    pairs = [
        r.classification.h_g.weight_pair() for r in table_rows("long-depth-zero")
    ]
    assert pairs == [(3, 1), (2, 2), (1, 1), None, (1, 1), None, None]
    # unknown R-group exactly on the starred rows
    starred = {("long-depth-zero", 4), ("long-depth-zero", 6), ("short-depth-zero", 2)}
    for fam in FAMILIES:
        for r in table_rows(fam):
            assert (r.classification.r_o.state == "unknown") == ((fam, r.index) in starred)
    _report(1, "four families regenerate the golden tables exactly", t0, 1.0)


def test_criterion_2_label_pipeline():
    t0 = time.monotonic()
    expected = {
        ("long-I", 2): (3, 1),
        ("long-II", 2): (2, 2),
        ("long-III", 2): (1, 1),
        ("long-IV", 2): (0, 0),
        ("short-I", 2): (1, 1),
        ("short-II", 2): (0, 0),
    }
    for (case_id, f), want in expected.items():
        got = labels(mu(PlancherelCase(case_id, residue_degree=f))).pair()
        assert got == want, f"{case_id}: {got} != {want}"
    _report(2, "labels(mu(case)) gives (3,1),(2,2),(1,1),(0,0) / (1,1),(0,0)", t0, 1.0)


def test_criterion_3_weyl_iso_and_ro_reduction():
    t0 = time.monotonic()
    for family in FAMILIES:
        for r in table_rows(family):
            c = r.classification
            assert check_weyl_iso(c), (family, r.index)
            assert c.r_o == c.r_o0 and c.w_o == c.w_o0, (family, r.index)
    _report(3, "presentation equality and R/W reduction hold on every row", t0, 1.0)


def test_criterion_4_lusztig_membership(golden_label_pairs):
    t0 = time.monotonic()
    checked = 0
    for family in FAMILIES:
        for r in table_rows(family):
            p = r.classification.h_g
            if p.weyl_order == 2:
                assert check_lusztig(p.weights, golden_label_pairs), (family, r.index)
                checked += 1
    assert checked >= 8
    _report(4, f"all {checked} noncommutative rows pass the weight membership", t0, None)


def test_criterion_5_hecke_relations():
    t0 = time.monotonic()
    for lam, lam_star in [(0, 0), (1, 1), (2, 2), (3, 1)]:
        pres = AffineHeckePresentation(WeightFunction(lam, lam_star), RGroup.trivial())
        report = verify_relations(pres, degree_bound=3)
        assert report.ok, report.summary()
        rep = next(c for c in report.checks if c.name == "representation")
        assert rep.detail == "196 pairs"
    _report(5, "relation suite clean for (0,0),(1,1),(2,2),(3,1) at bound 3", t0, 30.0)


def test_criterion_6_extended_quotient_oracle():
    t0 = time.monotonic()
    models = 0
    for label, m in _oracle_sweep(8):
        models += 1
        eq = len(extended_quotient(m))
        assert eq == crossed_product_irr_count(m), label
        if m.gamma is not None:
            k = sum(1 for p in m.points if m.gamma[p] == p)
            assert eq == 2 * k + (m.size - k) // 2, label
    _report(6, f"quotient count = crossed-product count on all {models} models", t0, 30.0)


def test_criterion_7_matching_theorems():
    t0 = time.monotonic()
    import random

    corpus = _matching_corpus(seed=0)
    assert len(corpus) >= 50
    rng = random.Random(1234)
    rejected = 0
    for m1, m2, good in corpus:
        assert check_property(m1, m2, good)
        pairs = matching_bijection(m1, m2, good)
        assert len(pairs) == len(extended_quotient(m1)) == len(extended_quotient(m2))
        transfer = depth_zero_transfer(m1, m2, good)
        assert len(transfer) == len(extended_quotient(m1))
        n = m1.size
        if n >= 3:
            perm = list(range(n))
            for _ in range(100):
                rng.shuffle(perm)
                bad = {x: perm[x] for x in range(n)}
                if not check_property(m1, m2, bad):
                    break
            else:
                raise AssertionError(f"check_property accepted 100 random maps on {m1}")
            for construct in (matching_bijection, depth_zero_transfer):
                try:
                    construct(m1, m2, bad)
                    raise AssertionError(f"non-equivariant map accepted on {m1}")
                except ExtQuotError:
                    rejected += 1
    assert rejected >= 50
    _report(
        7,
        f"{len(corpus)} paired models matched; {rejected} bad maps rejected",
        t0,
        30.0,
    )


def test_criterion_8_g2_sanity():
    t0 = time.monotonic()
    d = g2_datum()
    assert len(d.positive_roots) == 6
    assert d.pairing((1, 0), (1, 0)) == 2
    assert d.pairing((0, 1), (0, 1)) == 6
    assert d.pairing((1, 0), (0, 1)) == -3
    assert len(generate_weyl(d)) == 12
    assert bad_primes(d) == {2, 3}
    _report(8, "G2 datum: 6 positive roots, pairings (2,6,-3), |W| = 12, bad {2,3}", t0, None)
