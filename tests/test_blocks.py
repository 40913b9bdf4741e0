import json
from importlib import resources

import pytest

from g2hecke import blocks, rootdata
from g2hecke.blocks import (
    FAMILIES,
    BlockClassification,
    BlockDescriptor,
    BlocksError,
    check_ro_reduction,
    check_weyl_iso,
    classify,
    emit_table,
    render_text_table,
    table_rows,
)
from g2hecke.hecke import AffineHeckePresentation, RGroup, WeightFunction, check_lusztig
from g2hecke.plancherel import PlancherelCase, labels, mu

EXPECTED_ROW_COUNTS = {
    "long-depth-zero": 7,
    "long-positive": 6,
    "short-depth-zero": 4,
    "short-positive": 7,
}


def golden(family):
    path = resources.files("g2hecke").joinpath(f"data/tables/{family.replace('-', '_')}.json")
    with path.open() as f:
        return json.load(f)


@pytest.mark.parametrize("family", FAMILIES)
def test_emitted_tables_match_golden(family):
    assert emit_table(family) == golden(family)


@pytest.mark.parametrize("family", FAMILIES)
def test_row_counts(family):
    assert len(table_rows(family)) == EXPECTED_ROW_COUNTS[family]


def test_long_depth_zero_parameter_pattern():
    rows = table_rows("long-depth-zero")
    pairs = []
    for r in rows:
        p = r.classification.h_g
        pairs.append(p.weights.pair() if p.weights else None)
    assert pairs == [(3, 1), (2, 2), (1, 1), None, (1, 1), None, None]


def test_unknown_r_group_only_on_starred_rows():
    starred = {
        ("long-depth-zero", 4),
        ("long-depth-zero", 6),
        ("short-depth-zero", 2),
    }
    for fam in FAMILIES:
        for r in table_rows(fam):
            is_unknown = r.classification.r_o.state == "unknown"
            assert is_unknown == ((fam, r.index) in starred), (fam, r.index)


@pytest.mark.parametrize("family", FAMILIES)
def test_weyl_iso_and_ro_reduction_hold_on_every_row(family):
    for r in table_rows(family):
        assert check_weyl_iso(r.classification), (family, r.index)
        assert check_ro_reduction(r.classification), (family, r.index)


def test_weyl_iso_negative_control():
    base = table_rows("long-depth-zero")[0].classification
    mismatched = BlockClassification(
        base.w_o,
        base.r_o,
        base.w_o0,
        base.r_o0,
        base.xnr_order,
        base.h_g,
        AffineHeckePresentation(1, 2, WeightFunction.rank_one(2, 2), RGroup.trivial()),
        base.mu_case,
    )
    assert not check_weyl_iso(mismatched)


def test_ro_reduction_negative_control():
    base = table_rows("short-positive")[2].classification
    mismatched = BlockClassification(
        base.w_o,
        base.r_o,
        base.w_o0,
        RGroup.nontrivial(),
        base.xnr_order,
        base.h_g,
        base.h_g0,
        base.mu_case,
    )
    assert not check_ro_reduction(mismatched)
    unknown_pair = table_rows("long-depth-zero")[3].classification
    assert unknown_pair.r_o.state == "unknown" and check_ro_reduction(unknown_pair)


def test_lusztig_on_every_noncommutative_row():
    for fam in FAMILIES:
        for r in table_rows(fam):
            p = r.classification.h_g
            if p.weyl_order == 2:
                assert check_lusztig(p.weights), (fam, r.index)


def test_label_pipeline_agreement():
    # rows driven by a measure case: the frozen weights must equal what the
    # measure pipeline produces from the corresponding descriptor
    for fam in FAMILIES:
        for r in table_rows(fam):
            c = r.classification
            if c.mu_case is None:
                continue
            case = PlancherelCase.from_id(
                c.mu_case, residue_degree=r.descriptor.residue_degree
            )
            pipeline_pair = labels(mu(case)).pair()
            table_pair = c.h_g.weights.pair() if c.h_g.weights else (0, 0)
            assert pipeline_pair == table_pair, (fam, r.index)


def test_rank_one_constraint_on_emitted_rows():
    for fam in FAMILIES:
        for r in table_rows(fam):
            c = r.classification
            if c.w_o == "order-2":
                assert c.r_o.state == "trivial"


def test_equal_labels_except_the_one_unequal_row():
    # the only noncommutative row with lambda != lambda* is the first
    # long depth-zero one, with (3, 1)
    unequal = []
    for fam in FAMILIES:
        for r in table_rows(fam):
            w = r.classification.h_g.weights
            if w is not None and w.pair()[0] != w.pair()[1]:
                unequal.append((fam, r.index, w.pair()))
    assert unequal == [("long-depth-zero", 1, (3, 1))]


def test_xnr_order_follows_ramification():
    for fam in FAMILIES:
        for r in table_rows(fam):
            assert r.classification.xnr_order == 2 // r.descriptor.ramification_index


def test_classify_examples():
    c = classify(
        BlockDescriptor(
            "long", "depth-zero", "G", "unramified",
            omega_ramified=False, chi_cubic=True, chi2chiprime_ramified=False,
        )
    )
    assert c.w_o == "order-2" and c.r_o.state == "trivial" and c.xnr_order == 2
    assert c.h_g.weights.pair() == (3, 1)

    c = classify(
        BlockDescriptor("short", "depth-zero", "G", "unramified", omega_ramified=True)
    )
    assert c.w_o == "trivial" and c.r_o.state == "unknown"
    assert c.h_g.weyl_order == 1 and c.h_g.r_group.state == "unknown"

    c = classify(
        BlockDescriptor(
            "short", "positive-depth", "U_pi(1,1)", "ramified",
            phi0_restriction="sign-character", phi1_trivial=False,
        )
    )
    assert c.w_o == "trivial" and c.r_o.state == "nontrivial"


def test_classify_is_total_and_injective_on_canonical_descriptors():
    for fam in FAMILIES:
        for r in table_rows(fam):
            c = classify(r.descriptor)
            assert c == r.classification


def test_classify_rejects_incoherent_descriptor():
    with pytest.raises(BlocksError):
        classify(
            BlockDescriptor(
                "short", "positive-depth", "U_pi(1,1)", "ramified",
                phi0_restriction="sign-character", phi1_trivial=True,
            )
        )
    with pytest.raises(BlocksError):
        BlockDescriptor("short", "depth-zero", "M0=M", "unramified")
    with pytest.raises(BlocksError):
        BlockDescriptor(
            "short", "depth-zero", "G", "unramified",
            omega_ramified=False, chi_cubic=True,
        )


def test_classify_requires_good_residual_characteristic(monkeypatch):
    d = BlockDescriptor("short", "depth-zero", "G", "unramified", omega_ramified=False)
    with pytest.raises(BlocksError) as exc:
        classify(d, assume_good_residual_char=False)
    assert str(exc.value) == "classification data assumes residual characteristic not in {2, 3}"
    # the refused characteristics are read off the G2 datum
    monkeypatch.setattr(blocks, "bad_primes", lambda datum: {2, 3, 5})
    with pytest.raises(BlocksError) as exc:
        classify(d, assume_good_residual_char=False)
    assert str(exc.value).endswith("not in {2, 3, 5}")
    # and only the refusal builds the datum: a cold table build needs none

    def no_datum(*args, **kwargs):
        raise AssertionError("a root datum was built")

    monkeypatch.setattr(rootdata.BasedRootDatum, "__init__", no_datum)
    monkeypatch.setattr(blocks, "_CACHE", {})
    for family in FAMILIES:
        assert emit_table(family) == golden(family)


def test_both_phi0_rows_match_any_restriction():
    for phi0 in ("trivial", "sign-character", "other-nontrivial"):
        c = classify(
            BlockDescriptor(
                "long", "positive-depth", "chain", "ramified",
                phi0_restriction=phi0, phi1_trivial=False,
            )
        )
        assert c.h_g.weyl_order == 1 and c.r_o.state == "trivial"


def test_text_rendering_mirrors_layout():
    text = render_text_table("long-depth-zero")
    lines = text.splitlines()
    assert len(lines) == 2 + 7
    assert "non-comm, q^3, q" in text
    assert "*" in text
    text_pos = render_text_table("short-positive")
    assert "T_alpha,pi'" in text_pos and "(M0,M,G)" in text_pos
