import itertools
import json
from importlib import resources

import pytest

from g2hecke import blocks, rootdata
from g2hecke.blocks import (
    FAMILIES,
    BlockClassification,
    BlockDescriptor,
    BlocksError,
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
        c = r.classification
        assert check_weyl_iso(c), (family, r.index)
        assert c.r_o == c.r_o0 and c.w_o == c.w_o0, (family, r.index)


def test_weyl_iso_negative_control():
    # an H(G^0) with other labels: W_O and R(O) still agree on both sides
    base = table_rows("long-depth-zero")[0].classification
    mismatched = BlockClassification(
        base.h_g,
        AffineHeckePresentation(WeightFunction(2, 2), RGroup.trivial()),
        base.xnr_order,
        base.mu_case,
    )
    assert not check_weyl_iso(mismatched)
    assert mismatched.r_o == mismatched.r_o0 and mismatched.w_o == mismatched.w_o0


def test_ro_reduction_negative_control():
    # an H(G^0) that is a crossed product with a nontrivial R-group under C[O]:
    # R(O) and W_O are read off the presentations, so weyl-iso sees the mismatch
    base = table_rows("short-positive")[2].classification
    assert base.h_g == base.h_g0 == AffineHeckePresentation(None, RGroup.trivial())
    mismatched = BlockClassification(
        base.h_g,
        AffineHeckePresentation(None, RGroup.nontrivial()),
        base.xnr_order,
        base.mu_case,
    )
    assert mismatched.r_o0 == RGroup.nontrivial() and mismatched.w_o0 == mismatched.w_o
    assert mismatched.r_o != mismatched.r_o0
    assert not check_weyl_iso(mismatched)
    unknown_pair = table_rows("long-depth-zero")[3].classification
    assert unknown_pair.r_o.state == "unknown" and unknown_pair.r_o == unknown_pair.r_o0
    assert check_weyl_iso(unknown_pair)


def test_lusztig_on_every_noncommutative_row(golden_label_pairs):
    for fam in FAMILIES:
        for r in table_rows(fam):
            p = r.classification.h_g
            if p.weyl_order == 2:
                assert check_lusztig(p.weights, golden_label_pairs), (fam, r.index)


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
            "long", "G", "unramified",
            omega_ramified=False, chi_cubic=True, chi2chiprime_ramified=False,
        )
    )
    assert c.w_o == "order-2" and c.r_o.state == "trivial" and c.xnr_order == 2
    assert c.h_g.weights.pair() == (3, 1)

    c = classify(
        BlockDescriptor("short", "G", "unramified", omega_ramified=True)
    )
    assert c.w_o == "trivial" and c.r_o.state == "unknown"
    assert c.h_g.weyl_order == 1 and c.h_g.r_group.state == "unknown"

    c = classify(
        BlockDescriptor(
            "short", "U_pi(1,1)", "ramified",
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
                "short", "U_pi(1,1)", "ramified",
                phi0_restriction="sign-character", phi1_trivial=True,
            )
        )
    with pytest.raises(BlocksError):
        BlockDescriptor(
            "short", "G", "unramified",
            omega_ramified=False, chi_cubic=True,
        )


def test_classify_requires_good_residual_characteristic(monkeypatch):
    d = BlockDescriptor("short", "G", "unramified", omega_ramified=False)
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
                "long", "chain", "ramified",
                phi0_restriction=phi0, phi1_trivial=False,
            )
        )
        assert c.h_g.weyl_order == 1 and c.r_o.state == "trivial"


def test_depth_class_is_read_off_g0():
    depth = {
        "G": "depth-zero",
        "M0=M": "essentially-depth-zero",
        **dict.fromkeys(("U_eps(1,1)", "U_pi(1,1)", "torus", "chain"), "positive-depth"),
    }
    for g0_kind, depth_class in depth.items():
        d = BlockDescriptor("short", g0_kind, "ramified")
        assert d.depth_class == depth_class
        assert list(d.to_json())[:3] == ["root_kind", "depth_class", "g0_kind"]
        assert d.to_json()["depth_class"] == depth_class


def test_text_rendering_mirrors_layout():
    text = render_text_table("long-depth-zero")
    lines = text.splitlines()
    assert len(lines) == 2 + 7
    assert "non-comm, q^3, q" in text
    assert "*" in text
    text_pos = render_text_table("short-positive")
    assert "T_alpha,pi'" in text_pos and "(M0,M,G)" in text_pos


# Every value each BlockDescriptor field accepts, in field order.
DESCRIPTOR_FIELD_VALUES = (
    ("long", "short"),
    ("G", "M0=M", "U_eps(1,1)", "U_pi(1,1)", "torus", "chain"),
    ("ramified", "unramified"),
    (None, False, True),
    (None, False, True),
    (None, False, True),
    (None, "trivial", "sign-character", "other-nontrivial", "both"),
    (None, False, True),
)

_CHAIN_PHI0 = ("trivial", "sign-character", "other-nontrivial", "both")

# The 36 valid descriptors that classify, with the (family, index) of their row.
CLASSIFIED_DESCRIPTORS = {
    ("long", "depth-zero", "G", "unramified", False, False, None, None, None): ("long-depth-zero", 5),
    ("long", "depth-zero", "G", "unramified", False, True, False, None, None): ("long-depth-zero", 1),
    ("long", "depth-zero", "G", "unramified", False, True, True, None, None): ("long-depth-zero", 3),
    ("long", "depth-zero", "G", "unramified", True, False, None, None, None): ("long-depth-zero", 6),
    ("long", "depth-zero", "G", "unramified", True, True, False, None, None): ("long-depth-zero", 2),
    ("long", "depth-zero", "G", "unramified", True, True, True, None, None): ("long-depth-zero", 4),
    ("long", "essentially-depth-zero", "M0=M", "unramified", True, None, None, None, None): ("long-depth-zero", 7),
    ("long", "positive-depth", "U_eps(1,1)", "unramified", None, None, None, "trivial", True): ("long-positive", 4),
    ("long", "positive-depth", "U_pi(1,1)", "ramified", None, None, None, "sign-character", False): ("long-positive", 1),
    ("long", "positive-depth", "torus", "ramified", None, None, None, "other-nontrivial", True): ("long-positive", 2),
    ("long", "positive-depth", "torus", "unramified", None, None, None, "other-nontrivial", True): ("long-positive", 5),
    **{("long", "positive-depth", "chain", "ramified", None, None, None, phi0, False): ("long-positive", 3)
       for phi0 in _CHAIN_PHI0},
    **{("long", "positive-depth", "chain", "unramified", None, None, None, phi0, False): ("long-positive", 6)
       for phi0 in _CHAIN_PHI0},
    ("short", "depth-zero", "G", "unramified", False, None, None, None, None): ("short-depth-zero", 1),
    ("short", "depth-zero", "G", "unramified", True, None, None, None, None): ("short-depth-zero", 2),
    ("short", "essentially-depth-zero", "M0=M", "unramified", False, None, None, None, None): ("short-depth-zero", 3),
    ("short", "essentially-depth-zero", "M0=M", "unramified", True, None, None, None, None): ("short-depth-zero", 4),
    ("short", "positive-depth", "U_eps(1,1)", "unramified", None, None, None, "trivial", True): ("short-positive", 5),
    ("short", "positive-depth", "U_pi(1,1)", "ramified", None, None, None, "trivial", True): ("short-positive", 1),
    ("short", "positive-depth", "U_pi(1,1)", "ramified", None, None, None, "sign-character", False): ("short-positive", 2),
    ("short", "positive-depth", "torus", "ramified", None, None, None, "other-nontrivial", True): ("short-positive", 3),
    ("short", "positive-depth", "torus", "unramified", None, None, None, "other-nontrivial", True): ("short-positive", 6),
    **{("short", "positive-depth", "chain", "ramified", None, None, None, phi0, False): ("short-positive", 4)
       for phi0 in _CHAIN_PHI0},
    **{("short", "positive-depth", "chain", "unramified", None, None, None, phi0, False): ("short-positive", 7)
       for phi0 in _CHAIN_PHI0},
}


def test_classify_on_every_valid_descriptor():
    valid = []
    for values in itertools.product(*DESCRIPTOR_FIELD_VALUES):
        try:
            valid.append(BlockDescriptor(*values))
        except BlocksError:
            pass
    assert len(valid) == 768
    found, unmatched = {}, 0
    for d in valid:
        try:
            c = classify(d)
        except BlocksError as e:
            assert str(e).startswith("descriptor matches no table row"), str(e)
            unmatched += 1
            continue
        (row,) = [r for r in table_rows(d.family) if r.matches(d)]
        assert row.classification == c
        found[tuple(d.to_json().values())] = (row.family, row.index)
    assert unmatched == 732
    assert found == CLASSIFIED_DESCRIPTORS


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: table_rows("bogus"), f"unknown family 'bogus'; choose from {FAMILIES}"),
        (lambda: BlockDescriptor("medium", "G", "unramified"), "bad root kind 'medium'"),
        (lambda: BlockDescriptor("long", "GL2", "unramified"), "bad twisted Levi kind 'GL2'"),
        (lambda: BlockDescriptor("long", "G", "wild"), "bad extension kind 'wild'"),
        (
            lambda: BlockDescriptor("long", "torus", "unramified", phi0_restriction="cubic"),
            "bad phi_0 restriction 'cubic'",
        ),
        (
            lambda: BlockClassification(
                AffineHeckePresentation(WeightFunction(1, 1), RGroup.nontrivial()), blocks._C_O, 1
            ),
            "an order-2 Weyl part forces a trivial R-group in rank 1",
        ),
    ],
    ids=["family", "root-kind", "g0-kind", "L-over-F", "phi0-restriction", "order-2-with-R-group"],
)
def test_library_refusals(build, message):
    with pytest.raises(BlocksError) as err:
        build()
    assert str(err.value) == message
