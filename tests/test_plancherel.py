import itertools

import pytest

from g2hecke.blocks import FAMILIES, table_rows
from g2hecke.exactalg import eval_unit_circle_zeros
from g2hecke.plancherel import (
    CASE_IDS,
    W_ORDER_2,
    W_TRIVIAL,
    MU_RING,
    PlancherelCase,
    PlancherelError,
    case_of,
    labels,
    mu,
    render_mu,
    silberger_form,
    solve_matching,
    weyl_from_zeros,
)

# (case, residue degree f) -> extracted exponents and labels, from the case
# formulas with q_L = q^f; the keys are the pairs the block tables use
EXPECTED = {
    ("long-I", 2): ((1, 2), (3, 1)),
    ("long-II", 2): ((2, 0), (2, 2)),
    ("long-III", 2): ((1, 0), (1, 1)),
    ("long-IV", 2): ((0, 0), (0, 0)),
    ("long-IV", 1): ((0, 0), (0, 0)),
    ("short-I", 2): ((1, 0), (1, 1)),
    ("short-II", 2): ((0, 0), (0, 0)),
    ("short-I", 1): ((1, 0), (1, 1)),
    ("short-II", 1): ((0, 0), (0, 0)),
}

# zeros on the unit circle, the same for both residue degrees: long-I keeps
# both orbits of numerator factors, the (1 - X)(1 - X^-1) pair gives X = 1
ZEROS = {
    "long-I": {1, -1},
    "long-II": {1},
    "long-III": {1},
    "long-IV": set(),
    "short-I": {1},
    "short-II": set(),
}


def test_expected_pairs_are_the_table_pairs():
    used = {
        (r.classification.mu_case, r.descriptor.residue_degree)
        for fam in FAMILIES
        for r in table_rows(fam)
        if r.classification.mu_case is not None
    }
    assert used == set(EXPECTED)


@pytest.mark.parametrize("case_id,f", sorted(EXPECTED))
def test_extraction_and_labels(case_id, f):
    m = mu(PlancherelCase(case_id, residue_degree=f))
    want_extract, want_labels = EXPECTED[(case_id, f)]
    assert m.extracted() == want_extract
    assert labels(m).pair() == want_labels


def test_mu_matches_silberger_normal_form():
    for case_id, f in sorted(EXPECTED):
        m = mu(PlancherelCase(case_id, residue_degree=f))
        assert m.expr == silberger_form(*m.extracted()), (case_id, f)


def test_mu_symmetric_under_inverting_x():
    for case_id in CASE_IDS:
        m = mu(PlancherelCase(case_id))
        assert m.expr.invert_variable("X") == m.expr, case_id


def test_weyl_verdicts():
    assert weyl_from_zeros(mu(PlancherelCase("long-IV"))) == W_TRIVIAL
    assert weyl_from_zeros(mu(PlancherelCase("short-II"))) == W_TRIVIAL
    assert weyl_from_zeros(mu(PlancherelCase("short-I"))) == W_ORDER_2
    assert weyl_from_zeros(mu(PlancherelCase("long-I"))) == W_ORDER_2
    assert weyl_from_zeros(mu(PlancherelCase("long-II"))) == W_ORDER_2
    assert weyl_from_zeros(mu(PlancherelCase("long-III"))) == W_ORDER_2


def test_weyl_verdict_matches_labels():
    for case_id in CASE_IDS:
        for f in (1, 2):
            if case_id in ("long-I", "long-II") and f == 1:
                continue
            m = mu(PlancherelCase(case_id, residue_degree=f))
            nonzero = labels(m).pair() != (0, 0)
            assert (weyl_from_zeros(m) == W_ORDER_2) == nonzero


def test_zero_locations_case_by_case():
    for case_id, f in sorted(EXPECTED):
        m = mu(PlancherelCase(case_id, residue_degree=f))
        assert eval_unit_circle_zeros(m.expr, "X") == ZEROS[case_id], (case_id, f)
        assert m.zeros() == ZEROS[case_id], (case_id, f)


def test_silberger_zeros_on_a_wide_parameter_grid():
    # q^-7 = v^-14 is past any fixed cap on root exponents; the candidates
    # must follow the exponent width of the expression
    for a in range(9):
        for b in range(9):
            expected = ({1} if a > 0 else set()) | ({-1} if b > 0 else set())
            assert eval_unit_circle_zeros(silberger_form(a, b), "X") == expected, (a, b)


def test_solve_matching():
    good = PlancherelCase("long-I", omega_unit=1, chi_unit=-1)
    assert solve_matching(good)
    same_sign = PlancherelCase("long-I", omega_unit=1, chi_unit=1)
    assert not solve_matching(same_sign)
    ramified = PlancherelCase("long-I", residue_degree=1)
    assert not solve_matching(ramified)
    with pytest.raises(PlancherelError):
        solve_matching(PlancherelCase("long-II"))


def test_descriptor_validation():
    with pytest.raises(PlancherelError, match="residue degree 1 or 2"):
        PlancherelCase("short-I", residue_degree=3)
    with pytest.raises(PlancherelError):
        PlancherelCase("nope")


# The (case, omega_ramified, sigma_induced, chi2chiprime_ramified) points of
# SWITCH_GRID that case_of maps to the case.  An absent central-character
# switch reads as unramified for every case; a short root takes neither
# long-root switch.
ACCEPTED = {
    ("long-I", False, True, False),
    ("long-I", None, True, False),
    ("long-II", True, True, False),
    ("long-III", False, False, None),
    ("long-III", False, False, False),
    ("long-III", False, False, True),
    ("long-III", False, True, True),
    ("long-III", None, False, None),
    ("long-III", None, False, False),
    ("long-III", None, False, True),
    ("long-III", None, True, True),
    ("long-IV", True, False, None),
    ("long-IV", True, False, False),
    ("long-IV", True, False, True),
    ("long-IV", True, True, True),
    ("short-I", False, None, None),
    ("short-I", None, None, None),
    ("short-II", True, None, None),
}
SWITCH_GRID = list(
    itertools.product(CASE_IDS, (False, True, None), (None, False, True), (None, False, True))
)


def test_accepted_switch_grid():
    assert len(SWITCH_GRID) == 162 and len(ACCEPTED) == 18
    accepted = set()
    for case_id, omega, sigma, chi in SWITCH_GRID:
        try:
            selected = case_of(case_id.split("-")[0], omega, sigma, chi)
        except PlancherelError:
            continue
        if selected == case_id:
            accepted.add((case_id, omega, sigma, chi))
    assert accepted == ACCEPTED


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"omega_unit": 2}, "unit values are restricted to +1 and -1"),
        ({"case_id": "long-V"}, "unknown case 'long-V'"),
        ({"residue_degree": True}, "a quadratic extension has residue degree 1 or 2"),
        ({"residue_degree": 2.0}, "a quadratic extension has residue degree 1 or 2"),
        ({"omega_unit": True}, "unit values are restricted to +1 and -1"),
        ({"chi_unit": -1.0}, "unit values are restricted to +1 and -1"),
    ],
    ids=["unit-value", "unknown-case", "bool-degree", "float-degree", "bool-unit", "float-unit"],
)
def test_constructor_refusals(kwargs, message):
    # only ints go, so True (== 1) and 2.0 (== 2) are refused where 1 and 2 are taken
    with pytest.raises(PlancherelError) as err:
        PlancherelCase(**{"case_id": "long-I", **kwargs})
    assert str(err.value) == message


def test_case_of_refusals():
    with pytest.raises(PlancherelError, match="sigma = sigma\\(tau\\) flag"):
        case_of("long", False)
    with pytest.raises(PlancherelError, match="bad root kind"):
        case_of("medium", False)
    with pytest.raises(PlancherelError, match="an induced sigma needs"):
        case_of("long", False, True)
    with pytest.raises(PlancherelError, match="switches belong to the long root"):
        case_of("short", False, True, True)


def test_depth_zero_rows_take_their_case_from_the_selector():
    rows = [r for fam in FAMILIES for r in table_rows(fam) if r.descriptor.depth_class == "depth-zero"]
    assert len(rows) == 8
    for r in rows:
        d = r.descriptor
        assert r.classification.mu_case == case_of(
            d.root_kind, d.omega_ramified, d.chi_cubic, d.chi2chiprime_ramified
        ), r.index


def test_prefactor_is_opaque_and_positive_symbol():
    m = mu(PlancherelCase("long-IV"))
    assert m.expr == silberger_form(0, 0)
    assert m.expr.num == MU_RING.var("c")
    assert render_mu(m) == "c"


def test_render_factored_form():
    m = mu(PlancherelCase("long-III"))
    s = render_mu(m)
    assert s.startswith("c * (1 - X)")
    assert "q^-1*X" in s
