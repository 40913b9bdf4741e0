"""Semantics of the package's record classes (construction, equality, hash, repr, replace)."""

import pytest

from g2hecke._record import record, replace
from g2hecke.extquot import ExtQuotPoint, PropertyVerdict
from g2hecke.hecke import AffineHeckePresentation, CheckResult, RelationReport, RGroup, WeightFunction
from g2hecke.plancherel import PlancherelCase, PlancherelError
from g2hecke.rootdata import WeylElement


def test_frozen_fields_refuse_assignment_and_deletion():
    w = WeightFunction((1,), (2,))
    with pytest.raises(AttributeError):
        w.lam = (3,)
    with pytest.raises(AttributeError):
        del w.lam_star
    with pytest.raises(AttributeError):
        w.extra = 1
    assert w == WeightFunction((1,), (2,))


def test_mutable_records_accept_assignment():
    r = CheckResult("x", True)
    r.detail = "why"
    assert r == CheckResult("x", True, "why")


def test_equality_only_within_one_class():
    w = WeightFunction((1,), (2,))
    assert w == WeightFunction(lam=(1,), lam_star=(2,))
    assert w != WeightFunction((1,), (3,))
    assert w != ((1,), (2,))
    assert w != WeylElement((1,), (2,))
    assert ExtQuotPoint(0, 1) != (0, 1)


def test_records_are_not_sequences():
    w = WeightFunction((1,), (2,))
    with pytest.raises(TypeError):
        len(w)
    with pytest.raises(TypeError):
        iter(w)


def test_frozen_records_hash_by_value_and_mutable_ones_do_not_hash():
    assert hash(RGroup.nontrivial(3)) == hash(RGroup("nontrivial", 3))
    assert len({WeightFunction((1,), (2,)), WeightFunction((1,), (2,)), WeightFunction((2,), (1,))}) == 2
    pres = AffineHeckePresentation(1, 1, None, RGroup.trivial())
    for unhashable in (CheckResult("x", True), RelationReport(pres, []), PropertyVerdict(True)):
        with pytest.raises(TypeError):
            hash(unhashable)


@record(frozen=True)
class Label:
    name: str


def test_one_field_record_compares_and_hashes_by_its_field_tuple():
    assert Label("a") == Label(name="a") and Label("a") != Label("b")
    assert Label("a") != "a" and Label("a") != ("a",)
    assert hash(Label("a")) == hash(("a",)) and hash(RGroup("nontrivial", 3)) == hash(("nontrivial", 3))
    assert len({Label("a"), Label("a"), Label("b")}) == 2
    assert repr(Label("a")) == "Label(name='a')"


def test_repr_names_every_field_in_order():
    assert repr(RGroup.trivial()) == "RGroup(state='trivial', order=1)"
    verdict = PropertyVerdict(False, "no", (1, 2))
    assert repr(verdict) == "PropertyVerdict(ok=False, reason='no', witness=(1, 2))"
    assert repr(AffineHeckePresentation(1, 2, WeightFunction((1,), (0,)), RGroup.trivial())) == (
        "AffineHeckePresentation(lattice_rank=1, weyl_order=2, "
        "weights=WeightFunction(lam=(1,), lam_star=(0,)), "
        "r_group=RGroup(state='trivial', order=1), cocycle_trivial=True)"
    )


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((), {}),
        (("trivial",), {"order": 1, "size": 1}),
        (("trivial", 1, 2), {}),
        (("trivial",), {"state": "trivial"}),
    ],
    ids=["missing", "unknown", "too-many", "repeated"],
)
def test_bad_constructor_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        RGroup(*args, **kwargs)


def test_defaults_and_keywords():
    assert RGroup("unknown") == RGroup(order=None, state="unknown")
    assert PropertyVerdict(True).reason == "" and PropertyVerdict(True).witness is None


def test_replace_copies_and_validates_again():
    case = PlancherelCase.from_id("short-I", residue_degree=2)
    assert replace(case, chi_unit=1) == PlancherelCase(**{**vars(case), "chi_unit": 1})
    assert replace(case) == case and replace(case) is not case
    with pytest.raises(PlancherelError):
        replace(case, case_id="long-V")
    with pytest.raises(TypeError):
        replace(case, no_such_field=1)
