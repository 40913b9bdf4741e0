"""Classifier for the maximal-Levi Bernstein blocks of split G2.

A block descriptor records which maximal Levi the block sits on (long or
short simple root), the twisted Levi G0 underneath it (which fixes the depth
class of the inducing datum), and the ramification switches that drive the
measure formulas.  ``classify`` maps a descriptor to the unique table row it
matches and returns the row's invariants.  A descriptor matches a row when it
equals the row's descriptor, except that a row whose phi_0 restriction is
"both" takes any given phi_0 restriction.  The invariants are:

* presentation data for the block algebra on both sides, from which the
  rank-1 Weyl group W_O and the twisting group R(O) of the block and of its
  depth-zero companion on G0 are read;
* the order of the stabilizer of the inducing supercuspidal inside the
  unramified twist torus (2 / ramification index).

All rows live in one ordered table giving each row's descriptor, measure
case, R(O) for a trivial W_O, and G0-side presentation; one builder derives
the rest.  A row's family and printed datum are read off its descriptor.
A depth-zero row's case comes from its switches through
``plancherel.case_of``; only positive-depth rows set it by hand.  Rows with
a measure case are classified through the Plancherel pipeline: the weight
labels come from ``plancherel.labels(mu(case))`` and the Weyl verdict from
the unit-circle zeros of the factored measure, never from hand-copied
constants.
The four canonical tables (long/short x depth-zero/positive) are emitted in
a fixed reading order and are frozen as golden JSON files, which only the
``check`` command's table diff reads; rows the tables leave undetermined
carry a first-class "unknown" R-group state.

The classification assumes the residual characteristic is not a bad prime
of G2 (``rootdata.bad_primes``); callers that cannot grant the assumption
get a refusal.
"""

from __future__ import annotations

import os

from ._record import record, replace
from .hecke import AffineHeckePresentation, RGroup, WeightFunction
from .plancherel import W_ORDER_2, W_TRIVIAL, MuFunction, PlancherelCase, case_of, labels, mu, weyl_from_zeros
from .rootdata import bad_primes, g2_datum

__all__ = [
    "BlockDescriptor",
    "BlockClassification",
    "BlocksError",
    "FAMILIES",
    "classify",
    "emit_table",
    "table_rows",
    "render_text_table",
    "check_weyl_iso",
]

SCHEMA_VERSION = 1

FAMILIES = ("long-depth-zero", "long-positive", "short-depth-zero", "short-positive")

# algebra shapes
NONCOMM = "noncommutative"
CROSSED = "crossed-product"  # C[R(O)] x| C[O]
COMMUTATIVE = "commutative"  # C[O]


class BlocksError(ValueError):
    pass


@record(frozen=True)
class BlockDescriptor:
    """Descriptor of one block, mirroring the table columns.

    ``g0_kind`` names the twisted Levi underneath: G itself, M0 = M, one of
    the two unitary groups, a torus (with the sequence (M0, G)), or the
    three-step chain (M0, M, G).  It fixes ``depth_class``: depth-zero for
    G, essentially-depth-zero (r != 0 with G0 = M) for M0 = M, positive-depth
    for the rest.
    ``phi0_restriction`` applies to positive depth only and takes
    trivial / sign-character / other-nontrivial / both.
    """

    root_kind: str  # "long" | "short"
    g0_kind: str  # "G" | "M0=M" | "U_eps(1,1)" | "U_pi(1,1)" | "torus" | "chain"
    L_over_F: str  # "ramified" | "unramified"
    omega_ramified: bool | None = None
    chi_cubic: bool | None = None
    chi2chiprime_ramified: bool | None = None
    phi0_restriction: str | None = None
    phi1_trivial: bool | None = None

    def __post_init__(self):
        if self.root_kind not in ("long", "short"):
            raise BlocksError(f"bad root kind {self.root_kind!r}")
        if self.g0_kind not in ("G", "M0=M", "U_eps(1,1)", "U_pi(1,1)", "torus", "chain"):
            raise BlocksError(f"bad twisted Levi kind {self.g0_kind!r}")
        if self.L_over_F not in ("ramified", "unramified"):
            raise BlocksError(f"bad extension kind {self.L_over_F!r}")
        if self.chi_cubic is not None and not (self.root_kind == "long" and self.depth_class == "depth-zero"):
            raise BlocksError("the cubic-character switch only applies to long depth-zero blocks")
        if self.chi2chiprime_ramified is not None and self.chi_cubic is not True:
            raise BlocksError("chi^2 chi'^-1 ramification applies only when chi is cubic")
        if self.phi0_restriction is not None:
            if self.depth_class != "positive-depth":
                raise BlocksError("phi_0 restriction data belongs to positive depth")
            if self.phi0_restriction not in ("trivial", "sign-character", "other-nontrivial", "both"):
                raise BlocksError(f"bad phi_0 restriction {self.phi0_restriction!r}")
        if self.phi1_trivial is not None and self.depth_class != "positive-depth":
            raise BlocksError("phi_1 data belongs to positive depth")

    @property
    def depth_class(self) -> str:
        return {"G": "depth-zero", "M0=M": "essentially-depth-zero"}.get(self.g0_kind, "positive-depth")

    @property
    def residue_degree(self) -> int:
        return 2 if self.L_over_F == "unramified" else 1

    @property
    def ramification_index(self) -> int:
        return 1 if self.L_over_F == "unramified" else 2

    @property
    def family(self) -> str:
        if self.depth_class == "positive-depth":
            return f"{self.root_kind}-positive"
        return f"{self.root_kind}-depth-zero"

    def to_json(self) -> dict:
        return {
            "root_kind": self.root_kind,
            "depth_class": self.depth_class,
            "g0_kind": self.g0_kind,
            "L_over_F": self.L_over_F,
            "omega_ramified": self.omega_ramified,
            "chi_cubic": self.chi_cubic,
            "chi2chiprime_ramified": self.chi2chiprime_ramified,
            "phi0_restriction": self.phi0_restriction,
            "phi1_trivial": self.phi1_trivial,
        }


def _noncomm(lam: int, lam_star: int) -> AffineHeckePresentation:
    return AffineHeckePresentation(WeightFunction(lam, lam_star), RGroup.trivial())


def _crossed(r_group: RGroup) -> AffineHeckePresentation:
    return AffineHeckePresentation(None, r_group)


def _weyl(p: AffineHeckePresentation) -> str:
    return W_ORDER_2 if p.weyl_order == 2 else W_TRIVIAL


def _algebra_kind(p: AffineHeckePresentation) -> str:
    """The shape of a presentation's algebra: noncommutative, crossed product or C[O]."""
    if p.weyl_order == 2:
        return NONCOMM
    return COMMUTATIVE if p.r_group.state == "trivial" else CROSSED


@record(frozen=True)
class BlockClassification:
    """Table-row invariants of one block: W_O, R(O) and their companions
    W_O^0, R(O^0) are read off the presentations of H(G, rho) and H(G^0, rho^0)."""

    h_g: AffineHeckePresentation
    h_g0: AffineHeckePresentation
    xnr_order: int
    mu_case: str | None = None

    def __post_init__(self):
        if self.w_o == W_ORDER_2 and self.r_o.state != "trivial":
            raise BlocksError("an order-2 Weyl part forces a trivial R-group in rank 1")

    w_o = property(lambda self: _weyl(self.h_g))
    r_o = property(lambda self: self.h_g.r_group)
    w_o0 = property(lambda self: _weyl(self.h_g0))
    r_o0 = property(lambda self: self.h_g0.r_group)

    def to_json(self) -> dict:
        def pres_json(p: AffineHeckePresentation) -> dict:
            out = {"kind": _algebra_kind(p)}
            if p.weyl_order == 2:
                out["lambda"], out["lambda_star"] = p.weights.pair()
                out["params"] = _q_params(p)
            else:
                out["r_group"] = p.r_group.state
            return out

        return {
            "W_O": self.w_o,
            "R_O": self.r_o.state,
            "W_O0": self.w_o0,
            "R_O0": self.r_o0.state,
            "xnr_order": self.xnr_order,
            "H_G": pres_json(self.h_g),
            "H_G0": pres_json(self.h_g0),
            "mu_case": self.mu_case,
        }


def _q_power(k: int) -> str:
    """q^k as printed: 1, q or q^k."""
    return "1" if k == 0 else "q" if k == 1 else f"q^{k}"


def _q_params(p: AffineHeckePresentation) -> list:
    """The parameters q^lam, q^lam_star of a noncommutative presentation."""
    return [_q_power(k) for k in p.weights.pair()]


def check_weyl_iso(c: BlockClassification) -> bool:
    """The two block algebras have equal presentation data."""
    return c.h_g == c.h_g0


# ---------------------------------------------------------------------------
# Table construction
# ---------------------------------------------------------------------------


@record(frozen=True)
class TableRow:
    index: int
    descriptor: BlockDescriptor
    classification: BlockClassification

    family = property(lambda self: self.descriptor.family)
    datum_display = property(lambda self: _DATUM[self.descriptor.g0_kind])

    def matches(self, d: BlockDescriptor) -> bool:
        """Descriptor equality; a row whose phi_0 restriction is "both" takes any."""
        if self.descriptor.phi0_restriction == "both" and d.phi0_restriction is not None:
            d = replace(d, phi0_restriction="both")
        return d == self.descriptor

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "index": self.index,
            "datum": self.datum_display,
            "descriptor": self.descriptor.to_json(),
            "classification": self.classification.to_json(),
        }


def _measure(case_id: str, desc: BlockDescriptor) -> MuFunction:
    """The factored measure of a row's case at the descriptor's residue degree."""
    return mu(PlancherelCase(case_id, residue_degree=desc.residue_degree))


def _classify_row(
    desc: BlockDescriptor,
    case_id: str | None,
    r_if_trivial_w: RGroup,
    h_g0: AffineHeckePresentation | None,
) -> BlockClassification:
    """Build a row's classification through the measure pipeline.

    The weight labels and the Weyl verdict are derived from the case formula;
    an order-2 verdict gives the noncommutative algebra (with trivial R-group,
    the rank-1 constraint), otherwise the crossed product with
    ``r_if_trivial_w``.  W_O and R(O) on each side are read off the
    presentations; ``h_g0`` None means G0 = G.
    """
    h_g = _crossed(r_if_trivial_w)
    if case_id is not None:
        m = _measure(case_id, desc)
        if weyl_from_zeros(m) == W_ORDER_2:
            h_g = _noncomm(*labels(m).pair())
    h_g0 = h_g if h_g0 is None else h_g0
    return BlockClassification(h_g, h_g0, 2 // desc.ramification_index, case_id)


def _pd(root_kind: str, g0_kind: str, l_over_f: str, phi0: str, phi1: bool) -> BlockDescriptor:
    return BlockDescriptor(root_kind, g0_kind, l_over_f, phi0_restriction=phi0, phi1_trivial=phi1)


_UNKNOWN, _TRIVIAL, _NONTRIVIAL = RGroup.unknown(), RGroup.trivial(), RGroup.nontrivial()
_C_O = _crossed(_TRIVIAL)  # the commutative algebra C[O]
# the datum printed for a row, fixed by its twisted Levi
_DATUM = {
    "G": "((G,M),(y,iota),(M_{y,0},rho_M))",
    "M0=M": "(((M,G),M),(y,iota),(r,0),(phi,1),(M_{y,0},rho_M))",
    "U_eps(1,1)": "(U_eps(1,1),G)",
    "U_pi(1,1)": "(U_pi'(1,1),G)",
    "torus": "(M0,G)",
    "chain": "(M0,M,G)",
}


def _dz(root_kind: str, **switches) -> tuple:
    """A depth-zero row (G0 = G, R(O) unknown); its switches select its case."""
    d = BlockDescriptor(root_kind, "G", "unramified", **switches)
    case_id = case_of(root_kind, d.omega_ramified, d.chi_cubic, d.chi2chiprime_ramified)
    return d, case_id, _UNKNOWN, None


def _edz(root_kind: str, omega_ramified: bool) -> tuple:
    """An r != 0 row (G0 = M): no measure case, C[O] on both sides."""
    return BlockDescriptor(root_kind, "M0=M", "unramified", omega_ramified), None, _TRIVIAL, _C_O


def _toral_rows(root_kind: str, l_over_f: str) -> list:
    """The two C[O] rows over a torus: (M0, G) and the chain (M0, M, G)."""
    return [
        (_pd(root_kind, "torus", l_over_f, "other-nontrivial", True), None, _TRIVIAL, _C_O),
        (_pd(root_kind, "chain", l_over_f, "both", False), None, _TRIVIAL, _C_O),
    ]


# All rows in reading order: (descriptor, measure case or None for C[O],
# R(O) when W_O is trivial, G0-side presentation or None when G0 = G).
# Only positive-depth rows set their case by hand; ``_dz`` selects it.
# Family and datum come from the descriptor, the index from the position.
_ROWS = (
    # long root, depth zero: four cubic-character rows, then "chi not cubic"
    _dz("long", omega_ramified=False, chi_cubic=True, chi2chiprime_ramified=False),
    _dz("long", omega_ramified=True, chi_cubic=True, chi2chiprime_ramified=False),
    _dz("long", omega_ramified=False, chi_cubic=True, chi2chiprime_ramified=True),
    _dz("long", omega_ramified=True, chi_cubic=True, chi2chiprime_ramified=True),
    _dz("long", omega_ramified=False, chi_cubic=False),
    _dz("long", omega_ramified=True, chi_cubic=False),
    # r != 0: G0 = M, everything collapses to the translation algebra
    _edz("long", True),
    # long root, positive depth: T_{beta,pi'} (ramified torus), then T_{beta,eps}
    (_pd("long", "U_pi(1,1)", "ramified", "sign-character", False), "long-IV", _NONTRIVIAL, _crossed(_NONTRIVIAL)),
    *_toral_rows("long", "ramified"),
    (_pd("long", "U_eps(1,1)", "unramified", "trivial", True), "long-III", _TRIVIAL, _noncomm(1, 1)),
    *_toral_rows("long", "unramified"),
    # short root, depth zero
    _dz("short", omega_ramified=False),
    _dz("short", omega_ramified=True),
    _edz("short", False),
    _edz("short", True),
    # short root, positive depth: T_{alpha,pi'} (ramified torus), then T_{alpha,eps}
    (_pd("short", "U_pi(1,1)", "ramified", "trivial", True), "short-I", _TRIVIAL, _noncomm(1, 1)),
    (_pd("short", "U_pi(1,1)", "ramified", "sign-character", False), "short-II", _NONTRIVIAL, _crossed(_NONTRIVIAL)),
    *_toral_rows("short", "ramified"),
    (_pd("short", "U_eps(1,1)", "unramified", "trivial", True), "short-I", _TRIVIAL, _noncomm(1, 1)),
    *_toral_rows("short", "unramified"),
)

_CACHE: dict = {}


def table_rows(family: str) -> list:
    if family not in FAMILIES:
        raise BlocksError(f"unknown family {family!r}; choose from {FAMILIES}")
    if family not in _CACHE:
        specs = [spec for spec in _ROWS if spec[0].family == family]
        _CACHE[family] = [
            TableRow(i, desc, _classify_row(desc, case_id, r_o, h_g0))
            for i, (desc, case_id, r_o, h_g0) in enumerate(specs, start=1)
        ]
    return _CACHE[family]


def _golden_name(family: str) -> str:
    """The file name of one family's golden table."""
    return f"{family.replace('-', '_')}.json"


def _read_golden(family: str) -> bytes:
    """The bytes of the packaged golden JSON file for one family."""
    # the package's own loader reads a directory or a zip archive alike
    return __loader__.get_data(os.path.join(os.path.dirname(__file__), "data", "tables", _golden_name(family)))


def emit_table(family: str) -> dict:
    """The canonical JSON document for one family, in reading order."""
    rows = table_rows(family)
    return {
        "schema_version": SCHEMA_VERSION,
        "family": family,
        "rows": [r.to_json() for r in rows],
    }


def classify(d: BlockDescriptor, assume_good_residual_char: bool = True) -> BlockClassification:
    """The unique table row matching the descriptor.

    The table data is only valid away from the bad primes of G2;
    passing ``assume_good_residual_char=False`` refuses instead of answering.
    """
    if not assume_good_residual_char:
        bad = ", ".join(str(p) for p in sorted(bad_primes(g2_datum())))
        raise BlocksError(f"classification data assumes residual characteristic not in {{{bad}}}")
    matches = [r for r in table_rows(d.family) if r.matches(d)]
    if not matches:
        raise BlocksError(f"descriptor matches no table row: {d}")
    if len(matches) > 1:
        raise BlocksError(f"descriptor is ambiguous across rows {[r.index for r in matches]}")
    return matches[0].classification


# ---------------------------------------------------------------------------
# Plain-text rendering aligned with the printed layout
# ---------------------------------------------------------------------------


def _h_display(p: AffineHeckePresentation) -> str:
    kind = _algebra_kind(p)
    if kind == NONCOMM:
        return ", ".join(["non-comm", *_q_params(p)])
    if kind == CROSSED:
        return "C[R(O)] x| C[O]"
    return "C[O]"


def _state_display(s: str) -> str:
    return {"trivial": "= 1", "nontrivial": "!= 1", "unknown": "*"}[s]


def render_text_table(family: str) -> str:
    depth_zero = family.endswith("depth-zero")
    if depth_zero:
        headers = ["#", "r", "omega", "chi^2chi'^-1"]
    else:
        headers = ["#", "M^0", "phi_0|Z", "phi_1", "vec G"]
    headers += ["R(O)", "R(O^0)", "L/F", "#X_nr", "W_O", "W_O^0", "H(G,rho)", "H(G^0,rho^0)"]
    lines = [headers]
    w = lambda s: "!= 1" if s == W_ORDER_2 else "= 1"
    for r in table_rows(family):
        d, c = r.descriptor, r.classification
        if depth_zero:
            chi = "N/A"
            if d.chi_cubic is True:
                chi = ("ramified" if d.chi2chiprime_ramified else "unramified") + ", chi cubic"
            elif d.chi_cubic is False:
                chi = "chi not cubic"
            head = [
                "r = 0" if d.depth_class == "depth-zero" else "r != 0",
                "!= 1" if d.omega_ramified else "= 1",
                chi,
            ]
        else:
            torus = ("T_beta," if d.root_kind == "long" else "T_alpha,") + (
                "pi'" if d.L_over_F == "ramified" else "eps"
            )
            phi0 = {
                "trivial": "= 1",
                "sign-character": "= sign char",
                "other-nontrivial": "!= 1, != sign",
                "both": "both",
            }[d.phi0_restriction]
            head = [torus, phi0, "= 1" if d.phi1_trivial else "!= 1", r.datum_display]
        lines.append([
            str(r.index),
            *head,
            _state_display(c.r_o.state),
            _state_display(c.r_o0.state),
            d.L_over_F,
            str(c.xnr_order),
            w(c.w_o),
            w(c.w_o0),
            _h_display(c.h_g),
            _h_display(c.h_g0),
        ])
    widths = [max(len(row[i]) for row in lines) for i in range(len(headers))]
    out = []
    for j, row in enumerate(lines):
        out.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if j == 0:
            out.append("  ".join("-" * widths[i] for i in range(len(widths))))
    return "\n".join(out)
