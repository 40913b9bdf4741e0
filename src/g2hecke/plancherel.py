"""The six explicit Plancherel-measure case formulas for maximal-Levi blocks.

Which of the six formulas (four for the long-root Levi, two for the
short-root Levi) gives the measure is fixed by the ramification switches;
``case_of`` is the one map from switches to case: the depth-zero block rows
take their case from it, and ``PlancherelCase.from_id`` takes the first
switches it maps to a case.  The six formulas are the rows of one table,
``_CASES``, of factor pairs and substitutions.  The measure is assembled
symbolically in a single variable X, normalized so that one X is one unit
step of the unramified twist; the recorded substitutions say what X means
case by case.  Conductor powers and the positive constant in front are
bundled into one opaque positive symbol c, which never affects zeros or
labels.

The measure is kept as its factors (1 +- q^-k X^e), each paired over
e = 1 and e = -1, and everything is read off them.  The denominator pair
(1 - q^-a X^+-1) gives q_alpha = q^a and the pair (1 + q^-b X^+-1) gives
q_alpha* = q^b (an absent pair gives exponent 0); these convert into the
weight labels

    lambda  = log_q(q_alpha * q_alpha*),
    lambda* = |log_q(q_alpha / q_alpha*)|.

The numerator factors with no power of q are the zeros on the unit circle:
(1 - X^+-1) vanishes at X = 1 and (1 + X^+-1) at X = -1, unless the
denominator carries the same factor.  A zero forces an order-2 rank-1 Weyl
group, no zero means the group is trivial.  The reduced rational function,
Silberger's normal form and evaluation at X = +-1 are kept as the
independent oracle for these readings (``agrees_with_oracle``).

Unit values of the relevant characters at uniformizers are restricted to
{+1, -1}; this covers every implemented case and keeps zero detection exact.
"""

from __future__ import annotations

from ._record import record
from .exactalg import LaurentExpr, RationalExpr, eval_unit_circle_zeros, ring
from .hecke import WeightFunction

__all__ = [
    "PlancherelCase",
    "MuFunction",
    "PlancherelError",
    "CASE_IDS",
    "case_of",
    "MU_RING",
    "W_TRIVIAL",
    "W_ORDER_2",
    "mu",
    "labels",
    "weyl_from_zeros",
    "agrees_with_oracle",
    "solve_matching",
    "silberger_form",
    "render_mu",
]


class PlancherelError(ValueError):
    pass


# Each case as (numerator pairs, denominator pairs, substitutions); a pair
# (sign, qexp) stands for the factors (1 + sign * q^-qexp * X^+-1), and a
# denominator qexp of None for the residue degree f.
_OMEGA = "X = omega(pi_F) q^(-2s)"
_CASES = {
    "long-I": ([(-1, 0), (1, 0)], [(-1, 1), (1, None)], (_OMEGA, "X = -chi^2 chi'^(-1)(pi_L) q_L^(-s)")),
    "long-II": ([(-1, 0)], [(-1, None)], ("X = chi^2 chi'^(-1)(pi_L) q_L^(-s)",)),
    "long-III": ([(-1, 0)], [(-1, 1)], (_OMEGA,)),
    "long-IV": ([], [], ()),
    "short-I": ([(-1, 0)], [(-1, 1)], (_OMEGA,)),
    "short-II": ([], [], ()),
}
CASE_IDS = tuple(_CASES)

W_TRIVIAL = "trivial"
W_ORDER_2 = "order-2"

# v with q = v^2, X the twist variable, c the opaque positive prefactor
MU_RING = ring(["v", "X", "c"], {"v": "q"})


def case_of(root_kind: str, omega_ramified, sigma_induced=None, chi2chiprime_ramified=None) -> str:
    """The case id that the ramification switches (each True, False or None) select.

    An absent central-character switch reads as unramified.  A long root needs
    the sigma = sigma(tau) flag, and an induced sigma the chi^2 chi'^-1 flag;
    a short root takes neither.
    """
    if root_kind not in ("long", "short"):
        raise PlancherelError(f"bad root kind {root_kind!r}")
    if root_kind == "short":
        if sigma_induced is not None or chi2chiprime_ramified is not None:
            raise PlancherelError("the sigma = sigma(tau) and chi^2 chi'^-1 switches belong to the long root")
        return "short-II" if omega_ramified else "short-I"
    if sigma_induced is None:
        raise PlancherelError("long-root cases need the sigma = sigma(tau) flag")
    if sigma_induced and chi2chiprime_ramified is None:
        raise PlancherelError("an induced sigma needs the chi^2 chi'^-1 ramification flag")
    if sigma_induced and not chi2chiprime_ramified:
        return "long-II" if omega_ramified else "long-I"
    return "long-IV" if omega_ramified else "long-III"


@record(frozen=True)
class PlancherelCase:
    """Descriptor for one case formula.

    ``residue_degree`` f (1 or 2) describes the quadratic extension attached
    to the block; its ramification index is 2 / f.  ``omega_unit`` is the value
    of the central character at a uniformizer when unramified;  ``chi_unit``
    the value of the twisted character chi^2 chi'^{-1} at a uniformizer of
    the extension when unramified.  Both are +-1.  The switches must select
    ``case_id`` through ``case_of``.
    """

    case_id: str
    omega_ramified: bool | None
    sigma_induced: bool | None = None  # sigma = sigma(tau) for the long root
    chi2chiprime_ramified: bool | None = None
    residue_degree: int = 2
    omega_unit: int = 1
    chi_unit: int = -1

    def __post_init__(self):
        if self.case_id not in CASE_IDS:
            raise PlancherelError(f"unknown case {self.case_id!r}")
        if self.residue_degree not in (1, 2):
            raise PlancherelError("a quadratic extension has residue degree 1 or 2")
        if self.omega_unit not in (1, -1) or self.chi_unit not in (1, -1):
            raise PlancherelError("unit values are restricted to +1 and -1")
        selected = case_of(self.root_kind, self.omega_ramified, self.sigma_induced, self.chi2chiprime_ramified)
        if selected != self.case_id:
            raise PlancherelError(f"the ramification switches select {selected}, not {self.case_id}")

    @property
    def root_kind(self) -> str:
        return _root_kind(self.case_id)

    @staticmethod
    def from_id(case_id: str, residue_degree: int = 2, omega_unit: int = 1, chi_unit: int = -1) -> "PlancherelCase":
        """The canonical descriptor: the first switches that ``case_of`` maps to ``case_id``."""
        if case_id not in _CASES:
            raise PlancherelError(f"unknown case {case_id!r}")
        root_kind = _root_kind(case_id)
        # omega unramified first; for a long root, an induced sigma with unramified chi^2 chi'^-1 first
        rest = ((True, False), (False, None)) if root_kind == "long" else ((None, None),)
        switches = next(
            (omega, *more) for more in rest for omega in (False, True) if case_of(root_kind, omega, *more) == case_id
        )
        return PlancherelCase(case_id, *switches, residue_degree, omega_unit, chi_unit)


def _root_kind(case_id: str) -> str:
    return "long" if case_id.startswith("long") else "short"


@record(frozen=True)
class MuFunction:
    """The factored measure of one case.

    Each factor is a (sign, qexp, xexp) tuple standing for
    (1 + sign * q^-qexp * X^xexp); the opaque prefactor c is left implicit.
    Everything else is read off the factors:

    * q_alpha = q^a from the (1 - q^-a X^+-1) denominator pair and
      q_alpha* = q^b from the (1 + q^-b X^+-1) pair, 0 for an absent pair;
    * the unit-circle zeros: X = -sign for each numerator factor with
      qexp 0, minus those of the denominator.
    """

    case_id: str
    substitutions: tuple
    num_factors: tuple
    den_factors: tuple

    def extracted(self) -> tuple:
        """The exponents (a, b) with q_alpha = q^a and q_alpha* = q^b."""
        qexp = {sign: q for sign, q, _ in self.den_factors}
        return (qexp.get(-1, 0), qexp.get(1, 0))

    def zeros(self) -> set:
        """The points X = +1 or -1 where the measure vanishes."""

        def units(factors):
            return {-sign for sign, q, _ in factors if q == 0}

        return units(self.num_factors) - units(self.den_factors)

    @property
    def expr(self) -> RationalExpr:
        """The reduced rational function; its gcd runs on every access."""
        return RationalExpr(*_products(self.num_factors, self.den_factors))


def _factor(sign: int, qexp: int, xexp: int) -> LaurentExpr:
    """(1 + sign * q^{-qexp} X^{xexp}) in the measure ring."""
    return MU_RING.one() + MU_RING.monomial({"v": -2 * qexp, "X": xexp}, sign)


def _expand(pairs) -> tuple:
    """Each (sign, qexp) pair as its two factors in X and X^-1."""
    return tuple((sign, qexp, xexp) for sign, qexp in pairs for xexp in (1, -1))


def _products(num_factors, den_factors) -> tuple:
    """The unreduced numerator c * prod(num) and denominator prod(den)."""
    num = MU_RING.var("c")
    for shape in num_factors:
        num = num * _factor(*shape)
    den = MU_RING.one()
    for shape in den_factors:
        den = den * _factor(*shape)
    return num, den


def _silberger_products(a_exp: int, b_exp: int) -> tuple:
    return _products(_expand([(-1, 0), (1, 0)]), _expand([(-1, a_exp), (1, b_exp)]))


def silberger_form(a_exp: int, b_exp: int) -> RationalExpr:
    """The normal form c * prod(1 +- X^{+-1}) / prod(1 +- q_*^{-1} X^{+-1}).

    The first factor pair carries q_alpha = q^a, the second q_alpha* = q^b.
    """
    return RationalExpr(*_silberger_products(a_exp, b_exp))


def mu(case: PlancherelCase) -> MuFunction:
    """The factored measure of one case; no rational function is built."""
    num, den, substitutions = _CASES[case.case_id]
    den = [(sign, case.residue_degree if qexp is None else qexp) for sign, qexp in den]
    return MuFunction(case.case_id, substitutions, _expand(num), _expand(den))


def labels(m: MuFunction) -> WeightFunction:
    """Weight labels from the extracted parameters, as exact integers."""
    a, b = m.extracted()
    if not isinstance(a, int) or not isinstance(b, int):
        raise PlancherelError("parameters are not integer powers of q")
    return WeightFunction(a + b, abs(a - b))


def weyl_from_zeros(m: MuFunction) -> str:
    """Order-2 exactly when the measure vanishes somewhere on the unit circle."""
    return W_ORDER_2 if m.zeros() else W_TRIVIAL


def agrees_with_oracle(m: MuFunction) -> bool:
    """Whether the readings off the factors survive the reduced measure.

    The reduced measure must be W-invariant, mu(X) = mu(X^-1), must equal
    Silberger's normal form for the extracted pair, and its unit-circle
    zeros, found by evaluation at X = +-1, must equal the zeros read off the
    factors.  Each equation is compared cross-multiplied, so neither side
    needs a gcd of its own.
    """
    expr = m.expr
    num, den = _silberger_products(*m.extracted())
    return (
        expr.num * expr.den.invert_variable("X") == expr.num.invert_variable("X") * expr.den
        and expr.num * den == num * expr.den
        and eval_unit_circle_zeros(expr, "X") == m.zeros()
    )


def solve_matching(case: PlancherelCase) -> bool:
    """Whether the two descriptions of X in the first long-root case agree.

    The consistency equation has a solution exactly when the extension is
    unramified (residue degree 2) and the two unit values are opposite.
    """
    if case.case_id != "long-I":
        raise PlancherelError("the matching equation belongs to the long-I case")
    return case.residue_degree == 2 and case.omega_unit + case.chi_unit == 0


def render_mu(m: MuFunction) -> str:
    """The factored Silberger-style rendering used by the command line."""

    def label(shape):
        sign, qexp, xexp = shape
        mid = "-" if sign < 0 else "+"
        qpart = "" if qexp == 0 else f"q^-{qexp}*"
        xpart = "X" if xexp == 1 else f"X^{xexp}"
        return f"(1 {mid} {qpart}{xpart})"

    num = "*".join(label(s) for s in m.num_factors) or "1"
    if not m.den_factors:
        return f"c * {num}" if num != "1" else "c"
    den = "*".join(label(s) for s in m.den_factors)
    return f"c * {num} / ({den})"
