"""Affine Hecke algebras of rank one, with unequal weight labels.

The presentation carried here is the one every maximal-Levi block of split G2
lands in: a rank-1 lattice (written additively, generator 1), a finite Weyl
part of order at most 2 acting by negation, and a pair of nonnegative integer
labels (lam, lam_star) on the affine reflections.  Elements are finite sums
of basis vectors theta_x * T_w with exact Laurent coefficients in v, where
v^2 = q.

Multiplication uses three rules:

* T_w T_u = T_{wu} whenever lengths add,
* the quadratic relation (T_s + 1)(T_s - q^lam) = 0,
* the commutation of the lattice part past T_s,

      theta_x T_s - T_s theta_{s(x)} =
          (q^lam - 1 + X^{-1} (v^{lam+lam_star} - v^{lam-lam_star}))
          * (theta_x - theta_{s(x)}) / (1 - X^{-2}),

  where X = theta_1.  The quotient has the closed form

      (theta_{-y} - theta_y) / (1 - X^{-2}) = -sgn(y) sum_{k<|y|} theta_{|y|-2k},

  which the relation harness checks against exact division in ``exactalg``.

The product works on flat (x, w, v-exponent) -> coefficient terms, with int
coefficients unless a caller supplied a Fraction, and builds one Laurent
coefficient per output basis vector at the end.

Presentations of general rank are representable as data but multiplication
for a finite part of order > 2 is deliberately rejected rather than half
implemented.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Callable, Mapping

from .exactalg import LaurentExpr, exact_div, ring
from .rootdata import affine_mul

__all__ = [
    "WeightFunction",
    "RGroup",
    "AffineHeckePresentation",
    "HeckeElement",
    "HeckeError",
    "multiply",
    "verify_relations",
    "RelationReport",
    "CheckResult",
    "check_lusztig",
    "default_lusztig_allowed",
    "presentations_equal",
    "theta",
    "t_basis",
    "basis_element",
]


class HeckeError(ValueError):
    pass


# one shared coefficient ring: v with q = v^2, X the rank-1 lattice variable
COEFF_RING = ring(["v", "X"], {"v": "q"})
_X = COEFF_RING.var("X")
_ONE = COEFF_RING.one()


@dataclass(frozen=True)
class WeightFunction:
    """Labels lam, lam_star on the simple affine reflections, per simple root."""

    lam: tuple
    lam_star: tuple

    def __post_init__(self):
        if len(self.lam) != len(self.lam_star):
            raise HeckeError("lam and lam_star must label the same roots")
        if any(not isinstance(x, int) or x < 0 for x in self.lam + self.lam_star):
            raise HeckeError("weight labels must be nonnegative integers")

    @staticmethod
    def rank_one(lam: int, lam_star: int) -> "WeightFunction":
        return WeightFunction((lam,), (lam_star,))

    def pair(self) -> tuple:
        if len(self.lam) != 1:
            raise HeckeError("pair() is only defined for rank-1 weight functions")
        return (self.lam[0], self.lam_star[0])

    def to_json(self):
        return {"lambda": list(self.lam), "lambda_star": list(self.lam_star)}


@dataclass(frozen=True)
class RGroup:
    """Tri-state R-group descriptor; order is known only off the unknown state."""

    state: str  # "trivial" | "nontrivial" | "unknown"
    order: int | None = None

    def __post_init__(self):
        if self.state not in ("trivial", "nontrivial", "unknown"):
            raise HeckeError(f"bad R-group state {self.state!r}")
        if self.state == "trivial" and self.order not in (None, 1):
            raise HeckeError("trivial R-group has order 1")
        if self.state == "nontrivial" and (self.order is None or self.order < 2):
            raise HeckeError("nontrivial R-group needs an order >= 2")
        if self.state == "unknown" and self.order is not None:
            raise HeckeError("unknown R-group cannot carry an order")

    @staticmethod
    def trivial() -> "RGroup":
        return RGroup("trivial", 1)

    @staticmethod
    def nontrivial(order: int = 2) -> "RGroup":
        return RGroup("nontrivial", order)

    @staticmethod
    def unknown() -> "RGroup":
        return RGroup("unknown", None)

    def to_json(self):
        return {"state": self.state, "order": self.order}


@dataclass(frozen=True)
class AffineHeckePresentation:
    """Presentation data of the block algebra.

    lattice_rank: rank of the translation lattice (the cocompact part),
    weyl_order: order of the finite Weyl part (1 or 2),
    weights: the weight function when the finite part is nontrivial,
    r_group: tri-state descriptor of the finite twisting group,
    cocycle_trivial: whether the twisting 2-cocycle is trivial.

    Equality of presentations is equality of exactly these data.
    """

    lattice_rank: int
    weyl_order: int
    weights: WeightFunction | None
    r_group: RGroup
    cocycle_trivial: bool = True

    def __post_init__(self):
        if self.weyl_order not in (1, 2):
            raise HeckeError("finite Weyl part must have order 1 or 2")
        if self.weyl_order == 1 and self.weights is not None:
            raise HeckeError("trivial finite Weyl part carries no weights")
        if self.weyl_order == 2 and self.weights is None:
            raise HeckeError("order-2 finite Weyl part needs a weight function")
        if self.lattice_rank < 1:
            raise HeckeError("lattice rank must be positive")

    def weight_pair(self) -> tuple:
        if self.weights is None:
            return None
        return self.weights.pair()

    def to_json(self):
        return {
            "lattice_rank": self.lattice_rank,
            "weyl_order": self.weyl_order,
            "weights": self.weights.to_json() if self.weights else None,
            "r_group": self.r_group.to_json(),
            "cocycle_trivial": self.cocycle_trivial,
        }


def presentations_equal(a: AffineHeckePresentation, b: AffineHeckePresentation) -> bool:
    """Same lattice rank, finite-Weyl order, labels, R-group state, cocycle flag."""
    return (
        a.lattice_rank == b.lattice_rank
        and a.weyl_order == b.weyl_order
        and (a.weights.pair() if a.weights else None) == (b.weights.pair() if b.weights else None)
        and a.r_group.state == b.r_group.state
        and a.cocycle_trivial == b.cocycle_trivial
    )


class HeckeElement:
    """A finite sum of theta_x T_w with Laurent coefficients in v.

    ``terms`` maps (x, w) to a coefficient, where x is an integer lattice
    point and w is 0 (identity) or 1 (the reflection).  Coefficients are
    stored in the shared (v, X) ring with X-degree 0.
    """

    __slots__ = ("pres", "terms")

    def __init__(self, pres: AffineHeckePresentation, terms: Mapping[tuple, LaurentExpr]):
        clean = {}
        for (x, w), c in terms.items():
            if c.is_zero():
                continue
            if w not in (0, 1):
                raise HeckeError("Weyl component must be 0 or 1")
            if w == 1 and pres.weyl_order == 1:
                raise HeckeError("no reflection basis vector over a trivial finite part")
            if any(e[COEFF_RING.index["X"]] for e in c.terms):
                raise HeckeError("coefficients must not involve the lattice variable")
            clean[(x, w)] = c
        self.pres = pres
        self.terms = clean

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        _check_pres(self, other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, COEFF_RING.zero()) + c
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return HeckeElement(self.pres, out)

    def __neg__(self):
        return HeckeElement(self.pres, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, LaurentExpr)):
            c = other if isinstance(other, LaurentExpr) else COEFF_RING.const(other)
            return HeckeElement(self.pres, {k: v * c for k, v in self.terms.items()})
        return multiply(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, LaurentExpr)):
            return self.__mul__(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return presentations_equal(self.pres, other.pres) and self.terms == other.terms

    def specialize_v(self, value) -> dict:
        """Coefficients with v evaluated exactly (used by the q -> 1 check)."""
        return {k: c.substitute("v", value) for k, c in self.terms.items()}

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (x, w) in sorted(self.terms):
            c = self.terms[(x, w)]
            tw = "T[0]" if w else "T[]"
            cs = c.render()
            head = "" if cs == "1" else (f"({cs})*" if ("+" in cs or " - " in cs or "/" in cs) else f"{cs}*")
            parts.append(f"{head}theta[{x}]*{tw}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<HeckeElement {self.render()}>"


def _check_pres(a: HeckeElement, b: HeckeElement):
    if not presentations_equal(a.pres, b.pres):
        raise HeckeError("elements live over different presentations")


def basis_element(pres: AffineHeckePresentation, x: int, w: int, coeff=1) -> HeckeElement:
    c = coeff if isinstance(coeff, LaurentExpr) else COEFF_RING.const(coeff)
    return HeckeElement(pres, {(x, w): c})


def theta(pres: AffineHeckePresentation, x: int) -> HeckeElement:
    return basis_element(pres, x, 0)


def t_basis(pres: AffineHeckePresentation, w: int) -> HeckeElement:
    return basis_element(pres, 0, w)


def one(pres: AffineHeckePresentation) -> HeckeElement:
    return basis_element(pres, 0, 0)


def _commutation_quotient(y: int) -> list:
    """(theta_{-y} - theta_y) / (1 - X^{-2}) as (exponent, sign) pairs.

    The quotient is -sgn(y) * sum_{k < |y|} theta_{|y| - 2k}, empty at y = 0.
    """
    sign = -1 if y > 0 else 1
    return [(abs(y) - 2 * k, sign) for k in range(abs(y))]


def _structure_constants(pres: AffineHeckePresentation, rule_sign: int) -> list:
    """The commutation coefficient g as (X-shift, v-exponent, sign) triples.

    g = q^lam - 1 + X^{-1} (v^{lam+lam_star} - v^{lam-lam_star}); a pair of
    terms that cancels (lam = 0 or lam_star = 0) is left out.
    ``rule_sign = -1`` deliberately flips the sign of the X-exponent, which
    destroys consistency with the quadratic relation whenever lam_star > 0; it
    exists only as a negative control for the verification harness.
    """
    lam, lam_star = pres.weights.pair()
    g = []
    if lam:
        g += [(0, 2 * lam, 1), (0, 0, -1)]
    if lam_star:
        g += [(-rule_sign, lam + lam_star, 1), (-rule_sign, lam - lam_star, -1)]
    return g


def _flat_terms(h: HeckeElement) -> list:
    """(x, w, v-exponent, coefficient) terms; integral coefficients become int."""
    return [
        (x, w, ev, c.numerator if c.denominator == 1 else c)
        for (x, w), coeff in h.terms.items()
        for (ev, _), c in coeff.terms.items()
    ]


def _multiply(a: HeckeElement, b: HeckeElement, rule_sign: int = 1) -> HeckeElement:
    """Product in the theta-T basis; ``rule_sign`` exists for negative controls."""
    _check_pres(a, b)
    pres = a.pres
    if pres.lattice_rank != 1:
        raise HeckeError("multiplication is implemented for rank-1 lattices only")
    g, two_lam = [], 0
    if pres.weyl_order == 2:
        g, two_lam = _structure_constants(pres, rule_sign), 2 * pres.weights.pair()[0]
    out: dict = {}

    def add(x: int, w: int, e: int, c):
        out[x, w, e] = out.get((x, w, e), 0) + c

    right = _flat_terms(b)
    for x, w, e1, c1 in _flat_terms(a):
        for y, u, e2, c2 in right:
            c, e = c1 * c2, e1 + e2
            if w == 0:
                add(x + y, u, e, c)
                continue
            # theta_x T_s theta_y T_u = theta_{x-y} T_s T_u - theta_x g Q(y) T_u
            if u == 0:
                add(x - y, 1, e, c)
            else:
                # T_s T_s = (q^lam - 1) T_s + q^lam
                add(x - y, 1, e + two_lam, c)
                add(x - y, 1, e, -c)
                add(x - y, 0, e + two_lam, c)
            quotient = _commutation_quotient(y)
            for shift, ge, gs in g:
                for k, ks in quotient:
                    add(x + shift + k, u, e + ge, -c * gs * ks)
    coeffs: dict = {}
    for (x, w, e), c in out.items():
        if c:
            coeffs.setdefault((x, w), {})[e, 0] = Fraction(c)
    return HeckeElement(pres, {k: LaurentExpr(COEFF_RING, t) for k, t in coeffs.items()})


def multiply(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Product of two elements over the same presentation."""
    return _multiply(a, b, 1)


# ---------------------------------------------------------------------------
# Relation verification harness
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class RelationReport:
    presentation: AffineHeckePresentation
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def summary(self) -> str:
        lines = [
            f"relations for (lambda, lambda*) = {self.presentation.weight_pair()}:"
        ]
        for c in self.checks:
            mark = "ok" if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.name}" + (f" ({c.detail})" if c.detail else ""))
        return "\n".join(lines)

    def to_json(self):
        return {
            "weights": self.presentation.weight_pair(),
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks
            ],
        }


def verify_relations(
    pres: AffineHeckePresentation,
    degree_bound: int = 3,
    multiply_impl: Callable | None = None,
    associativity_samples: int = 250,
    seed: int = 0,
) -> RelationReport:
    """Run the consistency suite on one presentation; failures are reported.

    Checks: the quadratic relation, length-additive T-products, associativity
    on an exhaustive core plus a deterministic sample of triples, exactness of
    the commutation quotient up to ``degree_bound``, centrality of symmetric
    lattice elements, and the q -> 1 group-algebra degeneration.
    ``multiply_impl`` substitutes the product rule, which lets tests inject a
    sabotaged rule as a negative control.
    """
    import random

    if degree_bound < 0:
        raise HeckeError("degree bound must be non-negative")
    mul = multiply_impl or multiply
    checks = []
    b = degree_bound

    def elem(x, w):
        return basis_element(pres, x, w)

    ws = (0, 1) if pres.weyl_order == 2 else (0,)
    basis = [(x, w) for x in range(-b, b + 1) for w in ws]

    # 1. quadratic relation
    if pres.weyl_order == 2:
        lam, _ = pres.weights.pair()
        q_lam = COEFF_RING.monomial({"v": 2 * lam})
        lhs = mul(t_basis(pres, 1), t_basis(pres, 1))
        rhs = t_basis(pres, 1) * (q_lam - _ONE) + one(pres) * q_lam
        checks.append(
            CheckResult("quadratic", lhs == rhs, f"(T+1)(T-q^{lam}) = 0")
        )
    else:
        checks.append(CheckResult("quadratic", True, "trivial finite part"))

    # 2. length-additive T-products
    ok = True
    detail = ""
    pairs = [((0, 0), (0, 0)), ((0, 0), (0, ws[-1])), ((0, ws[-1]), (0, 0))]
    for (x1, w1), (x2, w2) in pairs:
        got = mul(elem(x1, w1), elem(x2, w2))
        want = elem(x1 + x2, (w1 + w2) % 2)
        if got != want:
            ok = False
            detail = f"T-product failed on {(w1, w2)}"
            break
    checks.append(CheckResult("braid-length", ok, detail))

    # 3. associativity: exhaustive core + deterministic sample, including
    # products of two-term elements so the correction terms interact
    rng = random.Random(seed)
    core = [(x, w) for x in (-1, 0, 1) for w in ws]
    triples = [(elem(*p), elem(*q), elem(*r)) for p in core for q in core for r in core]

    def random_element():
        e = elem(rng.randint(-b, b), rng.choice(ws))
        if rng.random() < 0.5:
            coeff = COEFF_RING.monomial({"v": rng.randint(-2, 2)}, rng.randint(-3, 3))
            e = e + basis_element(pres, rng.randint(-b, b), rng.choice(ws), coeff)
        return e

    while len(triples) < max(associativity_samples, len(core) ** 3):
        triples.append((random_element(), random_element(), random_element()))
    ok = True
    detail = f"{len(triples)} triples"
    for (pe, qe, re_) in triples:
        if mul(mul(pe, qe), re_) != mul(pe, mul(qe, re_)):
            ok = False
            detail = f"associativity failed on {pe!r}, {qe!r}, {re_!r}"
            break
    checks.append(CheckResult("associativity", ok, detail))

    # 4. the closed-form commutation quotient against exact division
    ok = True
    detail = f"x in [-{b}, {b}]"
    if pres.weyl_order == 2:
        for x in range(-b, b + 1):
            closed = sum(
                (COEFF_RING.monomial({"X": k}, sign) for k, sign in _commutation_quotient(x)),
                COEFF_RING.zero(),
            )
            if closed != exact_div(_X ** -x - _X ** x, _ONE - _X ** -2):
                ok = False
                detail = f"closed-form quotient differs from exact division at x = {x}"
                break
    checks.append(CheckResult("bernstein-exact-division", ok, detail))

    # 5. centrality of W-symmetric lattice elements
    ok = True
    detail = ""
    if pres.weyl_order == 2:
        for x in range(1, b + 1):
            z = theta(pres, x) + theta(pres, -x)
            for gen in [t_basis(pres, 1), theta(pres, 1)]:
                if mul(z, gen) != mul(gen, z):
                    ok = False
                    detail = f"theta_{x} + theta_{-x} is not central"
                    break
            if not ok:
                break
    checks.append(CheckResult("bernstein-center", ok, detail))

    # 6. q -> 1 degeneration to the group algebra of the affine Weyl group
    ok = True
    detail = ""
    for (x, w) in basis:
        for (y, u) in basis:
            got = mul(elem(x, w), elem(y, u)).specialize_v(1)
            n, sign = affine_mul((x, 1 - 2 * w), (y, 1 - 2 * u))
            want = {(n, (1 - sign) // 2): _ONE}
            got = {k: c for k, c in got.items() if not c.is_zero()}
            if got != want:
                ok = False
                detail = f"q->1 failed on {(x, w)}*{(y, u)}"
                break
        if not ok:
            break
    checks.append(CheckResult("group-algebra-degeneration", ok, detail))

    return RelationReport(pres, checks)


# ---------------------------------------------------------------------------
# Lusztig weight-function membership
# ---------------------------------------------------------------------------


def default_lusztig_allowed() -> set:
    """Label pairs shipped as data; every table row lands in this set."""
    path = resources.files("g2hecke").joinpath("data/lusztig_allowed.json")
    with path.open() as f:
        data = json.load(f)
    return {tuple(p) for p in data["allowed_pairs"]}


def check_lusztig(weights: WeightFunction, allowed: set | None = None) -> bool:
    """Membership of the rank-1 label pair in the allowed collection."""
    pair = weights.pair()
    if allowed is None:
        allowed = default_lusztig_allowed()
    return tuple(pair) in {tuple(p) for p in allowed}
