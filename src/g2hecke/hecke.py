"""Affine Hecke algebras of rank one, with unequal weight labels.

The presentation carried here is the one every maximal-Levi block of split G2
lands in: a rank-1 lattice (written additively, generator 1), a finite Weyl
part of order at most 2 acting by negation, and a pair of nonnegative integer
labels (lam, lam_star) on the affine reflections.  Elements are finite sums
of basis vectors theta_x * T_w with exact Laurent coefficients in v, where
v^2 = q, stored flat as (x, w, v-exponent) -> int or Fraction.

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

The product works directly on that flat storage; coefficients stay int
unless a caller supplied a Fraction.  It reads T_s theta_y T_u from a product
table of the presentation, whose entries are expanded from these rules on
first use; the table of the last presentation multiplied over is kept, so a
product does only its term loop.

The relation harness keeps one independent check per fact: the quadratic
relations of T_s and of the second affine reflection
T_s1 = v^{lam+lam_star} theta_1 T_s^{-1} (where a wrong lam_star shows), the
closed-form quotient against exact division, the q -> 1 limit, and
``representation``, which checks every basis product.  The polynomial
representation rho of the algebra on Laurent polynomials in X (theta_x acts
as X^x, T_s by the Demazure-Lusztig operator
T_s f = q^lam s(f) + g (f - s(f)) / (1 - X^{-2})) is faithful (Lusztig,
JAMS 1989, sections 3-5; Macdonald, "Affine Hecke Algebras and Orthogonal
Polynomials", ch. 4).  So a product at x = 0 that rho maps to the composed
operators is the algebra's product, and since
theta_x (theta_z T_t) = theta_{x+z} T_t in the algebra, every other basis
product must be the x-shift of one at x = 0.  Checking rho on the x = 0
pairs and the shift on all pairs covers every basis pair up to the bound;
as v is central, a v-power on the right operand must shift the product's
v-exponents, which is compared at x = 0.  The operator is built from g's own
formula and from exact division, not from the product's structure constants
or closed-form quotient.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from ._record import record
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
    "theta",
    "t_basis",
    "basis_element",
]


class HeckeError(ValueError):
    pass


# (v, X) with q = v^2 and X the rank-1 lattice variable: for rendering
# coefficients and for the exact-division oracle of the commutation quotient
COEFF_RING = ring(["v", "X"], {"v": "q"})
_X = COEFF_RING.var("X")
_ONE = COEFF_RING.one()


@record(frozen=True)
class WeightFunction:
    """Labels lam, lam_star on the two simple affine reflections."""

    lam: int
    lam_star: int

    def __post_init__(self):
        if any(not isinstance(x, int) or x < 0 for x in (self.lam, self.lam_star)):
            raise HeckeError("weight labels must be nonnegative integers")

    def pair(self) -> tuple:
        return (self.lam, self.lam_star)


@record(frozen=True)
class RGroup:
    """Tri-state R-group descriptor; a nontrivial R-group has order 2 here."""

    state: str  # "trivial" | "nontrivial" | "unknown"

    def __post_init__(self):
        if self.state not in ("trivial", "nontrivial", "unknown"):
            raise HeckeError(f"bad R-group state {self.state!r}")

    @staticmethod
    def trivial() -> "RGroup":
        return RGroup("trivial")

    @staticmethod
    def nontrivial() -> "RGroup":
        return RGroup("nontrivial")

    @staticmethod
    def unknown() -> "RGroup":
        return RGroup("unknown")


@record(frozen=True)
class AffineHeckePresentation:
    """Presentation data of the block algebra over the rank-1 lattice.

    weights: the weight function, or None when the finite Weyl part is
    trivial; it has order 2 (``weyl_order``) exactly when there are weights,
    r_group: tri-state descriptor of the finite twisting group.

    Equality of presentations is equality of exactly these data.  No 2-cocycle
    is kept: R-groups of order at most 2 are cyclic, with no nontrivial twist.
    """

    weights: WeightFunction | None
    r_group: RGroup

    @property
    def weyl_order(self) -> int:
        return 1 if self.weights is None else 2

    def weight_pair(self) -> tuple:
        if self.weights is None:
            return None
        return self.weights.pair()


class HeckeElement:
    """A finite sum of c * v^e * theta_x * T_w with exact scalars c.

    ``terms`` maps (x, w, e) to a nonzero ``int`` or ``Fraction`` c, where x
    is an integer lattice point, w is 0 (identity) or 1 (the reflection) and
    e is the exponent of v.  This is the format the product computes in.
    """

    __slots__ = ("pres", "terms")

    def __init__(self, pres: AffineHeckePresentation, terms: Mapping[tuple, int | Fraction]):
        clean = {}
        for key, c in terms.items():
            try:
                x, w, e = key
            except (TypeError, ValueError):
                raise HeckeError(f"term keys must be (x, w, e) triples, not {key!r}") from None
            if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                raise HeckeError(f"coefficients must be int or Fraction, not {type(c).__name__}")
            if any(type(k) is not int for k in (x, w, e)):
                raise HeckeError("lattice point, Weyl component and v-exponent must be integers")
            if not c:
                continue
            if w not in (0, 1):
                raise HeckeError("Weyl component must be 0 or 1")
            if w == 1 and pres.weyl_order == 1:
                raise HeckeError("no reflection basis vector over a trivial finite part")
            clean[x, w, e] = c
        self.pres = pres
        self.terms = clean

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        _check_pres(self, other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return HeckeElement(self.pres, out)

    def __neg__(self):
        return HeckeElement(self.pres, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return HeckeElement(self.pres, {k: c * other for k, c in self.terms.items()})
        return multiply(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        same = self.pres is other.pres or self.pres == other.pres
        return same and self.terms == other.terms

    def specialize_v(self, value) -> dict:
        """Nonzero coefficients of theta_x T_w with v set to an exact nonzero value."""
        value = Fraction(value)
        if not value:
            raise HeckeError("v must be specialized to a nonzero value")
        # one power per distinct exponent; integral powers stay int, so int sums stay int
        powers = {e: value ** e for e in {e for (_, _, e) in self.terms}}
        powers = {e: p.numerator if p.denominator == 1 else p for e, p in powers.items()}
        out: dict = {}
        for (x, w, e), c in self.terms.items():
            out[x, w] = out.get((x, w), 0) + c * powers[e]
        return {k: c for k, c in out.items() if c}

    def render(self) -> str:
        if not self.terms:
            return "0"
        coeffs: dict = {}
        for (x, w, e), c in self.terms.items():
            coeffs.setdefault((x, w), {})[e, 0] = Fraction(c)
        parts = []
        for (x, w) in sorted(coeffs):
            tw = "T[0]" if w else "T[]"
            cs = LaurentExpr(COEFF_RING, coeffs[x, w]).render()
            head = "" if cs == "1" else (f"({cs})*" if ("+" in cs or " - " in cs or "/" in cs) else f"{cs}*")
            parts.append(f"{head}theta[{x}]*{tw}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<HeckeElement {self.render()}>"


def _check_pres(a: HeckeElement, b: HeckeElement):
    if a.pres is not b.pres and a.pres != b.pres:
        raise HeckeError("elements live over different presentations")


def basis_element(pres: AffineHeckePresentation, x: int, w: int, coeff=1) -> HeckeElement:
    return HeckeElement(pres, {(x, w, 0): coeff})


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


def _structure_constants(pres: AffineHeckePresentation) -> list:
    """The commutation coefficient g as (X-shift, v-exponent, sign) triples.

    g = q^lam - 1 + X^{-1} (v^{lam+lam_star} - v^{lam-lam_star}); a pair of
    terms that cancels (lam = 0 or lam_star = 0) is left out.
    """
    lam, lam_star = pres.weights.pair()
    g = []
    if lam:
        g += [(0, 2 * lam, 1), (0, 0, -1)]
    if lam_star:
        g += [(-1, lam + lam_star, 1), (-1, lam - lam_star, -1)]
    return g


class _ProductTable(dict):
    """(y, u) -> T_s theta_y T_u as (X-shift, w', v-shift, sign) terms, filled on first use.

    T_s theta_y T_u = theta_{-y} T_s T_u - g Q(y) T_u, with
    T_s T_s = (q^lam - 1) T_s + q^lam, g from ``_structure_constants`` and the
    quotient Q(y) from ``_commutation_quotient``.
    """

    __slots__ = ("g", "two_lam")

    def __init__(self, pres: AffineHeckePresentation):
        self.g, self.two_lam = [], 0
        if pres.weyl_order == 2:
            self.g, self.two_lam = _structure_constants(pres), 2 * pres.weights.pair()[0]

    def __missing__(self, key):
        y, u = key
        two_lam = self.two_lam
        # T_s T_u as (w', v-shift, sign)
        ts_u = [(1, 0, 1)] if u == 0 else [(1, two_lam, 1), (1, 0, -1), (0, two_lam, 1)]
        quotient = _commutation_quotient(y)
        entry = [(-y, wu, de, sign) for wu, de, sign in ts_u]
        entry += [(s + k, u, ge, -gs * ks) for s, ge, gs in self.g for k, ks in quotient]
        self[key] = entry
        return entry


# the last presentation multiplied over and its product table; the strong
# reference keeps the presentation alive, so the identity test cannot be fooled
# by a reused id
_TABLE = (None, None)


def _product_table(pres: AffineHeckePresentation) -> _ProductTable:
    """The product table of ``pres``, built on the first product over it.

    One table is kept, for the last presentation used; an equal but distinct
    presentation builds its own.
    """
    global _TABLE
    cached, table = _TABLE
    if cached is not pres:
        table = _ProductTable(pres)
        _TABLE = pres, table
    return table


def multiply(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Product of two elements over the same presentation, in the theta-T basis."""
    _check_pres(a, b)
    pres = a.pres
    table = _product_table(pres)
    out: dict = {}
    get = out.get
    right = b.terms.items()
    for (x, w, e1), c1 in a.terms.items():
        for (y, u, e2), c2 in right:
            c, e = c1 * c2, e1 + e2
            if w == 0:
                key = x + y, u, e
                out[key] = get(key, 0) + c
                continue
            # theta_x T_s theta_y T_u = theta_x (T_s theta_y T_u)
            for dx, wu, de, sign in table[y, u]:
                key = x + dx, wu, e + de
                out[key] = get(key, 0) + sign * c
    if 0 in out.values():  # drop cancelled terms; most products have none
        out = {k: c for k, c in out.items() if c}
    # the operands were validated when built, so the product needs no second check
    product = HeckeElement.__new__(HeckeElement)
    product.pres, product.terms = pres, out
    return product


# ---------------------------------------------------------------------------
# Relation verification harness
# ---------------------------------------------------------------------------


@record()
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@record()
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


# the harness multiplies all basis pairs up to the degree bound, so the work
# of verify_relations grows about cubically in it
MAX_DEGREE_BOUND = 32

# k -> D(k) = (X^k - X^-k) / (1 - X^-2) as {X-exponent: c}, by exact division on
# the first use of k; D(k) does not depend on the presentation, and the harness
# reads |k| <= MAX_DEGREE_BOUND + 1, so this holds at most 67 entries
_QUOTIENTS: dict = {}


def _exact_quotient(k: int) -> dict:
    if k not in _QUOTIENTS:
        xi = COEFF_RING.index["X"]
        d = exact_div(_X ** k - _X ** -k, _ONE - _X ** -2)
        _QUOTIENTS[k] = {e[xi]: c for e, c in d.terms.items()}
    return _QUOTIENTS[k]


def _demazure_lusztig(pres: AffineHeckePresentation, quotients: dict):
    """The operator of T_s on Laurent polynomials in X over Z[v, v^-1].

    Polynomials are {(X-exponent, v-exponent): c} dicts, and
    T_s X^k = q^lam X^{-k} + g D(k) with D(k) = (X^k - X^{-k}) / (1 - X^{-2})
    read from ``quotients`` (k -> {X-exponent: c}).  g is built here from its
    formula, not from the structure constants the product uses.
    """
    lam, lam_star = pres.weights.pair()
    # g = q^lam - 1 + X^-1 (v^(lam+lam*) - v^(lam-lam*)) as (X-shift, v-exponent) -> c
    g: dict = {}
    for s, ge, c in ((0, 2 * lam, 1), (0, 0, -1), (-1, lam + lam_star, 1), (-1, lam - lam_star, -1)):
        g[s, ge] = g.get((s, ge), 0) + c
    g = [(s, ge, c) for (s, ge), c in g.items() if c]

    def t_s(vec: dict) -> dict:
        out: dict = {}
        for (k, e), c in vec.items():
            key = -k, e + 2 * lam
            out[key] = out.get(key, 0) + c
            for j, d in quotients[k].items():
                for s, ge, gc in g:
                    key = j + s, e + ge
                    out[key] = out.get(key, 0) + c * d * gc
        return {k: c for k, c in out.items() if c}

    return t_s


def _act(terms: dict, images: dict) -> dict:
    """The polynomial sum c v^e X^x rho(T_w) f, given images[w] = rho(T_w) f."""
    out: dict = {}
    for (x, w, e), c in terms.items():
        for (k, e2), d in images[w].items():
            key = k + x, e + e2
            out[key] = out.get(key, 0) + c * d
    return {k: c for k, c in out.items() if c}


def verify_relations(pres: AffineHeckePresentation, degree_bound: int = 3) -> RelationReport:
    """Run the consistency suite on one presentation; failures are reported.

    Checks, in order: ``quadratic`` and ``quadratic-s1``, the quadratic
    relations of T_s (label lam) and of T_s1 = v^{lam+lam_star} theta_1 T_s^{-1}
    (label lam_star); ``bernstein-exact-division``, the closed-form
    commutation quotient against exact division;
    ``group-algebra-degeneration``, the q -> 1 limit; and ``representation``.
    The degree bound b is 1 to ``MAX_DEGREE_BOUND``, else :class:`HeckeError`.

    Each basis product theta_x T_w * theta_y T_u with |x|, |y| <= b is formed
    once and shared by the q -> 1 check and ``representation``.
    ``representation`` rests on two facts.  In the algebra
    theta_x (theta_z T_t) = theta_{x+z} T_t, so every product must be the
    x-shift of the one at x = 0; that is compared on every pair.  And the
    polynomial representation rho (theta_x acts as X^x, T_s by the
    Demazure-Lusztig operator) is faithful, so on the pairs with x = 0,
    rho(T_w * theta_y T_u) f = rho(T_w) rho(theta_y T_u) f for f in {1, X}
    shows the product is the algebra's.  The Laurent polynomials are free on
    {1, X} over the symmetric ones, which every rho(h) commutes with, so two
    test vectors suffice.  Together the two parts show that ``multiply`` is
    the algebra product on every basis pair in the range, with O(b)
    representation work.  v is central, so at x = 0 a right operand
    v^e theta_y T_u (e = -1, 1) must give the v^e-shift of the basis product;
    ``representation`` compares that too, and ``quadratic-s1`` multiplies
    operands of several terms, where ``multiply`` must also be bilinear.
    At q = 1 the x-shift of a product specializes to the x-shift of its value,
    as in the group algebra, so a product that passed the shift comparison
    degenerates exactly when its x = 0 product does; only the x = 0 products
    and any that failed the shift are specialized.
    """
    if not 1 <= degree_bound <= MAX_DEGREE_BOUND:
        raise HeckeError(f"degree bound must be between 1 and {MAX_DEGREE_BOUND}")
    checks = []
    b = degree_bound

    def elem(x, w, e=0, c=1):
        return HeckeElement(pres, {(x, w, e): c})

    ws = (0, 1) if pres.weyl_order == 2 else (0,)
    basis = {(x, w): elem(x, w) for x in range(-b, b + 1) for w in ws}

    # 1. quadratic relations of T_s0 = T_s and T_s1 = v^(lam+lam*) theta_1 T_s0^-1;
    # terms are added one by one because they share keys at lam = 0
    if pres.weyl_order == 2:
        lam, lam_star = pres.weights.pair()
        t0 = elem(0, 1)
        rhs = elem(0, 1, 2 * lam) + elem(0, 1, 0, -1) + elem(0, 0, 2 * lam)
        checks.append(CheckResult("quadratic", multiply(t0, t0) == rhs, f"(T+1)(T-q^{lam}) = 0"))
        # T_s0^-1 = q^-lam T_s0 - (1 - q^-lam)
        t0_inv = elem(0, 1, -2 * lam) + elem(0, 0, 0, -1) + elem(0, 0, -2 * lam)
        t1 = multiply(elem(1, 0, lam + lam_star), t0_inv)
        lhs = multiply(t1 + elem(0, 0), t1 - elem(0, 0, 2 * lam_star))
        checks.append(
            CheckResult("quadratic-s1", lhs.is_zero(), f"(T1+1)(T1-q^{lam_star}) = 0")
        )
    else:
        checks.append(CheckResult("quadratic", True, "trivial finite part"))
        checks.append(CheckResult("quadratic-s1", True, "trivial finite part"))

    # rho(T_w) f for the test vectors f = 1, X, as images[f][w]
    images = [{0: {(0, 0): 1}}, {0: {(1, 0): 1}}]
    # D(k) by exact division, once per k in the process; the closed-form
    # quotient check and the operator of T_s both read it
    quotients = {}
    if pres.weyl_order == 2:
        quotients = {k: _exact_quotient(k) for k in range(-b - 1, b + 2)}
        t_s = _demazure_lusztig(pres, quotients)
        for im in images:
            im[1] = t_s(im[0])

    def degenerates(product, x, w, y, u):
        n, sign = affine_mul((x, 1 - 2 * w), (y, 1 - 2 * u))
        return product.specialize_v(1) == {(n, (1 - sign) // 2): 1}

    def represents(product, w, y, u):
        for im in images:
            inner = {(k + y, e): c for (k, e), c in im[u].items()}
            if _act(product.terms, im) != (t_s(inner) if w else inner):
                return False
        return True

    # 2. the basis-pair stream: each product is formed once, x = 0 first
    xs = [0] + [x for x in range(-b, b + 1) if x]
    degen_ok = rep_ok = True
    degen_detail = rep_detail = ""
    for w, y, u in [(w, y, u) for w in ws for y in range(-b, b + 1) for u in ws]:
        right = basis[y, u]
        for x in xs:
            product = multiply(basis[x, w], right)
            if x == 0:
                base, shifted = product.terms, True
                base_degenerates = degenerates(product, 0, w, y, u)
                if rep_ok and not represents(product, w, y, u):
                    rep_ok = False
                    rep_detail = f"rho(product) is not rho(left) rho(right) on {(0, w)}*{(y, u)}"
                # v is central: a right operand v^d theta_y T_u gives the v^d-shift
                for d in (-1, 1):
                    scaled = multiply(basis[0, w], elem(y, u, d)).terms
                    if rep_ok and scaled != {(z, t, e + d): c for (z, t, e), c in base.items()}:
                        rep_ok = False
                        rep_detail = f"{(0, w)}*v^{d}{(y, u)} is not the v^{d}-shift of {(0, w)}*{(y, u)}"
            else:
                shifted = product.terms == {(z + x, t, e): c for (z, t, e), c in base.items()}
                if rep_ok and not shifted:
                    rep_ok = False
                    rep_detail = f"{(x, w)}*{(y, u)} is not the x-shift of {(0, w)}*{(y, u)}"
            # at q = 1 the x-shift of the x = 0 product is the x-shift of its value,
            # as in the group algebra, so it degenerates exactly when that one does
            if degen_ok and not (base_degenerates if shifted else degenerates(product, x, w, y, u)):
                degen_ok = False
                degen_detail = f"q->1 failed on {(x, w)}*{(y, u)}"

    # 3. the closed-form commutation quotient against exact division
    ok, detail = True, "trivial finite part"
    if pres.weyl_order == 2:
        detail = f"x in [-{b}, {b}]"
        for x in range(-b, b + 1):
            closed: dict = {}
            for k, sign in _commutation_quotient(x):
                closed[k] = closed.get(k, 0) + sign
            if {k: c for k, c in closed.items() if c} != quotients[-x]:
                ok = False
                detail = f"closed-form quotient differs from exact division at x = {x}"
                break
    checks.append(CheckResult("bernstein-exact-division", ok, detail))

    # 4. q -> 1 degeneration to the group algebra of the affine Weyl group,
    # and 5. the representation check, both from the stream above
    checks.append(CheckResult("group-algebra-degeneration", degen_ok, degen_detail))
    checks.append(CheckResult("representation", rep_ok, rep_detail or f"{len(basis) ** 2} pairs"))
    return RelationReport(pres, checks)


# ---------------------------------------------------------------------------
# Lusztig weight-function membership
# ---------------------------------------------------------------------------


def default_lusztig_allowed() -> set:
    """The (lambda, lambda*) pairs of H_G and H_G0 in the packaged golden tables: the
    tables' own label column, not an independent admissible set (pass one as ``allowed``)."""
    from .blocks import FAMILIES, golden_table  # blocks imports this module

    rows = [row["classification"] for family in FAMILIES for row in golden_table(family)["rows"]]
    return {(h["lambda"], h["lambda_star"]) for c in rows for h in (c["H_G"], c["H_G0"]) if "lambda" in h}


def check_lusztig(weights: WeightFunction, allowed: set | None = None) -> bool:
    """Membership of the rank-1 label pair in the allowed collection."""
    pair = weights.pair()
    if allowed is None:
        allowed = default_lusztig_allowed()
    return tuple(pair) in {tuple(p) for p in allowed}
