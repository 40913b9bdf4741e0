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

      (theta_{-y} - theta_y) / (1 - X^{-2}) = -sgn(y) sum_{k<|y|} theta_{|y|-2k}.

The product works directly on that flat storage; coefficients stay int
unless a caller supplied a Fraction.  It reads T_s theta_y T_u from one
product table for every label pair, whose entries are expanded from these
rules on first use, with v-shifts stored as (i, j) for v^{i lam + j lam_star};
a product specializes them to its pair in its term loop.

The relation harness keeps one independent check per fact: the quadratic
relation of the second affine reflection T_s1 = v^{lam+lam_star} theta_1
T_s^{-1} (where a wrong lam_star shows), the q -> 1 limit, and
``representation``, which checks every basis product, T_s T_s and so the
quadratic relation of T_s among them.  The polynomial
representation rho of the algebra on Laurent polynomials in X (theta_x acts
as X^x, T_s by the Demazure-Lusztig operator
T_s f = q^lam s(f) + g (f - s(f)) / (1 - X^{-2})) is faithful (Lusztig,
JAMS 1989, sections 3-5; Macdonald, "Affine Hecke Algebras and Orthogonal
Polynomials", ch. 4).  So a product at x = 0 that rho maps to the composed
operators is the algebra's product.  Off x = 0 the harness's right operand
is 3 v^d theta_y T_u, with d the sign of x; since
theta_x T_w = theta_x (theta_0 T_w) and v is central, that product must be
3 v^d times the x-shift of the one at x = 0.  Checking rho at x = 0 and the
scaled shift elsewhere covers every basis pair up to the bound with one
product each, and with them both v-powers d = +-1 and a coefficient that is
not +-1.  The operator is built from g's own formula and from exact
division, not from the product's ``_G`` or closed-form quotient, so the
closed form is checked against exact division on every T_s theta_y product
with |y| up to the bound.
"""

from __future__ import annotations

from collections.abc import Mapping

from ._record import record
from .exactalg import LaurentExpr, _div, _exact, _is_number, _repr, exact_div, ring
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
        if any(type(x) is not int or x < 0 for x in (self.lam, self.lam_star)):
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

    def __init__(self, pres: AffineHeckePresentation, terms: Mapping):
        clean = {}
        for key, c in terms.items():
            try:
                x, w, e = key
            except (TypeError, ValueError):
                raise HeckeError(f"term keys must be (x, w, e) triples, not {key!r}") from None
            if not _is_scalar(c):
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
        if not isinstance(other, HeckeElement):
            return NotImplemented
        _check_pres(self, other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return HeckeElement(self.pres, out)

    def __neg__(self):
        return HeckeElement(self.pres, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, HeckeElement):
            return multiply(self, other)
        return self.__rmul__(other)

    def __rmul__(self, other):
        # only a scalar reaches here from the left: a HeckeElement takes __mul__
        if not _is_scalar(other):
            return NotImplemented
        return HeckeElement(self.pres, {k: c * other for k, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        same = self.pres is other.pres or self.pres == other.pres
        return same and self.terms == other.terms

    def specialize_v(self, value) -> dict:
        """Nonzero coefficients of theta_x T_w with v set to a nonzero int or Fraction."""
        if not _is_scalar(value) or not value:
            raise HeckeError(f"v must be specialized to a nonzero int or Fraction, not {value!r}")
        # one exact power per distinct exponent; integral powers stay int, so int sums stay int
        exponents = {e for (_, _, e) in self.terms}
        powers = {e: _exact(value ** e) if e >= 0 else _div(1, value ** -e) for e in exponents}
        out: dict = {}
        for (x, w, e), c in self.terms.items():
            out[x, w] = out.get((x, w), 0) + c * powers[e]
        return {k: c for k, c in out.items() if c}

    def render(self) -> str:
        if not self.terms:
            return "0"
        coeffs: dict = {}
        for (x, w, e), c in self.terms.items():
            coeffs.setdefault((x, w), {})[e, 0] = c
        parts = []
        for (x, w) in sorted(coeffs):
            tw = "T[0]" if w else "T[]"
            cs = LaurentExpr(COEFF_RING, coeffs[x, w]).render()
            head = "" if cs == "1" else (f"({cs})*" if ("+" in cs or " - " in cs or "/" in cs) else f"{cs}*")
            parts.append(f"{head}theta[{x}]*{tw}")
        return " + ".join(parts)

    def __repr__(self):
        return _repr(self, self.terms.items())


def _is_scalar(c) -> bool:
    """An exact scalar is an int or a Fraction; a bool is not one."""
    return type(c) is int or (_is_number(c) and not isinstance(c, bool))


def _check_pres(a: HeckeElement, b: HeckeElement):
    if a.pres is not b.pres and a.pres != b.pres:
        raise HeckeError("elements live over different presentations")


def basis_element(pres: AffineHeckePresentation, x: int, w: int, coeff=1) -> HeckeElement:
    """coeff * theta_x T_w, with w = 0 for the identity and 1 for the reflection."""
    return HeckeElement(pres, {(x, w, 0): coeff})


def _commutation_quotient(y: int) -> list:
    """(theta_{-y} - theta_y) / (1 - X^{-2}) as (exponent, sign) pairs.

    The quotient is -sgn(y) * sum_{k < |y|} theta_{|y| - 2k}, empty at y = 0.
    """
    sign = -1 if y > 0 else 1
    return [(abs(y) - 2 * k, sign) for k in range(abs(y))]


# g = q^lam - 1 + X^{-1} (v^{lam+lam_star} - v^{lam-lam_star}) as (X-shift, i, j,
# sign) terms, where (i, j) stands for v^{i lam + j lam_star}
_G = ((0, 2, 0, 1), (0, 0, 0, -1), (-1, 1, 1, 1), (-1, 1, -1, -1))


class _ProductTable(dict):
    """(y, u) -> T_s theta_y T_u as (X-shift, w', i, j, sign) terms, filled on first use.

    T_s theta_y T_u = theta_{-y} T_s T_u - g Q(y) T_u, with
    T_s T_s = (q^lam - 1) T_s + q^lam, g from ``_G`` and the quotient Q(y)
    from ``_commutation_quotient``.  A v-shift (i, j) is v^{i lam + j lam_star},
    so one table serves every label pair, and it grows only with the distinct
    y that products reach.  At lam = 0 or lam_star = 0 a pair of terms lands on
    one key with opposite signs; the product drops it once summed.
    """

    def __missing__(self, key):
        y, u = key
        # T_s T_u as (w', i, j, sign)
        ts_u = [(1, 0, 0, 1)] if u == 0 else [(1, 2, 0, 1), (1, 0, 0, -1), (0, 2, 0, 1)]
        quotient = _commutation_quotient(y)
        entry = [(-y, wu, i, j, sign) for wu, i, j, sign in ts_u]
        entry += [(s + k, u, i, j, -gs * ks) for s, i, j, gs in _G for k, ks in quotient]
        self[key] = entry
        return entry


_TABLE = _ProductTable()


def multiply(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Product of two elements over the same presentation, in the theta-T basis."""
    _check_pres(a, b)
    pres = a.pres
    lam, lam_star = (0, 0) if pres.weights is None else pres.weights.pair()
    table = _TABLE
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
            for dx, wu, i, j, sign in table[y, u]:
                key = x + dx, wu, e + i * lam + j * lam_star
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

# (M^2, M) with M = 2^10: a label pair at which verify_relations checks every pair
_GENERIC_PAIR = (1 << 20, 1 << 10)

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
    formula, not from the ``_G`` the product reads.
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


def _check_bound(degree_bound: int):
    if type(degree_bound) is not int or not 1 <= degree_bound <= MAX_DEGREE_BOUND:
        raise HeckeError(f"degree bound must be between 1 and {MAX_DEGREE_BOUND}")


def verify_relations(pres: AffineHeckePresentation, degree_bound: int = 3) -> RelationReport:
    """Run the consistency suite on one presentation; failures are reported.

    Checks, in order: ``quadratic-s1``, the quadratic relation of
    T_s1 = v^{lam+lam_star} theta_1 T_s^{-1} (label lam_star);
    ``group-algebra-degeneration``, the q -> 1 limit; and ``representation``.
    The degree bound b is an ``int`` from 1 to ``MAX_DEGREE_BOUND``, else
    :class:`HeckeError`.

    Each basis pair theta_x T_w, theta_y T_u with |x|, |y| <= b gives one
    product, shared by the q -> 1 check and ``representation``.  At x = 0 the
    right operand is theta_y T_u; at x != 0 it is 3 v^d theta_y T_u, with d
    the sign of x.  ``representation`` rests on two facts.  In the algebra
    theta_x T_w = theta_x (theta_0 T_w) and v is central, so every product at
    x != 0 must be 3 v^d times the x-shift of the one at x = 0; that is
    compared on every pair.  And the polynomial representation rho (theta_x
    acts as X^x, T_s by the Demazure-Lusztig operator) is faithful, so on the
    pairs with x = 0, rho(T_w * theta_y T_u) f = rho(T_w) rho(theta_y T_u) f
    for f in {1, X} shows the product is the algebra's.  The Laurent
    polynomials are free on {1, X} over the symmetric ones, which every
    rho(h) commutes with, so two test vectors suffice.  Together the two parts
    show that ``multiply`` is the algebra product on every pair the stream
    forms, one for each basis pair in the range, with O(b) representation
    work.  T_s T_s is one of those pairs, so the quadratic relation of T_s
    (label lam) is checked there, and so is the closed-form quotient Q(y)
    that T_s theta_y reads, against exact division, for |y| <= b.  Every
    (w, y, u) meets both d = -1 and d = 1.  The operands at x = 0 and those
    of ``quadratic-s1`` have coefficients +-1, so the 3 is what shows a
    product that mishandles coefficients, such as one that divides them where
    it should multiply.  ``quadratic-s1`` multiplies operands of several
    terms, where ``multiply`` must also be bilinear.
    At q = 1 a product that is 3 v^d times the x-shift specializes to 3 times
    the x-shift of the x = 0 value, as in the group algebra, so it degenerates
    exactly when the x = 0 product does.  Only the x = 0 products and any
    that failed the shift are specialized, the latter against 3 times the
    group element.

    One run at ``_GENERIC_PAIR`` = (M^2, M), M = 2^10, checks every label
    pair.  ``multiply`` maps each term (k, i, j) of its table, v^k A^i B^j
    over Z[v^+-1, A^+-1, B^+-1], to the v-exponent k + i lam + j lam_star:
    the ring map A -> v^lam, B -> v^lam_star (Lusztig 1989, section 3).
    rho and the operands are built from such monomials too.  Every
    v-exponent that a product, rho(T_s) or its action returns is
    k + i lam + j lam_star with -1 <= i <= 4, |j| <= 2 and |k| <= 1,
    measured at bounds 3 and 32; the operands and the shifted products add
    at most 1 to |k|.  Those are far below M/2 = 512, so at the generic pair
    distinct monomials keep distinct exponents, every comparison there is
    one over the generic ring, and what passes there holds under every
    specialization.  Each exponent there stays below 2^23, one CPython digit
    (below 2^30).  The map is not injective where terms cancel: at (0, 0),
    q^lam - 1 and v^(lam-lam_star) - v^(lam+lam_star) vanish, and the
    product's dropping of cancelled terms is checked only by a run at such
    a pair.
    """
    _check_bound(degree_bound)
    checks = []
    b = degree_bound

    def elem(x, w, e=0, c=1):
        return HeckeElement(pres, {(x, w, e): c})

    ws = (0, 1) if pres.weyl_order == 2 else (0,)
    basis = {(x, w): elem(x, w) for x in range(-b, b + 1) for w in ws}

    # 1. the quadratic relation of T_s1 = v^(lam+lam*) theta_1 T_s^-1; terms
    # are added one by one because they share keys at lam = 0
    if pres.weyl_order == 2:
        lam, lam_star = pres.weights.pair()
        # T_s^-1 = q^-lam T_s - (1 - q^-lam)
        t0_inv = elem(0, 1, -2 * lam) + elem(0, 0, 0, -1) + elem(0, 0, -2 * lam)
        t1 = multiply(elem(1, 0, lam + lam_star), t0_inv)
        lhs = multiply(t1 + elem(0, 0), t1 - elem(0, 0, 2 * lam_star))
        checks.append(
            CheckResult("quadratic-s1", lhs.is_zero(), f"(T1+1)(T1-q^{lam_star}) = 0")
        )
    else:
        checks.append(CheckResult("quadratic-s1", True, "trivial finite part"))

    # rho(T_w) f for the test vectors f = 1, X, as images[f][w]
    images = [{0: {(0, 0): 1}}, {0: {(1, 0): 1}}]
    if pres.weyl_order == 2:
        # D(k) by exact division, once per k in the process
        t_s = _demazure_lusztig(pres, {k: _exact_quotient(k) for k in range(-b - 1, b + 2)})
        for im in images:
            im[1] = t_s(im[0])

    def degenerates(product, x, w, y, u, c=1):
        n, sign = affine_mul((x, 1 - 2 * w), (y, 1 - 2 * u))
        return product.specialize_v(1) == {(n, (1 - sign) // 2): c}

    def represents(product, w, y, u):
        for im in images:
            inner = {(k + y, e): c for (k, e), c in im[u].items()}
            if _act(product.terms, im) != (t_s(inner) if w else inner):
                return False
        return True

    # the basis-pair stream: each product is formed once, x = 0 first; a check's
    # first failure is its detail, and a failed check does none of its work again.
    # Off x = 0 the right operand is 3 v^d theta_y T_u, d the sign of x
    right = {(y, u, d): elem(y, u, d, 3 if d else 1) for (y, u) in basis for d in (-1, 0, 1)}
    xs = [0] + [x for x in range(-b, b + 1) if x]
    degen, rep = "group-algebra-degeneration", "representation"
    first: dict = {}
    for w, y, u in [(w, y, u) for w in ws for y in range(-b, b + 1) for u in ws]:
        for x in xs:
            d = (x > 0) - (x < 0)
            product = multiply(basis[x, w], right[y, u, d])
            if not d:
                base = product.terms
                if degen not in first and not degenerates(product, 0, w, y, u):
                    first[degen] = f"q->1 failed on {(0, w)}*{(y, u)}"
                if rep not in first and not represents(product, w, y, u):
                    first[rep] = f"rho(product) is not rho(left) rho(right) on {(0, w)}*{(y, u)}"
            # theta_x T_w = theta_x (theta_0 T_w) and v is central, so the product is
            # 3 v^d times the x-shift of the x = 0 one
            elif product.terms != {(z + x, t, e + d): 3 * c for (z, t, e), c in base.items()}:
                first.setdefault(rep, f"{(x, w)}*3v^{d}{(y, u)} is not 3v^{d} times the x-shift of {(0, w)}*{(y, u)}")
                # at q = 1 a product that is that shift is 3 times the x-shift of the
                # x = 0 value, as in the group algebra, so only this one is specialized
                if degen not in first and not degenerates(product, x, w, y, u, 3):
                    first[degen] = f"q->1 failed on {(x, w)}*3v^{d}{(y, u)}"

    # 2. q -> 1 degeneration to the group algebra of the affine Weyl group,
    # and 3. the representation check, both from the stream above
    for name, detail in ((degen, ""), (rep, f"{len(basis) ** 2} pairs")):
        checks.append(CheckResult(name, name not in first, first.get(name, detail)))
    return RelationReport(pres, checks)


# ---------------------------------------------------------------------------
# Lusztig weight-function membership
# ---------------------------------------------------------------------------


def check_lusztig(weights: WeightFunction, allowed) -> bool:
    """Membership of the rank-1 label pair in ``allowed``, any collection of pairs.

    A frozenset is taken as a set of tuples already, so a caller that checks
    many rows converts its collection once (``_pair_set``).
    """
    return tuple(weights.pair()) in _pair_set(allowed)


def _pair_set(allowed) -> frozenset:
    """Any collection of (lambda, lambda*) pairs as a frozenset of tuples."""
    return allowed if isinstance(allowed, frozenset) else frozenset(map(tuple, allowed))
