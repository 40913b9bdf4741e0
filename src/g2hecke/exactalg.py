"""Exact multivariate Laurent polynomial and rational function arithmetic.

Everything is computed exactly over the rationals, with no floating point
anywhere: a coefficient is an ``int``, or a ``fractions.Fraction`` only when
it is not an integer, and every division goes through one exact-quotient
helper, which imports ``fractions`` (and so ``decimal``) only for a quotient
that is not integral.  A :class:`RingContext` fixes an ordered tuple of variable names
once; Laurent polynomials over that context are sparse maps from integer
exponent vectors to nonzero rational coefficients.  The monomial order is
lexicographic on the declared variable order and is not configurable, so
canonical forms are reproducible.

Three conventions matter for the rest of the package:

* A variable may be declared with a *square alias* (typically ``v`` with
  alias ``q``, encoding q = v^2 so that half-integer powers of q stay
  polynomial).  The alias is accepted by the parser and used by the printer
  for even powers, but internally the alias is always eliminated in favor of
  the base variable.
* Rational functions are stored reduced (multivariate gcd removed, common
  monomial factors cleared) with a monic denominator under the lex order,
  which makes equality a dictionary comparison.  Each normal form is set
  in one place: ``_unshift`` alone computes monomial content, and the
  :class:`RationalExpr` constructor alone scales to monic.  Monomials are
  units of the Laurent ring, so the one gcd entry strips each input's
  monomial content first, and answers a one-term operand (a constant or
  monomial) itself with gcd 1.  Otherwise it tries the heuristic integer
  gcd GCDHEU (evaluate at a large integer, take the integer gcd, rebuild
  the candidate from its digits, keep it only if it divides both inputs
  exactly) and runs the primitive pseudo-remainder sequence only when no
  candidate divides.  Its answer is a gcd up to a rational factor.
* :class:`RationalExpr` alone promotes mixed operands: a
  :class:`LaurentExpr` operator returns ``NotImplemented`` for a fraction,
  so Python calls the fraction's reflected operator.  Equal values hash
  alike: a constant hashes as its ``int`` or ``Fraction`` value, and a
  fraction with denominator 1 as its numerator.

Roots of unity never appear as floats: all implemented cases only need units
of order 1 or 2, which are the rational constants +1 and -1.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Mapping
from math import comb, gcd, isqrt, lcm
from operator import add, neg, sub

__all__ = [
    "RingContext",
    "LaurentExpr",
    "RationalExpr",
    "RingError",
    "NonExactDivision",
    "ring",
    "exact_div",
    "eval_unit_circle_zeros",
    "parse_expr",
]


class RingError(ValueError):
    """Raised for invalid ring declarations or mixed-ring arithmetic."""


class NonExactDivision(ArithmeticError):
    """Raised when an exact polynomial quotient was required but does not exist."""


def _is_number(c) -> bool:
    """Whether ``c`` is an ``int`` (``bool`` included) or a ``Fraction``, which exists only once
    ``fractions`` is loaded: the test looks the module up instead of importing it."""
    if isinstance(c, int):
        return True
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(c, fractions.Fraction)


def _exact(c):
    """``c`` as a coefficient: an ``int`` when integral, else a ``Fraction``.

    Anything else, ``bool`` and ``float`` included, raises ``TypeError``.
    """
    if type(c) is int:
        return c
    if isinstance(c, bool) or not _is_number(c):
        raise TypeError(f"coefficients must be int or Fraction, not {type(c).__name__}")
    return c.numerator if c.denominator == 1 else c


def _div(a, b):
    """The exact quotient a/b of two coefficients, an ``int`` when integral.

    Every division in the kernel goes through here: ``int / int`` would give
    a float.
    """
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
        from fractions import Fraction

        return Fraction(a, b)
    q = a / b
    return q.numerator if q.denominator == 1 else q


def _is_name(s) -> bool:
    """Whether ``s`` is one name token of ``parse_expr``, ``[^\\W\\d]\\w*``: every character
    alphanumeric or ``_``, and the first not a decimal digit.  ``ring`` runs at import, so the
    rule is written with ``str`` methods and loads no ``re``."""
    return type(s) is str and s != "" and not s[0].isdecimal() and all(c.isalnum() or c == "_" for c in s)


class RingContext:
    """An ordered set of variable names shared by a family of expressions.

    ``square_aliases`` maps a declared variable to an undeclared alias name
    standing for its square (``{"v": "q"}``).  Alias names live only in the
    textual grammar; stored exponent vectors never contain them.
    """

    __slots__ = ("names", "index", "square_aliases", "_alias_to_var")

    def __init__(self, names: Iterable[str], square_aliases: Mapping[str, str] | None = None):
        names = tuple(names)
        if not names:
            raise RingError("a ring needs at least one variable")
        # every name is printed verbatim, so it must read back as one name token
        if len(set(names)) != len(names) or not all(map(_is_name, names)):
            raise RingError(f"duplicate variable name, or one that does not parse as a name, in {names!r}")
        square_aliases = dict(square_aliases or {})
        aliases = list(square_aliases.values())
        for var, alias in square_aliases.items():
            if var not in names:
                raise RingError(f"square alias declared for unknown variable {var!r}")
            # a shared alias reads back as the wrong variable
            if not _is_name(alias) or alias in names or aliases.count(alias) > 1:
                raise RingError(f"alias name {alias!r} does not parse as a name, or collides with a variable "
                                f"or another alias")
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}
        self.square_aliases = square_aliases
        self._alias_to_var = {alias: var for var, alias in square_aliases.items()}

    @property
    def nvars(self) -> int:
        return len(self.names)

    def zero(self) -> "LaurentExpr":
        return LaurentExpr(self, {})

    def one(self) -> "LaurentExpr":
        return self.const(1)

    def const(self, c) -> "LaurentExpr":
        """The constant ``c``, an ``int`` or ``Fraction``."""
        c = _exact(c)
        if c == 0:
            return self.zero()
        return _laurent(self, {(0,) * self.nvars: c})

    def _slot(self, name: str) -> int:
        """The exponent slot of a declared variable; an alias name has none."""
        try:
            return self.index[name]
        except KeyError:
            raise RingError(f"unknown variable {name!r} in ring {self.names!r}") from None

    def var(self, name: str, power: int = 1) -> "LaurentExpr":
        """The monomial ``name**power``; alias names expand to the base variable."""
        return self.monomial({name: power})

    def monomial(self, exponents: Mapping[str, int] | Iterable[int], coeff=1) -> "LaurentExpr":
        """``coeff``, an ``int`` or ``Fraction``, times a monomial given by name or as an exponent vector."""
        given = list(exponents.values() if isinstance(exponents, Mapping) else exponents)
        for e in given:
            if type(e) is not int:  # bool and float included
                raise RingError(f"exponents must be int, not {type(e).__name__}")
        if isinstance(exponents, Mapping):
            exps = [0] * self.nvars
            for name, e in exponents.items():
                if name in self._alias_to_var:
                    name, e = self._alias_to_var[name], 2 * e
                exps[self._slot(name)] += e
        else:
            exps = given
            if len(exps) != self.nvars:
                raise RingError("exponent vector has wrong length")
        c = _exact(coeff)
        if c == 0:
            return self.zero()
        return _laurent(self, {tuple(exps): c})

    def __repr__(self):
        return f"RingContext{self.names!r}"


def ring(variables: Iterable[str], square_aliases: Mapping[str, str] | None = None) -> RingContext:
    """Create a ring context; variable and alias names must be distinct names ``parse_expr`` reads."""
    return RingContext(variables, square_aliases)


def _check_same_ring(a: "LaurentExpr", b: "LaurentExpr"):
    if a.ring is not b.ring and a.ring.names != b.ring.names:
        raise RingError(f"mixed rings: {a.ring.names!r} vs {b.ring.names!r}")


class LaurentExpr:
    """A Laurent polynomial: sparse map exponent-vector -> nonzero coefficient.

    A coefficient is an ``int``, or a ``Fraction`` when it is not an
    integer; the constructor converts integral ``Fraction``s to ``int``,
    drops zeros and raises ``TypeError`` for any other type (``bool`` and
    ``float`` included).  Instances are immutable after construction and
    safe to share.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring_ctx: RingContext, terms: Mapping):
        clean = {}
        for e, c in terms.items():
            c = _exact(c)
            if c:
                clean[e] = c
        self.ring = ring_ctx
        self.terms = clean

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.ring.nvars: 1}

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {(0,) * self.ring.nvars}

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_value(self):
        """The value of a constant expression, an ``int`` or ``Fraction``."""
        if not self.is_constant():
            raise ValueError("not a constant expression")
        return next(iter(self.terms.values()), 0)

    def leading(self) -> tuple:
        """Lex-leading (exponent vector, coefficient)."""
        if not self.terms:
            raise ValueError("zero expression has no leading term")
        e = max(self.terms)
        return e, self.terms[e]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if _is_number(other):
            other = self.ring.const(other)
        if not isinstance(other, LaurentExpr):
            return NotImplemented
        _check_same_ring(self, other)
        return _laurent(self.ring, _poly_add(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return _laurent(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, (LaurentExpr, RationalExpr)) else -_exact(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_number(other):
            c = _exact(other)
            if c == 0:
                return self.ring.zero()
            return _laurent(self.ring, {e: _exact(c0 * c) for e, c0 in self.terms.items()})
        if not isinstance(other, LaurentExpr):
            return NotImplemented
        _check_same_ring(self, other)
        return _laurent(self.ring, _poly_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            if not self.is_monomial():
                raise NonExactDivision("negative power of a non-monomial expression")
            e, c = self.leading()
            inv = _laurent(self.ring, {tuple(-x for x in e): _div(1, c)})
            return inv ** (-n)
        # raised over the integers and divided by d^n once: Fraction products cost about 10 times more
        d, terms = _integral(self.terms)
        dn, out, base = d ** n, self.ring.one(), _laurent(self.ring, terms)
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out if dn == 1 else _laurent(self.ring, {e: _div(c, dn) for e, c in out.terms.items()})

    def __truediv__(self, other):
        if _is_number(other):
            c = _exact(other)
            if c == 0:
                raise ZeroDivisionError("division by zero")
            return _laurent(self.ring, {e: _div(c0, c) for e, c0 in self.terms.items()})
        if not isinstance(other, LaurentExpr):
            return NotImplemented
        _check_same_ring(self, other)
        return RationalExpr(self, other)

    def __rtruediv__(self, other):
        return RationalExpr(self.ring.const(other), self)

    def __eq__(self, other):
        if _is_number(other):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, LaurentExpr):
            return NotImplemented
        return self.ring.names == other.ring.names and self.terms == other.terms

    def __hash__(self):
        # a constant equals its int or Fraction value, so it hashes as that value
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.ring.names, frozenset(self.terms.items())))

    # -- substitution ------------------------------------------------------

    def substitute(self, name: str, value) -> "LaurentExpr":
        """Substitute ``name`` by an exact value.

        The value must be invertible when negative exponents occur: a nonzero
        rational constant or a single-term Laurent expression.
        """
        i = self.ring._slot(name)
        if _is_number(value):
            value = self.ring.const(value)
        _check_same_ring(self, value)
        needs_inverse = any(e[i] < 0 for e in self.terms)
        if needs_inverse and not value.is_monomial():
            raise NonExactDivision("substituting a non-invertible value into a negative power")
        if value.is_zero() and needs_inverse:
            raise ZeroDivisionError("substituting zero into a negative power")
        out = self.ring.zero()
        for e, c in self.terms.items():
            rest = list(e)
            k = rest[i]
            rest[i] = 0
            out = out + LaurentExpr(self.ring, {tuple(rest): c}) * (value ** k)
        return out

    def invert_variable(self, name: str) -> "LaurentExpr":
        """Apply the ring automorphism name -> name^-1."""
        i = self.ring._slot(name)
        return _laurent(
            self.ring,
            {tuple((-x if j == i else x) for j, x in enumerate(e)): c for e, c in self.terms.items()},
        )

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        out = []
        for e in sorted(self.terms, reverse=True):
            c, mono = self.terms[e], self._render_monomial(e)
            if out:
                out.append(" - " if c < 0 else " + ")
            elif c < 0:
                out.append("-")
            mag = abs(c)
            out.append(f"{mag}*{mono}" if mono and mag != 1 else mono or f"{mag}")
        return "".join(out) or "0"

    def _render_monomial(self, e: tuple) -> str:
        factors = []
        for name, exp in zip(self.ring.names, e):
            if exp == 0:
                continue
            alias = self.ring.square_aliases.get(name)
            if alias is not None and exp % 2 == 0:
                half = exp // 2
                factors.append(alias if half == 1 else f"{alias}^{half}")
            else:
                factors.append(name if exp == 1 else f"{name}^{exp}")
        return "*".join(factors)

    def __repr__(self):
        return _repr(self, self.terms.values())


def _repr(value, coeffs) -> str:
    """``<Type text>``; where ``render`` raises, since ``str`` refuses a coefficient past
    ``sys.get_int_max_str_digits()`` digits, the widest coefficient's bit length instead."""
    try:
        return f"<{type(value).__name__} {value.render()}>"
    except ValueError:
        bits = max(n.bit_length() for c in coeffs for n in (c.numerator, c.denominator))
        return f"<{type(value).__name__} with a {bits}-bit coefficient>"


def _laurent(ring_ctx: RingContext, terms: dict) -> LaurentExpr:
    """Wrap kernel output, whose coefficients are already exact and nonzero."""
    out = object.__new__(LaurentExpr)
    out.ring = ring_ctx
    out.terms = terms
    return out


# ---------------------------------------------------------------------------
# Polynomial kernel: lex division, multivariate gcd (heuristic, then PRS)
# ---------------------------------------------------------------------------


def _unshift(terms: dict):
    """(m, terms / x^m) for x^m the monomial content: the lowest power of each variable in ``terms``.

    The one place the kernel computes monomial content; the quotient is an
    honest polynomial touching exponent 0 in every variable.
    """
    m = tuple(map(min, zip(*terms)))
    return m, (_term_mul(terms, tuple(map(neg, m)), 1) if any(m) else terms)


def _term_mul(terms: dict, e0: tuple, c0: int) -> dict:
    return {tuple(map(add, e, e0)): c * c0 for e, c in terms.items()}


def _poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s if type(s) is int else _exact(s)
        else:
            out.pop(e, None)
    return out


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    for e, c in out.items():
        if type(c) is not int:
            out[e] = _exact(c)
    return out


def _poly_div_exact(f: dict, g: dict, integral: bool = False):
    """Quotient f/g when g divides f exactly (lex division); else None.

    Inputs must be polynomial dicts (all exponents >= 0).  Degrees add under
    multiplication in every variable, at the top and at the bottom, so a
    quotient term outside those ranges ends the division early.  With
    ``integral``, for integer inputs, a quotient coefficient that is not an
    integer ends it too, so no ``Fraction`` is made.
    """
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    if not f:
        return {}
    slots = range(len(next(iter(g))))
    lo = [min(e[i] for e in f) - min(e[i] for e in g) for i in slots]
    hi = [max(e[i] for e in f) - max(e[i] for e in g) for i in slots]
    if min(lo) < 0:
        return None
    q: dict = {}
    r = dict(f)
    ge = max(g)
    gc = g[ge]
    rest = [(e, c) for e, c in g.items() if e != ge]
    while r:
        re = max(r)
        qe = tuple(map(sub, re, ge))
        if any(x < a or x > b for x, a, b in zip(qe, lo, hi)):
            return None
        if integral and r[re] % gc:
            return None
        qc = q[qe] = _div(r.pop(re), gc)
        for e, c in rest:
            k = tuple(map(add, e, qe))
            s = r.get(k, 0) - c * qc
            if s:
                r[k] = s
            else:
                del r[k]
    return q


def _deg(f: dict, slot: int) -> int:
    return max(e[slot] for e in f)


def _coeff_in(f: dict, slot: int, d: int) -> dict:
    """Coefficient of x_slot^d, as a dict with slot exponent zeroed."""
    out = {}
    for e, c in f.items():
        if e[slot] == d:
            e2 = list(e)
            e2[slot] = 0
            out[tuple(e2)] = c
    return out


def _monic(f: dict) -> dict:
    """A nonzero f divided by its lex-leading coefficient."""
    lc = f[max(f)]
    return f if lc == 1 else {e: _div(c, lc) for e, c in f.items()}


def _poly_gcd(f: dict, g: dict, slot: int) -> dict:
    """Multivariate gcd over Q of the variables from ``slot`` on, up to a rational factor.

    The inputs may be Laurent.  Each is divided by its own monomial content
    first (``_unshift``), since gcd(m f, n g) = gcd(m, n) gcd(f, g) for
    monomials m, n and f, g prime to every variable: in the Laurent ring
    monomials are units.  A one-term operand then has gcd 1 with anything.
    Otherwise the heuristic integer gcd (``_heu``) is tried on the inputs
    cleared of denominators; only when it finds no verified candidate does
    the primitive pseudo-remainder sequence (``_prs_gcd``) run.  The scale is
    left as it falls: ``RationalExpr`` makes its denominator monic once.
    """
    if not f or not g:
        return f or g
    (lo_f, f), (lo_g, g) = _unshift(f), _unshift(g)
    if len(f) == 1 or len(g) == 1:
        h = {(0,) * len(lo_f): 1}
    else:
        h = _heu(_integral(f)[1], _integral(g)[1], tuple(range(slot, len(lo_f)))) or _prs_gcd(f, g, slot)
    return _term_mul(h, tuple(map(min, lo_f, lo_g)), 1)


# GCDHEU: Char, Geddes, Gonnet, "GCDHEU: Heuristic polynomial GCD algorithm
# based on integer GCD computation", J. Symbolic Comput. 7 (1989); see also
# Liao and Fateman, "Evaluation of the heuristic polynomial GCD", ISSAC 1995.

_HEU_TRIES = 4  # evaluation points per variable before giving up


def _integral(f: dict):
    """(d, f times d) for d the lcm of f's denominators: the second is an integer polynomial."""
    d = 1
    for c in f.values():
        if type(c) is not int:
            d = lcm(d, c.denominator)
    if d == 1:
        return d, f
    return d, {e: c * d if type(c) is int else c.numerator * (d // c.denominator) for e, c in f.items()}


def _int_primitive(f: dict):
    """(positive integer content, primitive part) of an integer polynomial."""
    c = gcd(*f.values())
    return c, (f if c == 1 else {e: v // c for e, v in f.items()})


def _eval_slot(f: dict, slot: int, xi: int) -> dict:
    """f with x_slot set to the integer xi; that slot's exponent becomes 0."""
    powers = [1]
    for _ in range(_deg(f, slot)):
        powers.append(powers[-1] * xi)
    out: dict = {}
    for e, c in f.items():
        k = e[:slot] + (0,) + e[slot + 1:]
        out[k] = out.get(k, 0) + c * powers[e[slot]]
    return {k: c for k, c in out.items() if c}


def _xi_adic(h: dict, slot: int, xi: int) -> dict:
    """The polynomial in x_slot whose coefficients are the symmetric xi-adic digits of h's."""
    half = xi // 2
    out = {}
    for e, c in h.items():
        i = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[e[:slot] + (i,) + e[slot + 1:]] = d
            c = (c - d) // xi
            i += 1
    return out


def _heu(f: dict, g: dict, slots: tuple):
    """gcd over Z of two nonzero integer polynomials in the variables ``slots``; None on failure.

    The integer content is carried: gcd(f, g) = gcd(cont f, cont g) times
    the gcd of the primitive parts.  An inner level needs it, because the
    values at x = xi of polynomials in x share integer factors that the
    xi-adic digits must see.  The first variable present is set to an
    integer xi, the gcd of the values is taken recursively, and the
    candidate rebuilt from its digits is accepted only if it divides both
    primitive parts exactly.  For xi > 2 min(|f|, |g|) + 2 (max-norms of
    the primitive parts) such a candidate is their gcd (Char, Geddes and
    Gonnet, Theorem 1), so xi starts at 2 min(|f|, |g|) + 3; a start from
    the larger norm would evaluate a small operand, such as v + X against
    (70001 v - 50003 X)^100, at a point of the large one's size.  The
    candidate is primitive and f, g are integral, so by Gauss's lemma it
    divides them over Q only with an integral quotient: the trial division
    stops at the first quotient coefficient that is not an integer, and no
    ``Fraction`` is made.  After a rejected xi the next is
    xi * isqrt(xi) + 1, so that a fixed common factor of the values, such
    as the 2^6 that (xi^2 - 1)^2 carries at every odd xi, is outgrown
    within a few tries.
    """
    cf, f = _int_primitive(f)
    cg, g = _int_primitive(g)
    c = gcd(cf, cg)
    present = [s for s in slots if any(e[s] for e in f) or any(e[s] for e in g)]
    if not present:
        return {next(iter(f)): c}
    slot, rest = present[0], tuple(present[1:])
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 3
    for _ in range(_HEU_TRIES):
        fe, ge = _eval_slot(f, slot, xi), _eval_slot(g, slot, xi)
        h = _heu(fe, ge, rest) if fe and ge else None
        if h is not None:
            cand = _int_primitive(_xi_adic(h, slot, xi))[1]
            if _poly_div_exact(f, cand, True) is not None and _poly_div_exact(g, cand, True) is not None:
                return {e: c * v for e, v in cand.items()}
        xi = xi * isqrt(xi) + 1
    return None


def _prs_gcd(f: dict, g: dict, slot: int) -> dict:
    """Multivariate gcd over Q via primitive pseudo-remainder sequences, up to a rational factor.

    Recursion is on variable slots, through ``_poly_gcd`` for the contents.
    Primitive parts are made monic, the kernel's only use of ``_monic``:
    otherwise the rational coefficients grow at every pseudo-division.  The
    fallback behind the heuristic: correct on every input, but its
    coefficients can swell in the inner variables.
    """

    def content(h: dict) -> dict:
        c: dict = {}
        for d in sorted({e[slot] for e in h}):
            c = _poly_gcd(c, _coeff_in(h, slot, d), slot + 1)
        return c

    def primitive(h: dict):
        cont = content(h)
        pp = _poly_div_exact(h, cont)
        if pp is None:
            raise NonExactDivision("the content does not divide the polynomial")
        return cont, _monic(pp)

    cf, pf = primitive(f)
    cg, pg = primitive(g)
    cont_gcd = _poly_gcd(cf, cg, slot + 1)

    a, b = pf, pg
    if _deg(a, slot) < _deg(b, slot):
        a, b = b, a
    while b:
        da, db = _deg(a, slot), _deg(b, slot)
        if da < db:
            a, b = b, a
            continue
        lc_b = _coeff_in(b, slot, db)
        # one pseudo-reduction step: lc(b)*a - lc(a)*x^(da-db)*b
        lc_a = _coeff_in(a, slot, da)
        shift = [0] * len(next(iter(a)))
        shift[slot] = da - db
        r = _poly_add(_poly_mul(lc_b, a), _poly_mul(_term_mul(lc_a, tuple(shift), -1), b))
        if r:
            _, r = primitive(r)
        a, b = b, r
    _, pp = primitive(a)
    return _poly_mul(cont_gcd, pp)


def exact_div(f: LaurentExpr, g: LaurentExpr) -> LaurentExpr:
    """The Laurent quotient f/g when it is a Laurent polynomial.

    Raises :class:`NonExactDivision` otherwise; used where a relation promises
    polynomial quotients, so a failure signals an implementation bug upstream.
    """
    _check_same_ring(f, g)
    if g.is_zero():
        raise ZeroDivisionError("division by zero expression")
    if f.is_zero():
        return f.ring.zero()
    (lo_f, fp), (lo_g, gp) = _unshift(f.terms), _unshift(g.terms)
    q = _poly_div_exact(fp, gp)
    if q is None:
        raise NonExactDivision(f"{g.render()} does not divide {f.render()} exactly")
    return _laurent(f.ring, _term_mul(q, tuple(map(sub, lo_f, lo_g)), 1))


class RationalExpr:
    """A reduced fraction of Laurent polynomials over a shared ring context.

    Canonical form: the multivariate gcd is removed, the denominator is an
    honest polynomial touching exponent 0 in every variable (its monomial
    content is absorbed into the numerator), and the denominator is monic
    under the lex order.  A value that is itself a Laurent polynomial
    therefore always has denominator 1.  The constructor is the kernel's one
    monic scaling: the gcd it divides out is known only up to a rational
    factor, and one division by the denominator's leading coefficient fixes
    the scale.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentExpr, den: LaurentExpr):
        _check_same_ring(num, den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        ctx = num.ring
        if num.is_zero():
            self.num = ctx.zero()
            self.den = ctx.one()
            return
        # the denominator's monomial content moves to the numerator, which may stay Laurent
        (lo_n, np_), (lo_d, dp) = _unshift(num.terms), _unshift(den.terms)
        g = _poly_gcd(np_, dp, 0)
        if len(g) > 1:
            # lowest exponents add in each variable, so dp / g keeps exponent 0 in each
            np_, dp = _poly_div_exact(np_, g), _poly_div_exact(dp, g)
            if np_ is None or dp is None:
                raise NonExactDivision("the gcd does not divide numerator and denominator")
        shift, lead = tuple(map(sub, lo_n, lo_d)), dp[max(dp)]
        self.num = _laurent(ctx, {tuple(map(add, e, shift)): _div(c, lead) for e, c in np_.items()})
        self.den = _laurent(ctx, dp if lead == 1 else {e: _div(c, lead) for e, c in dp.items()})

    @property
    def ring(self) -> RingContext:
        return self.num.ring

    def is_laurent(self) -> bool:
        return self.den.is_one()

    def as_laurent(self) -> LaurentExpr:
        if not self.is_laurent():
            raise NonExactDivision(f"{self.render()} is not a Laurent polynomial")
        return self.num

    def is_zero(self) -> bool:
        return self.num.is_zero()

    @staticmethod
    def _coerce(value, ctx: RingContext) -> "RationalExpr":
        """``value`` as a fraction: the one place a Laurent polynomial or constant is promoted."""
        if isinstance(value, RationalExpr):
            return value
        if isinstance(value, LaurentExpr):
            return RationalExpr(value, ctx.one())
        return RationalExpr(ctx.const(value), ctx.one())

    def __add__(self, other):
        o = self._coerce(other, self.ring)
        return RationalExpr(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalExpr(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other, self.ring))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other, self.ring)
        return RationalExpr(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other, self.ring)
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero expression")
        return RationalExpr(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return self._coerce(other, self.ring) / self

    def __pow__(self, n: int):
        if n < 0:
            return (self.ring.one() / self) ** (-n)
        # powers of a reduced numerator and denominator stay coprime, and the power of an
        # anchored monic denominator stays anchored and monic: the result needs no gcd
        out = object.__new__(RationalExpr)
        out.num, out.den = self.num ** n, self.den ** n
        return out

    def __eq__(self, other):
        if not (_is_number(other) or isinstance(other, (LaurentExpr, RationalExpr))):
            return NotImplemented
        o = self._coerce(other, self.ring)
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # a value with denominator 1 equals its numerator, so it hashes as that
        return hash(self.num) if self.den.is_one() else hash((self.num, self.den))

    def substitute(self, name: str, value) -> "RationalExpr":
        return RationalExpr(self.num.substitute(name, value), self.den.substitute(name, value))

    def invert_variable(self, name: str) -> "RationalExpr":
        return RationalExpr(self.num.invert_variable(name), self.den.invert_variable(name))

    def render(self) -> str:
        if self.is_laurent():
            return self.num.render()
        return f"({self.num.render()}) / ({self.den.render()})"

    def __repr__(self):
        return _repr(self, [*self.num.terms.values(), *self.den.terms.values()])


# ---------------------------------------------------------------------------
# Unit-circle zeros by evaluation at X = +-1
# ---------------------------------------------------------------------------


def eval_unit_circle_zeros(f: RationalExpr, var: str) -> set:
    """The signs s in {+1, -1} at which ``f`` vanishes for ``var`` = s.

    ``var - s`` is monic in ``var``, so it divides the numerator exactly when
    the numerator vanishes identically at ``var`` = s, whatever the other
    variables are.  A reduced ``f`` never has that factor in both numerator
    and denominator, so one evaluation of the numerator per sign decides.
    The zero expression vanishes at both.
    """
    num = f.num if isinstance(f, RationalExpr) else f
    slot = num.ring._slot(var)
    poly = _unshift(num.terms)[1]
    return {s for s in (1, -1) if not (poly and _eval_slot(poly, slot, s))}


# ---------------------------------------------------------------------------
# Textual grammar: parse / print round trip
# ---------------------------------------------------------------------------


# the most terms parse_expr lets one power expand to, estimated as the number
# of monomials of degree |e| in the base's terms; the term counts of the two
# operands of a product or quotient may multiply to its square
MAX_POWER_TERMS = 500
# the most coefficient bits a power may write, estimated as its terms times |e|
# times the base's widest coefficient (numerator plus denominator bits): the
# work of a power grows about as the square of that estimate.  A one-term base
# with coefficient +-1 is exempt: its power is one term with coefficient +-1
MAX_POWER_BITS = 10 ** 6


class _Tokens:
    def __init__(self, text: str):
        import re  # only the parser reads text, so no command loads re

        self.toks = []
        # an integer literal, a name, an operator, or any other non-space character
        for num, name, op, bad in re.findall(r"(\d+)|([^\W\d]\w*)|([-+*/^()])|(\S)", text):
            if bad:
                raise ValueError(f"unexpected character {bad!r} in expression")
            self.toks.append(("int", num) if num else ("name", name) if name else (op, op))
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def next(self):
        t = self.peek()
        self.pos += 1
        return t


def parse_expr(ctx: RingContext, text: str):
    """Parse the textual grammar back into an expression.

    Returns a :class:`LaurentExpr` when the parsed value has denominator 1,
    else a :class:`RationalExpr`.  The grammar is the printer's output:
    ``+ - * / ^``, integer literals, parentheses, declared variable names and
    square aliases.  Every value it returns prints back to itself, so a value
    with a coefficient or an exponent past ``sys.get_int_max_str_digits()``
    digits, which ``str`` refuses, is refused with ``ValueError``.
    """
    toks = _Tokens(text)

    def sides(node) -> tuple:  # a polynomial, or a fraction's numerator and denominator
        return (node.num, node.den) if isinstance(node, RationalExpr) else (node,)

    def size(node) -> int:  # the term count of a polynomial, or of a fraction's larger side
        return max(len(p.terms) for p in sides(node))

    def parse_sum():
        node = parse_product()
        while True:
            kind, _ = toks.peek()
            if kind == "+":
                toks.next()
                node = node + parse_product()
            elif kind == "-":
                toks.next()
                node = node - parse_product()
            else:
                return node

    def parse_product():
        node = parse_unary()
        while True:
            kind, _ = toks.peek()
            if kind not in ("*", "/"):
                return node
            toks.next()
            other = parse_unary()
            if size(node) * size(other) > MAX_POWER_TERMS ** 2:
                raise ValueError(f"a product of {size(node)} and {size(other)} terms passes {MAX_POWER_TERMS ** 2}")
            node = node * other if kind == "*" else node / other

    def parse_unary():
        negate = False
        while toks.peek()[0] in ("-", "+"):
            negate ^= toks.next()[0] == "-"
        node = parse_power()
        return -node if negate else node

    def parse_power():
        base = parse_atom()
        kind, _ = toks.peek()
        if kind == "^":
            toks.next()
            sign = 1
            k, _ = toks.peek()
            if k == "-":
                toks.next()
                sign = -1
            kind2, val = toks.next()
            if kind2 != "int":
                raise ValueError("exponent must be an integer literal")
            e = sign * int(val)
            t = size(base)
            terms = comb(max(t, 1) - 1 + abs(e), abs(e))
            if terms > MAX_POWER_TERMS:
                raise ValueError(f"a power of a {t}-term base expands past {MAX_POWER_TERMS} terms")
            coeffs = [c for p in sides(base) for c in p.terms.values()]
            bits = max((c.numerator.bit_length() + c.denominator.bit_length() for c in coeffs), default=0)
            if not (t == 1 and all(abs(c) == 1 for c in coeffs)) and terms * abs(e) * bits > MAX_POWER_BITS:
                raise ValueError(f"a power of a base with {bits}-bit coefficients writes past {MAX_POWER_BITS} bits")
            if isinstance(base, RationalExpr):
                return base ** e
            if e < 0 and not base.is_monomial():
                return RationalExpr(ctx.one(), base) ** (-e)
            return base ** e
        return base

    def parse_atom():
        kind, val = toks.next()
        if kind == "int":
            return ctx.const(int(val))
        if kind == "name":
            return ctx.var(val)
        if kind == "(":
            node = parse_sum()
            kind2, _ = toks.next()
            if kind2 != ")":
                raise ValueError("unbalanced parentheses")
            return node
        raise ValueError(f"unexpected token {val!r}")

    try:
        node = parse_sum()
    except RecursionError:
        raise ValueError("expression nests too deeply") from None
    kind, val = toks.peek()
    if kind is not None:
        raise ValueError(f"trailing input at {val!r}")
    # a value must print back: str() refuses an int past the interpreter's digit
    # limit (0 for none; Python before 3.10.7 has no limit and no getter)
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        items = [t for p in sides(node) for t in p.terms.items()]
        # the powers of a one-term base with coefficient +-1 have no size guard, so
        # nested ones can write an exponent that is wider than any literal
        for what, ints in (("a coefficient", (n for _, c in items for n in (c.numerator, c.denominator))),
                           ("an exponent", (k for key, _ in items for k in key))):
            widest = max(map(abs, ints), default=0)
            # 2^(3 * limit) < 10^limit, so only a wider int needs the exact test
            if widest.bit_length() > 3 * limit and widest >= 10 ** limit:
                raise ValueError(f"{what} passes {limit} digits, the limit of integer string conversion")
    if isinstance(node, RationalExpr) and node.is_laurent():
        return node.as_laurent()
    return node
