"""Based root data, Weyl groups, and the explicit G2 datum.

Roots are integer vectors in the basis of simple roots, the symmetric pairing
is a Gram matrix on that basis, and coroot pairings come out of the usual
formula <x, g^> = 2(x|g)/(g|g).  Only small finite systems are exercised, so
everything is explicit integer matrices with a Cartan-type tag used solely
for the bad-prime table.  The bad primes of G2 are where the block tables
stop holding.

The affine Weyl group of a rank-1 datum is carried as pairs
(translation, sign) under their product; the q -> 1 check of the Hecke
layer compares against it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from ._record import record

__all__ = [
    "BasedRootDatum",
    "WeylElement",
    "RootDatumError",
    "g2_datum",
    "bad_primes",
    "generate_weyl",
    "affine_mul",
]


class RootDatumError(ValueError):
    pass


Vec = tuple


def _mat_vec(mat: Sequence[Sequence], vec: Sequence) -> Vec:
    return tuple(sum(row[j] * vec[j] for j in range(len(vec))) for row in mat)


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _rational(x):
    """``x`` as a ``Fraction``; ``fractions`` loads only once a datum is built."""
    from fractions import Fraction

    return Fraction(x)


@record(frozen=True)
class WeylElement:
    """A Weyl group element: a reduced word in simple reflections and its matrix."""

    word: tuple
    matrix: tuple

    @property
    def length(self) -> int:
        return len(self.word)


class BasedRootDatum:
    """A based root datum carried by explicit vectors and a Gram matrix.

    ``roots`` is the full (finite) root set in simple-root coordinates,
    ``simple`` the ordered basis.  Coroots are represented through the pairing
    ``coroot_pairing(x, gamma) = 2(x|gamma)/(gamma|gamma)``, which is checked
    to be integral on all roots.
    """

    def __init__(
        self,
        basis_labels: Sequence[str],
        positive_roots: Iterable[Vec],
        gram: Sequence[Sequence],
        cartan_type: str,
    ):
        self.basis_labels = tuple(basis_labels)
        self.rank = len(self.basis_labels)
        pos = [tuple(r) for r in positive_roots]
        self.positive_roots = tuple(pos)
        self.roots = tuple(pos + [tuple(-x for x in r) for r in pos])
        self.gram = tuple(tuple(_rational(x) for x in row) for row in gram)
        self.cartan_type = cartan_type
        self.simple = tuple(
            tuple(1 if i == j else 0 for j in range(self.rank)) for i in range(self.rank)
        )
        if pos:
            self._validate()

    # -- bilinear structure --------------------------------------------------

    def pairing(self, x: Sequence, y: Sequence):
        """The symmetric form (x|y) in simple-root coordinates, an int or Fraction."""
        return sum(
            _rational(x[i]) * self.gram[i][j] * y[j]
            for i in range(self.rank)
            for j in range(self.rank)
        )

    def coroot_pairing(self, x: Sequence, gamma: Sequence):
        """<x, gamma^> = 2(x|gamma)/(gamma|gamma), an int or Fraction."""
        gg = self.pairing(gamma, gamma)
        if gg == 0:
            raise RootDatumError("isotropic vector has no coroot")
        return 2 * self.pairing(x, gamma) / gg

    def reflection_matrix(self, gamma: Sequence) -> tuple:
        cols = []
        for j in range(self.rank):
            e = tuple(1 if i == j else 0 for i in range(self.rank))
            coeff = self.coroot_pairing(e, gamma)
            if coeff.denominator != 1:
                raise RootDatumError("non-integral reflection; not a root datum")
            cols.append(tuple(e[i] - int(coeff) * gamma[i] for i in range(self.rank)))
        # cols[j] is the image of basis vector j; matrix acts on column vectors
        return tuple(tuple(cols[j][i] for j in range(self.rank)) for i in range(self.rank))

    def simple_reflections(self) -> tuple:
        return tuple(self.reflection_matrix(g) for g in self.simple_root_vectors())

    def simple_root_vectors(self) -> tuple:
        """The basis vectors that are roots."""
        return tuple(s for s in self.simple if s in self.roots)

    # -- invariants ----------------------------------------------------------

    def _validate(self):
        root_set = set(self.roots)
        # <a, a^> = 2(a|a)/(a|a) is 2 for every root that is not isotropic
        for g in self.roots:
            if self.pairing(g, g) == 0:
                raise RootDatumError(f"isotropic root {g} has no coroot")
        for m in self.simple_reflections():
            for r in self.roots:
                if _mat_vec(m, r) not in root_set:
                    raise RootDatumError("simple reflection does not permute the roots")
        # every simple root is a basis vector, so the coefficients of a
        # positive root in the simple roots are its coordinates
        simple = self.simple_root_vectors()
        for r in self.positive_roots:
            for c, e in zip(r, self.simple):
                if c < 0 or _rational(c).denominator != 1 or (c != 0 and e not in simple):
                    raise RootDatumError(
                        f"positive root {r} is not a nonnegative integer combination of the basis"
                    )

    def to_json(self) -> dict:
        return {
            "cartan_type": self.cartan_type,
            "basis": list(self.basis_labels),
            "positive_roots": [list(r) for r in self.positive_roots],
            "gram": [[str(x) if x.denominator != 1 else int(x) for x in row] for row in self.gram],
        }

    def __repr__(self):
        return f"<BasedRootDatum {self.cartan_type} rank {self.rank}>"


def g2_datum() -> BasedRootDatum:
    """The G2 datum: short simple root alpha, long simple root beta.

    Positive roots alpha, beta, alpha+beta, 2alpha+beta, 3alpha+beta,
    3alpha+2beta; pairings (alpha|alpha)=2, (beta|beta)=6, (alpha|beta)=-3.
    """
    positive = [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]
    return BasedRootDatum(("alpha", "beta"), positive, [[2, -3], [-3, 6]], "G2")


_BAD_PRIMES = {
    "A": set(),
    "B": {2},
    "C": {2},
    "D": {2},
    "G2": {2, 3},
    "F4": {2, 3},
    "E6": {2, 3},
    "E7": {2, 3},
    "E8": {2, 3, 5},
}


def bad_primes(d: BasedRootDatum) -> set:
    """Bad primes of the root system: 2 unless type A, 3 for G2/F4/E, 5 for E8."""
    t = d.cartan_type
    if not d.positive_roots:
        return set()
    key = t if t in _BAD_PRIMES else t.rstrip("0123456789")
    if key not in _BAD_PRIMES:
        raise RootDatumError(f"unclassified root system {t!r}")
    return set(_BAD_PRIMES[key])


def generate_weyl(d: BasedRootDatum, max_elements: int = 10000) -> list:
    """The full Weyl group with reduced words, by breadth-first closure.

    Words grow one simple reflection at a time, so the first visit to an
    element happens at its true length and the stored word is reduced.
    """
    gens = d.simple_reflections()
    identity = _identity(d.rank)
    seen = {identity: WeylElement((), identity)}
    frontier = [seen[identity]]
    while frontier:
        nxt = []
        for w in frontier:
            for i, g in enumerate(gens):
                m = _mat_mul(w.matrix, g)
                if m not in seen:
                    el = WeylElement(w.word + (i,), m)
                    seen[m] = el
                    nxt.append(el)
                    if len(seen) > max_elements:
                        raise RootDatumError("Weyl closure exceeded growth bound; non-finite system?")
        frontier = nxt
    return sorted(seen.values(), key=lambda w: (w.length, w.word))


# ---------------------------------------------------------------------------
# Rank-1 affine Weyl group: pairs (translation, sign)
# ---------------------------------------------------------------------------


def affine_mul(a: tuple, b: tuple) -> tuple:
    """Product of pairs (n, s) acting by x -> s*x + n; s0 = (0, -1), s1 = (1, -1)."""
    n1, s1 = a
    n2, s2 = b
    return (n1 + s1 * n2, s1 * s2)
