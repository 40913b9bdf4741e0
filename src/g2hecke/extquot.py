"""Extended quotients on finite orbit models, with two oracles.

A :class:`FiniteOrbitModel` is a desk-scale stand-in for a supercuspidal
orbit: a finite set of points carrying a simply transitive action of a cyclic
translation group and a finite symmetry group of order at most 2 whose action
normalizes the translations (conjugation sends the generator to itself or its
inverse, matching inversion on a one-dimensional torus).  The quotients are
untwisted: a point stabilizer has order at most 2, and a cyclic group has
trivial Schur multiplier (H^2(Z/2, C^x) = 0), so the 2-cocycle twist of a
twisted extended quotient changes nothing here.

Two independent counts of the same quantity are provided:

* :func:`extended_quotient` enumerates orbits and stabilizer characters
  directly (one point per orbit, one entry per irreducible character of the
  stabilizer);
* :func:`crossed_product_irr_count` builds the crossed product of functions
  on the points with the symmetry group and computes the dimension of its
  center from the rank of a graph incidence matrix, by union-find.

For a semisimple algebra the center dimension is the number of simple
modules, so the two routes must agree; the closed form 2k + m (k fixed
points, m free orbits) pins both down for order-2 actions.

The two transfers between models, the group/Galois matching
(:func:`matching_bijection`) and the depth-zero reduction
(:func:`depth_zero_transfer`), share one pairing: after
:func:`check_property` has accepted the point map, each point (rep, i) of the
source extended quotient goes to (min of the image orbit of rep, i).  The two
differ only in their refusal messages.  Every pairing is verified to be a
bijection onto the target's extended quotient.  The pairing and its check
work on plain (representative, character index) pairs; only the pairs
returned are wrapped as :class:`ExtQuotPoint` records.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

from ._record import record

__all__ = [
    "FiniteOrbitModel",
    "ExtQuotPoint",
    "PropertyVerdict",
    "ExtQuotError",
    "MAX_TORSION_LEVEL",
    "torsion_model",
    "extended_quotient",
    "crossed_product_irr_count",
    "check_property",
    "matching_bijection",
    "depth_zero_transfer",
]


class ExtQuotError(ValueError):
    pass


# extquot's work and memory are linear in the points: at this level the command
# takes about 0.8 s and 100 MB (see README, "Sizes have bounded work")
MAX_TORSION_LEVEL = 100_000


def _maps_onto(f: Mapping, domain: set, image: set) -> bool:
    try:
        return f.keys() == domain and set(f.values()) == image
    except TypeError:  # an unhashable value is not a point
        return False


@record(frozen=True)
class ExtQuotPoint:
    """One point of an extended quotient: orbit representative + character index.

    Character indices are canonical: 0 is the trivial character of the
    stabilizer, 1 the sign character of an order-2 stabilizer.
    """

    representative: object
    irrep_label: int


class FiniteOrbitModel:
    """Points with a cyclic simply transitive translation action and a symmetry.

    ``translation`` is the permutation given by the generator of the
    translation group (must be a single cycle through all points).  ``gamma``
    is None for the trivial symmetry group, else an involution commuting with
    the translations up to inversion.
    """

    def __init__(self, points: Sequence, translation: Mapping, gamma: Mapping | None = None):
        self.points = tuple(points)
        try:
            distinct = len(set(self.points)) == len(self.points)
        except TypeError:  # an unhashable label is not a point
            raise ExtQuotError("point labels must be hashable")
        if not distinct:
            raise ExtQuotError("points must be distinct")
        if not self.points:
            raise ExtQuotError("a model needs at least one point")
        try:
            sorted(self.points + self.points[:1])  # representatives are minimal; one label meets itself too
        except TypeError:
            raise ExtQuotError("point labels must be comparable with each other")
        self.translation = dict(translation)
        self.gamma = dict(gamma) if gamma is not None else None
        self._validate()

    # -- validation ----------------------------------------------------------

    def _validate(self):
        pts = set(self.points)
        tr = self.translation
        if not _maps_onto(tr, pts, pts):
            raise ExtQuotError("translation must permute the points")
        # simple transitivity of a cyclic group = the generator is one n-cycle;
        # a permutation returns to the start within n steps unless the start is
        # unequal to itself (a NaN label), which would otherwise walk forever
        start, n = self.points[0], len(self.points)
        x, steps = tr[start], 1
        while x != start:
            if steps == n:
                raise ExtQuotError("translation orbit overflow")
            x, steps = tr[x], steps + 1
        if steps != n:
            raise ExtQuotError("translation generator must act as a single cycle")
        if self.gamma is not None:
            g = self.gamma
            if not _maps_onto(g, pts, pts):
                raise ExtQuotError("gamma must permute the points")
            # lists compare items by identity before ==, as dict lookups match
            # keys, so a NaN label that gamma fixes counts as fixed here too
            listed = list(self.points)
            if [g[g[p]] for p in listed] != listed:
                raise ExtQuotError("gamma must be an involution")
            # gamma t gamma^-1 must be t or t^-1: c = gamma t gamma equals t at
            # every point, or t c is the identity
            c = [g[tr[g[p]]] for p in listed]
            if c != [tr[p] for p in listed] and [tr[x] for x in c] != listed:
                raise ExtQuotError("gamma must normalize the translations (as +-1)")

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def gamma_order(self) -> int:
        return 2 if self.gamma is not None else 1

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "points": list(self.points),
            "translation": {str(k): v for k, v in self.translation.items()},
            "gamma": None if self.gamma is None else {str(k): v for k, v in self.gamma.items()},
        }

    @staticmethod
    def from_json(doc: dict) -> "FiniteOrbitModel":
        if not isinstance(doc, dict) or "points" not in doc or "translation" not in doc:
            raise ExtQuotError("a model is a JSON object with 'points' and 'translation'")
        points = doc["points"]
        if not isinstance(points, list) or any(isinstance(p, (list, dict)) for p in points):
            raise ExtQuotError("'points' must be a list of JSON scalars")
        if not isinstance(doc["translation"], dict) or not isinstance(doc.get("gamma"), (dict, type(None))):
            raise ExtQuotError("'translation' must be an object, 'gamma' an object or null")
        if doc.get("cocycles") not in (None, {}):  # older model files carry "cocycles": {}
            raise ExtQuotError("stabilizers of order 2 carry no cocycle twist: 'cocycles' must be {} or null")
        key = {str(p): p for p in points}
        try:
            tr = {key[k]: v for k, v in doc["translation"].items()}
            gamma = doc.get("gamma")
            if gamma is not None:
                gamma = {key[k]: v for k, v in gamma.items()}
        except KeyError as e:
            raise ExtQuotError(f"model names an unknown point {e.args[0]!r}")
        model = FiniteOrbitModel(points, tr, gamma)
        # json.load reads NaN and 1e400 as floats, which no JSON writer may print;
        # checked after the build, a NaN first point still fails the cycle walk
        for p in points:
            if isinstance(p, float) and not math.isfinite(p):
                raise ExtQuotError(f"point label {p!r} is not a finite number")
        return model

    def __repr__(self):
        sym = "Z/2" if self.gamma is not None else "1"
        return f"<FiniteOrbitModel |X|={self.size} Gamma={sym}>"


def torsion_model(n: int, gamma: str = "trivial", offset: int = 0) -> FiniteOrbitModel:
    """The n-torsion model on points 0..n-1 with translation x -> x+1.

    ``gamma`` chooses the symmetry: "trivial" (no symmetry), "identity"
    (order-2 group acting trivially), "inversion" (x -> offset - x), or
    "shift-half" (x -> x + n/2, n even).  ``offset`` is an ``int``, else
    :class:`ExtQuotError`.
    """
    if type(n) is not int or not 1 <= n <= MAX_TORSION_LEVEL:
        raise ExtQuotError(f"torsion level must be between 1 and {MAX_TORSION_LEVEL}")
    if type(offset) is not int:
        raise ExtQuotError(f"offset must be an integer, not {offset!r}")
    pts = list(range(n))
    tr = {x: (x + 1) % n for x in pts}
    if gamma == "trivial":
        g = None
    elif gamma == "identity":
        g = {x: x for x in pts}
    elif gamma == "inversion":
        g = {x: (offset - x) % n for x in pts}
    elif gamma == "shift-half":
        if n % 2:
            raise ExtQuotError("shift-half needs an even torsion level")
        g = {x: (x + n // 2) % n for x in pts}
    else:
        raise ExtQuotError(f"unknown symmetry kind {gamma!r}")
    return FiniteOrbitModel(pts, tr, g)


# ---------------------------------------------------------------------------
# The two counting routes
# ---------------------------------------------------------------------------


def extended_quotient(m: FiniteOrbitModel) -> list:
    """Points of the extended quotient: (orbit representative, character index).

    An order-2 stabilizer contributes its two characters; free orbits and the
    trivial symmetry contribute one point each.
    """
    return [ExtQuotPoint(rep, i) for rep, i in _quotient_pairs(m)]


def _quotient_pairs(m: FiniteOrbitModel) -> list:
    """The extended quotient as plain (representative, character index) pairs.

    Representatives are minimal labels, so the order of the input points does
    not matter: p represents its orbit when p <= gamma(p), and a fixed point
    has an order-2 stabilizer.
    """
    g = m.gamma
    if g is None:
        return [(p, 0) for p in sorted(m.points)]
    out = []
    for p in sorted(m.points):
        if p <= g[p]:
            out.append((p, 0))
            if p == g[p]:
                out.append((p, 1))
    return out


def crossed_product_irr_count(m: FiniteOrbitModel) -> int:
    """Number of simple modules of Fun(X) x| Gamma, via the center dimension.

    The algebra has basis e_x u_g with product
    (e_x u_g)(e_y u_h) = [x = g(y)] e_x u_{gh}; the center is the kernel of
    the commutator map z -> (z*b - b*z) over all basis elements b.  For
    b = e_y u_h and each g, z*b puts z[e_{g(y)} u_g] at e_{g(y)} u_{gh} and
    b*z puts -z[e_{h(y)} u_g] at e_y u_{hg}.  The coordinates of different g
    differ in their u-part, so no coordinate mixes two g: when g fixes y the
    two are one coordinate, whose row is e_a - e_b (empty when h fixes y
    too), and otherwise each is a one-entry row.  Over the rationals such a
    system is the incidence matrix of a graph on the basis plus one ground
    vertex (e_a read as e_a - e_ground), whose rank is the number of
    vertices minus the number of components.  The center dimension is
    therefore the number of components without the ground vertex, which
    union-find counts directly.
    """
    # e_x u_g is basis element order * (position of x) + g, and gamma is read
    # from the positions of the images
    n, order = m.size, m.gamma_order
    position = {p: i for i, p in enumerate(m.points)}
    act = [range(n)] + ([[position[m.gamma[p]] for p in m.points]] if order == 2 else [])
    dim = order * n

    parent = list(range(dim + 1))  # vertex dim is the ground

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for j in range(n):
        for h in range(order):
            for g in range(order):  # b = e_y u_h with y point j
                i = act[g][j]
                left, right = order * i + g, order * act[h][j] + g
                if i == j:  # one coordinate: the row e_left - e_right
                    parent[find(left)] = find(right)
                else:  # two one-entry rows, each read against the ground
                    parent[find(left)] = parent[find(right)] = find(dim)
    ground = find(dim)
    return len({find(i) for i in range(dim)} - {ground})


# ---------------------------------------------------------------------------
# Equivariant transfers between two models
# ---------------------------------------------------------------------------


@record()
class PropertyVerdict:
    ok: bool
    reason: str = ""
    witness: tuple | None = None

    def __bool__(self):
        return self.ok


def check_property(
    m_group: FiniteOrbitModel, m_galois: FiniteOrbitModel, point_map: Mapping
) -> PropertyVerdict:
    """Equivariance of a point map for translations and for the symmetry.

    Condition (1): the map intertwines the canonical identification of the two
    translation groups (generator to generator).  Condition (2): it intertwines
    the symmetry actions through the unique isomorphism of the two order-2
    groups.  The verdict carries the first violated pair.
    """
    # verdicts are built with all three fields, which skips _record's keyword binding
    if not _maps_onto(point_map, set(m_group.points), set(m_galois.points)):
        return PropertyVerdict(False, "map is not a bijection of point sets", None)
    if m_group.size != m_galois.size:
        return PropertyVerdict(False, "models have different sizes", None)
    if m_group.gamma_order != m_galois.gamma_order:
        return PropertyVerdict(False, "symmetry groups have different orders", None)
    t1, t2 = m_group.translation, m_galois.translation
    for p in m_group.points:
        if point_map[t1[p]] != t2[point_map[p]]:
            return PropertyVerdict(
                False, "translation equivariance fails", (p, point_map[p])
            )
    if m_group.gamma is not None:
        g1, g2 = m_group.gamma, m_galois.gamma
        for p in m_group.points:
            if point_map[g1[p]] != g2[point_map[p]]:
                return PropertyVerdict(
                    False, "symmetry equivariance fails", (p, point_map[p])
                )
    return PropertyVerdict(True, "", None)


def _pair(m1: FiniteOrbitModel, m2: FiniteOrbitModel, point_map: Mapping, refusal: str) -> list:
    """Pair each extended-quotient point of m1 with its image along the map.

    The point (rep, i) goes to (min of the image orbit of rep, i).  An
    equivariant bijection sends fixed points to fixed points and free orbits
    to free orbits, so the image exists; that the images are distinct and
    exhaust the extended quotient of m2 is still verified.
    """
    verdict = check_property(m1, m2, point_map)
    if not verdict:
        raise ExtQuotError(f"{refusal}: {verdict.reason}")
    source = _quotient_pairs(m1)
    g2 = m2.gamma or {}  # the trivial symmetry fixes every point
    images = []
    for rep, i in source:
        y = point_map[rep]
        images.append((min(y, g2.get(y, y)), i))
    image_set = set(images)
    if len(image_set) != len(images) or image_set != set(_quotient_pairs(m2)):
        raise ExtQuotError("transfer is not a bijection onto the target")
    return [(ExtQuotPoint(*p), ExtQuotPoint(*q)) for p, q in zip(source, images)]


def matching_bijection(
    m_group: FiniteOrbitModel, m_galois: FiniteOrbitModel, point_map: Mapping
) -> list:
    """The canonical pairing of the two extended quotients along the map.

    Refuses (raises) when the equivariance property fails.
    """
    return _pair(m_group, m_galois, point_map, "refusing to construct the matching")


def depth_zero_transfer(
    m_g: FiniteOrbitModel, m_g0: FiniteOrbitModel, point_map: Mapping
) -> list:
    """The induced bijection of extended quotients for a depth-zero companion.

    The point map must be bijective and equivariant.  The result pairs each
    quotient point with its image and is verified to be a bijection.
    """
    return _pair(m_g, m_g0, point_map, "transfer rejected")
