"""Exact-arithmetic toolkit for the maximal-Levi Bernstein blocks of split G2.

Modules:

* ``exactalg``   - Laurent polynomials and rational functions over Q,
  canonical forms, the parse/print grammar, unit-circle zero detection;
* ``rootdata``   - based root data, the G2 datum, Weyl closure, bad primes,
  the product of the rank-1 affine Weyl group;
* ``hecke``      - rank-1 affine Hecke algebras with unequal labels, the
  relation-verification harness, the weight-label membership check;
* ``plancherel`` - the six case formulas for the Plancherel measure, label
  extraction and the reducibility criterion;
* ``blocks``     - the block classifier and the four canonical tables;
* ``extquot``    - extended quotients on finite orbit models, the
  crossed-product counting oracle, equivariant transfers;
* ``cli``        - the ``g2hecke`` command line.

``import g2hecke`` loads none of them.  The names below, and the six library
modules themselves, are looked up on first use (PEP 562): the first access
to ``g2hecke.mu`` imports ``g2hecke.plancherel`` and binds ``mu`` here, so
later accesses are plain attribute reads.  A library caller loads only the
home modules of the names it uses (``from g2hecke import parse_expr`` loads
``exactalg`` alone); a command loads what ``cli`` imports, which is all six.
"""

__version__ = "0.1.0"

# each exported name, by the module that defines it
_HOMES = {
    "blocks": ("BlockClassification", "BlockDescriptor", "classify", "emit_table"),
    "exactalg": ("LaurentExpr", "RationalExpr", "eval_unit_circle_zeros", "exact_div", "parse_expr", "ring"),
    "extquot": ("FiniteOrbitModel", "check_property", "crossed_product_irr_count", "depth_zero_transfer",
                "extended_quotient", "matching_bijection", "torsion_model"),
    "hecke": ("AffineHeckePresentation", "HeckeElement", "RGroup", "WeightFunction", "check_lusztig", "multiply",
              "verify_relations"),
    "plancherel": ("MuFunction", "PlancherelCase", "labels", "mu", "solve_matching", "weyl_from_zeros"),
    "rootdata": ("BasedRootDatum", "bad_primes", "g2_datum", "generate_weyl"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOMES:
        # the import statement's own machinery (so -X importtime reports it) binds the submodule here
        __import__(f"{__name__}.{name}")
        return globals()[name]
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__getattr__(module), name)
    globals()[name] = value  # later reads find it without calling __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOMES) | set(__all__))
