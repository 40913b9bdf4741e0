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
"""

from .blocks import BlockClassification, BlockDescriptor, classify, emit_table
from .exactalg import LaurentExpr, RationalExpr, eval_unit_circle_zeros, exact_div, parse_expr, ring
from .extquot import (
    FiniteOrbitModel,
    check_property,
    crossed_product_irr_count,
    depth_zero_transfer,
    extended_quotient,
    matching_bijection,
    torsion_model,
)
from .hecke import (
    AffineHeckePresentation,
    HeckeElement,
    RGroup,
    WeightFunction,
    check_lusztig,
    multiply,
    verify_relations,
)
from .plancherel import MuFunction, PlancherelCase, labels, mu, solve_matching, weyl_from_zeros
from .rootdata import BasedRootDatum, bad_primes, g2_datum, generate_weyl

__version__ = "0.1.0"
