"""Test-side helpers: seeded random instance families, the product-and-filter
reference that ``cind.oracle``'s forcing search for machine morphisms is
checked against, and measuring comparisons.  None of them is part of the
package."""

import itertools
import random

from cind.carriers import (Algebra, Coalgebra, coalgebra, is_coalgebra_morphism,
                           table_algebra)
from cind.kernel import FunctorSig, fvalues
from cind.measuring import Measuring, _pointwise_mismatches, table_measuring


def random_algebra(sig: FunctorSig, size: int, rng: random.Random, name="") -> Algebra:
    elems = tuple(range(size))
    table = {v: rng.choice(elems) for v in fvalues(sig, elems)}
    return table_algebra(sig, elems, table, name or f"rand{size}")


def random_coalgebra(sig: FunctorSig, size: int, rng: random.Random, name="") -> Coalgebra:
    states = tuple(range(size))
    options = fvalues(sig, states)
    chi = {s: rng.choice(options) for s in states}
    return coalgebra(sig, states, chi, name or f"randm{size}")


def random_algebras(sig: FunctorSig, sizes, per_size: int, seed: int) -> list:
    rng = random.Random(seed)
    return [random_algebra(sig, size, rng, name=f"rand{size}.{i}")
            for size in sizes for i in range(per_size)]


def product_coalgebra_morphisms(c: Coalgebra, d: Coalgebra) -> tuple:
    """All |D|^|C| maps c -> d, in product order, filtered by
    ``is_coalgebra_morphism``: the reference for ``oracle.coalgebra_morphisms``."""
    maps = (dict(zip(c.states, combo))
            for combo in itertools.product(d.states, repeat=len(c.states)))
    return tuple(f for f in maps if is_coalgebra_morphism(f, c, d))


def solutions_as_measurings(c, a, b, result) -> list:
    return [table_measuring(c, a, b, t, f"solution{i}")
            for i, t in enumerate(result.solutions)]


def measurings_equal(m1: Measuring, m2: Measuring, elems=None, depth: int = 3,
                     labels=None, state_map=None) -> bool:
    """Pointwise equality over the enumerated domain; state_map translates
    m1's fuel states into m2's."""
    if elems is None:
        elems, _ = m1.source.carrier(depth, labels)
    return not _pointwise_mismatches(m1, m2, m1.coalg.states, elems, state_map, limit=1)
