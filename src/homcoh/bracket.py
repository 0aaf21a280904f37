"""Cochain-level products: the twist-weighted insertion product and the
graded brackets built from it, cup products and composition along a
morphism.

Degree convention in this module: a cochain of arity p has degree p - 1,
so a bilinear map has degree 1 and the insertion of a degree-a cochain into
a degree-b cochain has degree a + b.

Every product here sums over the nonzero entries of its cochains and of
the twist power or morphism matrix, never over all basis tuples of its
output.  The insertion product and the insertion along a morphism share
one kernel (``_insertion``); both graded brackets, and the obstruction of
a deformation, are built from these products.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .algebra import (HomAlgebra, _add, _bilinear, _nonzero, _scaled,
                      sparse_columns, transposed)
from .cochain import MultilinearMap, alternator, is_alternating
from .errors import UsageError
from .exact import expand_product
from .rep import HomMorphism


def _insertion(inner: MultilinearMap, outer: MultilinearMap, rows: dict,
               source_dim: int) -> MultilinearMap:
    """The sum over slots k of (-1)^(a k) outer(M x_1, ..., inner(x_k, ...,
    x_(k+a)), ..., M x_m), a = inner.arity - 1, for the matrix M given by
    its nonzero rows {i: {j: M_ij}}: each nonzero value of outer meets the
    values of inner holding its slot-k argument, and its other arguments
    are pulled back through M."""
    a = inner.arity - 1
    inserted = {}  # i: the (argument tuple, coefficient of e_i) of inner
    for s, v in inner.entries.items():
        for i, c in v.items():
            inserted.setdefault(i, []).append((s, c))
    out = {}
    for u, w in outer.entries.items():
        for k, i in enumerate(u):
            if i not in inserted:
                continue
            sign = -1 if (a * k) % 2 else 1
            before = expand_product([rows.get(j, {}) for j in u[:k]])
            after = expand_product([rows.get(j, {}) for j in u[k + 1:]])
            for s, c in inserted[i]:
                for t1, c1 in before:
                    for t2, c2 in after:
                        _add(out, t1 + s + t2, w, sign * c * c1 * c2)
    return MultilinearMap(a + outer.arity, source_dim, outer.target_dim,
                          _nonzero(out))


def comp_product(A: HomAlgebra, phi: MultilinearMap,
                 psi: MultilinearMap) -> MultilinearMap:
    """Insertion of phi into every slot of psi, bystander arguments twisted
    by the degree-of-phi power of the algebra twist, with alternating signs
    per slot position."""
    if phi.arity < 1 or psi.arity < 1:
        raise UsageError("insertion product needs arity >= 1 on both sides")
    if phi.source_dim != A.dim or psi.source_dim != A.dim:
        raise UsageError("cochain sources do not match the algebra")
    if phi.target_dim != A.dim:
        raise UsageError("inserted cochain must be algebra-valued")
    # row i of alpha^a: {j: coefficient of e_i in alpha^a e_j}, the
    # bystander arguments that feed argument e_i of psi
    cols, den = A.twist_power(phi.arity - 1)
    return _insertion(phi, psi, transposed(_scaled(cols, Fraction(1, den))),
                      A.dim)


def gerstenhaber_bracket(A: HomAlgebra, phi: MultilinearMap,
                         psi: MultilinearMap) -> MultilinearMap:
    """Graded commutator of the insertion product; vanishes on the
    multiplication exactly when the algebra is Hom-associative."""
    a = phi.arity - 1
    b = psi.arity - 1
    left = comp_product(A, psi, phi)
    right = comp_product(A, phi, psi)
    if (a * b) % 2:
        return left + right
    return left - right


def nr_product(A: HomAlgebra, phi: MultilinearMap,
               psi: MultilinearMap) -> MultilinearMap:
    """Alternating insertion: binomial rescaling of the alternator applied
    to the insertion product; defined on alternating cochains."""
    if not is_alternating(phi) or not is_alternating(psi):
        raise UsageError("alternating cochains required")
    a = phi.arity - 1
    b = psi.arity - 1
    scale = Fraction(factorial(a + b + 1), factorial(a + 1) * factorial(b + 1))
    return alternator(comp_product(A, phi, psi)).scale(scale)


def nr_bracket(A: HomAlgebra, phi: MultilinearMap,
               psi: MultilinearMap) -> MultilinearMap:
    """Graded commutator of the alternating insertion; detects the
    Hom-Jacobi identity via bracket-with-itself."""
    a = phi.arity - 1
    b = psi.arity - 1
    left = nr_product(A, phi, psi)
    right = nr_product(A, psi, phi)
    if (a * b) % 2:
        return left + right
    return left - right


def cup_product_assoc(phi: HomMorphism, f: MultilinearMap,
                      g: MultilinearMap) -> MultilinearMap:
    """Concatenating cup product with values multiplied in the target."""
    B = phi.target
    if f.target_dim != B.dim or g.target_dim != B.dim:
        raise UsageError("cup product needs target-valued cochains")
    if f.source_dim != g.source_dim:
        raise UsageError("cochain sources differ")
    out = {}
    for s, u in f.entries.items():
        for t, w in g.entries.items():
            _add(out, s + t, _bilinear(B.sparse.mul, u, w))
    return MultilinearMap(f.arity + g.arity, f.source_dim, B.dim,
                          _nonzero(out))


def overline_comp(phi: HomMorphism, f: MultilinearMap,
                  g: MultilinearMap) -> MultilinearMap:
    """Insert a connecting cochain into a target-valued cochain, pulling
    the bystander slots back along phi."""
    A, B = phi.source, phi.target
    if f.source_dim != B.dim or f.target_dim != B.dim:
        raise UsageError("outer cochain must live on the target algebra")
    if g.source_dim != A.dim or g.target_dim != B.dim:
        raise UsageError("inserted cochain must map source into target")
    if f.arity < 1 or g.arity < 1:
        raise UsageError("insertion needs arity >= 1 on both sides")
    return _insertion(g, f, transposed(sparse_columns(phi.matrix)), A.dim)
