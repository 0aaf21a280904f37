"""Cochain-level products: the twist-weighted insertion product and the
graded brackets built from it, cup products and composition along a
morphism.

Degree convention in this module: a cochain of arity p has degree p - 1,
so a bilinear map has degree 1 and the insertion of a degree-a cochain into
a degree-b cochain has degree a + b.

The insertion product, and so both graded brackets and the obstruction
of a deformation, sums over the nonzero entries of its two cochains and
of the twist power, never over all basis tuples of its output.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial

from .algebra import HomAlgebra, multiply
from .cochain import MultilinearMap, alternator, is_alternating
from .errors import UsageError
from .exact import Vector, expand_product, sparse_vector, vec_is_zero
from .rep import HomMorphism


def _basis_args(n: int, t) -> list[Vector]:
    return [tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in t]


def diamond(lam: MultilinearMap, phi: HomMorphism) -> MultilinearMap:
    """Pullback along phi in every argument slot."""
    if lam.source_dim != phi.target.dim:
        raise UsageError("cochain arguments are not in the morphism's target")
    cols = [phi.matrix.column(j) for j in range(phi.source.dim)]
    values = {}
    for t in product(range(phi.source.dim), repeat=lam.arity):
        v = lam.evaluate([cols[i] for i in t])
        if not vec_is_zero(v):
            values[t] = v
    return MultilinearMap.from_values(lam.arity, phi.source.dim,
                                      lam.target_dim, values)


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
    a = phi.arity - 1
    b = psi.arity - 1
    # row i of alpha^a: {j: coefficient of e_i in alpha^a e_j}, the
    # bystander arguments that feed argument e_i of psi
    cols, den = A.twist_power(a)
    rows = {}
    for j, col in cols.items():
        for i, x in col.items():
            rows.setdefault(i, {})[j] = Fraction(x, den)
    inserted = {}  # i: the (argument tuple, coefficient of e_i) of phi
    for s, v in phi.nonzero_entries():
        for i, c in enumerate(v):
            if c:
                inserted.setdefault(i, []).append((s, c))
    out = {}
    for u, w in psi.nonzero_entries():
        w = sparse_vector(w)
        for k in range(b + 1):
            if u[k] not in inserted:
                continue
            sign = -1 if (a * k) % 2 else 1
            before = expand_product([rows.get(i, {}) for i in u[:k]])
            after = expand_product([rows.get(i, {}) for i in u[k + 1:]])
            for s, c in inserted[u[k]]:
                for t1, c1 in before:
                    for t2, c2 in after:
                        slot = out.setdefault(t1 + s + t2, {})
                        scale = sign * c * c1 * c2
                        for r, x in w.items():
                            slot[r] = slot.get(r, 0) + scale * x
    return MultilinearMap.from_sparse(a + b + 1, A.dim, psi.target_dim, out)


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
    n = f.source_dim
    out_arity = f.arity + g.arity
    values = {}
    for t in product(range(n), repeat=out_arity):
        left = f.value_on_basis(t[:f.arity])
        right = g.value_on_basis(t[f.arity:])
        v = multiply(B, left, right)
        if not vec_is_zero(v):
            values[t] = v
    return MultilinearMap.from_values(out_arity, n, B.dim, values)


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
    af, bg = f.arity, g.arity
    out_arity = af + bg - 1
    cols = [phi.matrix.column(j) for j in range(A.dim)]
    values = {}
    for t in product(range(A.dim), repeat=out_arity):
        args = _basis_args(A.dim, t)
        through = [cols[i] for i in t]
        total = [Fraction(0)] * B.dim
        for i in range(af):
            inner = g.evaluate(args[i:i + bg])
            slots = through[:i] + [inner] + through[i + bg:]
            term = f.evaluate(slots)
            if (i * (bg - 1)) % 2:
                total = [x - y for x, y in zip(total, term)]
            else:
                total = [x + y for x, y in zip(total, term)]
        values[t] = tuple(total)
    return MultilinearMap.from_values(out_arity, A.dim, B.dim, values)
