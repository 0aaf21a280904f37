"""Cochain-level products: the twist-weighted insertion product and the
graded brackets built from it, cup products, composition along a morphism,
homogeneous derivations, and the twisted associator.

Degree convention in this module: a cochain of arity p has degree p - 1,
so a bilinear map has degree 1 and the insertion of a degree-a cochain into
a degree-b cochain has degree a + b.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import factorial

from .algebra import HomAlgebra, alpha_power, apply_alpha, multiply
from .cochain import MultilinearMap, alternator, is_alternating, permutation_sign
from .errors import UsageError
from .exact import Vector, vec_is_zero
from .operator import apply_operator, hom_operator, lie_operator
from .rep import HomMorphism


def _basis_args(n: int, t) -> list[Vector]:
    return [tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in t]


def compose_after(phi: HomMorphism, f: MultilinearMap) -> MultilinearMap:
    """phi applied after a source-valued cochain (slot count unchanged)."""
    if f.target_dim != phi.source.dim:
        raise UsageError("cochain values are not in the morphism's source")
    values = {t: phi.apply(v) for t, v in f.nonzero_entries()}
    return MultilinearMap.from_values(f.arity, f.source_dim,
                                      phi.target.dim, values)


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
    ap = alpha_power(A, a)
    out_arity = a + b + 1
    values = {}
    for t in product(range(A.dim), repeat=out_arity):
        args = _basis_args(A.dim, t)
        twisted = [ap.matvec(x) for x in args]
        total = [Fraction(0)] * psi.target_dim
        for k in range(b + 1):
            inner = phi.evaluate(args[k:k + a + 1])
            slots = twisted[:k] + [inner] + twisted[k + a + 1:]
            term = psi.evaluate(slots)
            if (a * k) % 2:
                total = [x - y for x, y in zip(total, term)]
            else:
                total = [x + y for x, y in zip(total, term)]
        values[t] = tuple(total)
    return MultilinearMap.from_values(out_arity, A.dim, psi.target_dim, values)


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


def cup_bracket_lie(G: HomAlgebra, f: MultilinearMap,
                    g: MultilinearMap) -> MultilinearMap:
    """Full signed-permutation cup bracket with values bracketed in G,
    implemented with the unnormalized all-permutations convention."""
    if f.target_dim != G.dim or g.target_dim != G.dim:
        raise UsageError("cup bracket needs target-valued cochains")
    if f.source_dim != g.source_dim:
        raise UsageError("cochain sources differ")
    n = f.source_dim
    p, q = f.arity, g.arity
    out_arity = p + q
    values = {}
    for t in product(range(n), repeat=out_arity):
        total = [Fraction(0)] * G.dim
        for perm in permutations(range(out_arity)):
            sign = permutation_sign(perm)
            left = f.value_on_basis(tuple(t[perm[i]] for i in range(p)))
            if vec_is_zero(left):
                continue
            right = g.value_on_basis(tuple(t[perm[p + i]] for i in range(q)))
            if vec_is_zero(right):
                continue
            term = multiply(G, left, right)
            for r, x in enumerate(term):
                if x:
                    total[r] += sign * x
        values[t] = tuple(total)
    return MultilinearMap.from_values(out_arity, n, G.dim, values)


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


def derivation_D_assoc(A: HomAlgebra, f: MultilinearMap) -> MultilinearMap:
    """Degree-one derivation: the signed sum of two-slot merges with all
    bystanders twisted (the inner summand group of the coboundary)."""
    if f.source_dim != A.dim:
        raise UsageError("cochain source does not match the algebra")
    n = f.arity
    op = hom_operator(A, f.target_dim, n, [(-1) ** (k + 1) for k in range(n)])
    return apply_operator(op, f)


def derivation_D_lie(L: HomAlgebra, f: MultilinearMap) -> MultilinearMap:
    """Lie-kind analogue: signed bracket insertions into the first slot
    with twisted bystanders."""
    if f.source_dim != L.dim:
        raise UsageError("cochain source does not match the algebra")
    op = lie_operator(L, f.target_dim, f.arity, reduced=False)
    return apply_operator(op, f)


def alpha_associator(A: HomAlgebra, mu_i: MultilinearMap,
                     mu_j: MultilinearMap) -> MultilinearMap:
    """Trilinear twisted associator of two bilinear maps; vanishes on the
    multiplication paired with itself exactly on Hom-associative input."""
    for m in (mu_i, mu_j):
        if m.arity != 2 or m.source_dim != A.dim or m.target_dim != A.dim:
            raise UsageError("associator needs bilinear algebra-valued maps")
    values = {}
    for t in product(range(A.dim), repeat=3):
        x, y, z = _basis_args(A.dim, t)
        left = mu_i.evaluate([apply_alpha(A, x), mu_j.evaluate([y, z])])
        right = mu_i.evaluate([mu_j.evaluate([x, y]), apply_alpha(A, z)])
        values[t] = tuple(a - b for a, b in zip(left, right))
    return MultilinearMap.from_values(3, A.dim, A.dim, values)
