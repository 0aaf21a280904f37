"""Independent oracles used by the tests, kept deliberately separate from
the package implementations they check."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

from homcoh.algebra import alpha_power, apply_alpha, multiply
from homcoh.cochain import MorphismCochain, MultilinearMap
from homcoh.exact import Matrix
from homcoh.rep import adjoint_bimodule, lie_adjoint_module


def bareiss_rank(m: Matrix) -> int:
    """Fraction-free elimination rank, independent of the package rref."""
    rows = []
    for i in range(m.rows):
        den_lcm = 1
        for x in m.row(i):
            den_lcm = den_lcm * x.denominator // gcd(den_lcm, x.denominator)
        rows.append([int(x * den_lcm) for x in m.row(i)])
    nr, nc = len(rows), m.cols
    rank = 0
    prev = 1
    r = 0
    for c in range(nc):
        pivot = -1
        for i in range(r, nr):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot < 0:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        for i in range(r + 1, nr):
            for j in range(c + 1, nc):
                rows[i][j] = (pv * rows[i][j] - rows[i][c] * rows[r][j]) // prev
            rows[i][c] = 0
        prev = pv
        rank += 1
        r += 1
        if r == nr:
            break
    return rank


def frac(x) -> Fraction:
    return Fraction(x)


# Dense coboundary formulas, evaluated tensor by tensor on basis vectors.
# They are the reference the compiled sparse operators are checked against,
# so they use only MultilinearMap.evaluate and the algebra's bilinear maps.

def _basis_args(n: int, t) -> list:
    return [tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in t]


def _signed(total, term, negative: bool):
    return [x - y if negative else x + y for x, y in zip(total, term)]


def dense_delta_hom(A, left, right, target_dim: int, f):
    """Associative-kind coboundary with the given left and right actions."""
    n = f.arity
    ap = alpha_power(A, n - 1)
    values = {}
    for t in product(range(A.dim), repeat=n + 1):
        args = _basis_args(A.dim, t)
        alphas = [apply_alpha(A, a) for a in args]
        total = list(left(ap.matvec(args[0]), f.evaluate(args[1:])))
        for k in range(1, n + 1):
            margs = alphas[:k - 1] + [multiply(A, args[k - 1], args[k])] \
                + alphas[k + 1:]
            total = _signed(total, f.evaluate(margs), k % 2)
        last = right(f.evaluate(args[:n]), ap.matvec(args[n]))
        values[t] = tuple(_signed(total, last, (n + 1) % 2))
    return MultilinearMap.from_values(n + 1, A.dim, target_dim, values)


def dense_delta_lie(L, act, target_dim: int, f):
    """Lie-kind coboundary with the given action, on any cochain."""
    n = f.arity
    ap = alpha_power(L, n - 1)
    values = {}
    for t in product(range(L.dim), repeat=n + 1):
        args = _basis_args(L.dim, t)
        alphas = [apply_alpha(L, a) for a in args]
        total = [Fraction(0)] * target_dim
        for i in range(n + 1):
            term = act(ap.matvec(args[i]), f.evaluate(args[:i] + args[i + 1:]))
            total = _signed(total, term, i % 2)
        total = _signed(total, dense_bracket_terms(L, f, args, alphas), False)
        values[t] = tuple(total)
    return MultilinearMap.from_values(n + 1, L.dim, target_dim, values)


def dense_bracket_terms(L, f, args, alphas):
    """The sum over i < j of (-1)^(i+j) f([x_i, x_j], alpha x_0, ...)."""
    n = len(args) - 1
    total = [Fraction(0)] * f.target_dim
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            rest = [alphas[p] for p in range(n + 1) if p != i and p != j]
            term = f.evaluate([multiply(L, args[i], args[j])] + rest)
            total = _signed(total, term, (i + j) % 2)
    return total


def dense_d_component(A, M, i: int, f):
    """The i-th face operator of the associative-kind coboundary."""
    n = f.arity
    if i >= n:
        return MultilinearMap.zero(n + 1, A.dim, M.carrier_dim)
    ap = alpha_power(A, n - 1)
    values = {}
    for t in product(range(A.dim), repeat=n + 1):
        args = _basis_args(A.dim, t)
        alphas = [apply_alpha(A, a) for a in args]
        margs = alphas[:i] + [multiply(A, args[i], args[i + 1])] + alphas[i + 2:]
        total = list(f.evaluate(margs))
        if i == 0:
            total = _signed(total, M.left(ap.matvec(args[0]),
                                          f.evaluate(args[1:])), True)
        if i == n - 1:
            total = _signed(total, M.right(f.evaluate(args[:n]),
                                           ap.matvec(args[n])), True)
        values[t] = tuple(total)
    return MultilinearMap.from_values(n + 1, A.dim, M.carrier_dim, values)


def dense_derivation_D_assoc(A, f):
    n = f.arity
    values = {}
    for t in product(range(A.dim), repeat=n + 1):
        args = _basis_args(A.dim, t)
        alphas = [apply_alpha(A, x) for x in args]
        total = [Fraction(0)] * f.target_dim
        for i in range(1, n + 1):
            margs = alphas[:i - 1] + [multiply(A, args[i - 1], args[i])] \
                + alphas[i + 1:]
            total = _signed(total, f.evaluate(margs), i % 2)
        values[t] = tuple(total)
    return MultilinearMap.from_values(n + 1, A.dim, f.target_dim, values)


def dense_derivation_D_lie(L, f):
    n = f.arity
    values = {}
    for t in product(range(L.dim), repeat=n + 1):
        args = _basis_args(L.dim, t)
        alphas = [apply_alpha(L, x) for x in args]
        values[t] = tuple(dense_bracket_terms(L, f, args, alphas))
    return MultilinearMap.from_values(n + 1, L.dim, f.target_dim, values)


def dense_delta_morphism(phi, c, flavor: str):
    """Coupled coboundary: the self coboundaries of comp_A and comp_B, and
    in the connecting slot the defect phi∘f_A - f_B∘(phi, ..., phi)
    combined with the adjoint-module coboundary of comp_AB."""
    A, B = phi.source, phi.target
    n = c.degree
    cols = [phi.matrix.column(j) for j in range(A.dim)]
    values = {}
    for t in product(range(A.dim), repeat=n):
        after = phi.apply(c.comp_A.value_on_basis(t))
        pulled = c.comp_B.evaluate([cols[i] for i in t])
        values[t] = tuple(a - b for a, b in zip(after, pulled))
    defect = MultilinearMap.from_values(n, A.dim, B.dim, values)
    mult = lambda X: (lambda x, y: multiply(X, x, y))
    if flavor == "hom":
        d_a = dense_delta_hom(A, mult(A), mult(A), A.dim, c.comp_A)
        d_b = dense_delta_hom(B, mult(B), mult(B), B.dim, c.comp_B)
        if n == 1:
            d_ab = MultilinearMap.zero(1, A.dim, B.dim)
        else:
            M = adjoint_bimodule(phi, strict=False)
            d_ab = dense_delta_hom(A, M.left, M.right, B.dim, c.comp_AB)
        return MorphismCochain(d_a, d_b, defect - d_ab)
    d_a = dense_delta_lie(A, mult(A), A.dim, c.comp_A)
    d_b = dense_delta_lie(B, mult(B), B.dim, c.comp_B)
    if n == 1:
        d_ab = MultilinearMap.zero(1, A.dim, B.dim)
    else:
        P = lie_adjoint_module(phi, strict=False)
        d_ab = dense_delta_lie(A, P.act, B.dim, c.comp_AB)
    return MorphismCochain(d_a, d_b, d_ab + defect.scale((-1) ** (n - 1)))
