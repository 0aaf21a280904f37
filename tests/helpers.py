"""Independent oracles used by the tests, kept deliberately separate from
the package implementations they check."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

from homcoh.algebra import ASSOCIATIVE, alpha_power, apply_alpha, multiply
from homcoh.cochain import MorphismCochain, MultilinearMap
from homcoh.errors import HomcohError
from homcoh.exact import Matrix, SparseMatrix, solve
from homcoh.rep import adjoint_bimodule, lie_adjoint_module


class ImageOutsideCodomain(HomcohError):
    """A differential image left the span of the codomain cochain basis.

    Diagnostic: the underlying algebra or module violates its axioms.
    """


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


def dense_rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Dense Gauss-Jordan over Fraction, pivoting on the first nonzero
    entry from the top: the reduced matrix and its pivot columns."""
    rows, nr = [list(m.row(i)) for i in range(m.rows)], m.rows
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        pr = next((i for i in range(r, nr) if rows[i][c] != 0), -1)
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        lead = rows[r]
        for i in range(nr):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [a - f * b for a, b in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return Matrix(nr, m.cols, tuple(x for row in rows for x in row)), \
        tuple(pivots)


def dense(m) -> Matrix:
    """A SparseMatrix as a dense Matrix."""
    return Matrix(m.rows, m.cols, tuple(Fraction(row.get(j, 0))
                                        for row in m.data
                                        for j in range(m.cols)))


def dense_nullspace(m: Matrix) -> list[tuple]:
    """One kernel vector per free column of the dense RREF."""
    red, piv = dense_rref(m)
    basis = []
    for fc in (c for c in range(m.cols) if c not in piv):
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(piv):
            v[pc] = -red.at(i, fc)
        basis.append(tuple(v))
    return basis


def dense_solve(m: Matrix, b) -> tuple | None:
    """The solution of m x = b with free coordinates 0, or None."""
    aug = Matrix(m.rows, m.cols + 1, tuple(
        x for i in range(m.rows) for x in m.row(i) + (Fraction(b[i]),)))
    red, piv = dense_rref(aug)
    if m.cols in piv:
        return None
    x = [Fraction(0)] * m.cols
    for i, pc in enumerate(piv):
        x[pc] = red.at(i, m.cols)
    return tuple(x)


def columns(vectors, n: int) -> Matrix:
    """The n-row dense matrix whose columns are ``vectors``."""
    return Matrix(n, len(vectors), tuple(Fraction(v[i]) for i in range(n)
                                         for v in vectors))


def frac(x) -> Fraction:
    return Fraction(x)


# The dense forms that the gather in ``Coords.to_full``, the column index
# in ``SparseOperator.apply`` and the operator matrices of
# ``compute_cohomology`` replace.

def dense_to_full(system, x) -> MultilinearMap:
    """Full tensor of the coordinates x: each slot is the sign of its
    argument tuple times the coordinate it locates, or zero."""
    if system.reduced:
        d = system.target_dim
        x = [loc[1] * x[loc[0] * d + r] if loc else Fraction(0)
             for t in product(range(system.source_dim), repeat=system.arity)
             for loc in [system.locate(t)] for r in range(d)]
    return MultilinearMap(system.arity, system.source_dim,
                          system.target_dim, tuple(x))


def row_apply(op, x) -> tuple:
    """op applied to x by one pass over every row of the operator."""
    return tuple(sum([c * x[j] for j, c in row.items() if x[j]], Fraction(0))
                 for row in op.rows)


def differential_matrix(space_n, space_n1, delta) -> Matrix:
    """Matrix of delta with columns over space_n's basis, expressed in
    space_n1's basis; raises ImageOutsideCodomain when an image escapes
    (which signals an invalid algebra or module)."""
    codomain = SparseMatrix.from_columns(space_n1.coords, space_n1.system.dim)
    cols = []
    for j, f in enumerate(space_n.basis):
        x = space_n1.system.project(delta(f))  # None: not alternating
        coords = None if x is None else solve(codomain, x)
        if coords is None:
            raise ImageOutsideCodomain(
                f"image of basis cochain {j} lies outside the codomain basis")
        cols.append(coords)
    return Matrix.from_columns(cols, nrows=space_n1.dim)


# Dense defining identities, evaluated on basis vectors with ``multiply``
# and ``apply_alpha``.  They are the reference the sparse kernel of
# homcoh.algebra is checked against: the first failing basis tuple in
# lexicographic order, with its defect lhs - rhs.

def dense_associativity_defect(A, i: int, j: int, k: int):
    ei, ej, ek = A.basis_vector(i), A.basis_vector(j), A.basis_vector(k)
    left = multiply(A, apply_alpha(A, ei), multiply(A, ej, ek))
    right = multiply(A, multiply(A, ei, ej), apply_alpha(A, ek))
    return tuple(a - b for a, b in zip(left, right))


def dense_jacobi_defect(A, x, y, z):
    """Cyclic sum bracket(alpha(x), bracket(y, z)) over (x, y, z)."""
    total = [Fraction(0)] * A.dim
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        total = _signed(total, multiply(A, apply_alpha(A, a),
                                        multiply(A, b, c)), False)
    return tuple(total)


def _first(cases):
    """The first (where, defect) with a nonzero defect, or None."""
    return next(((at, d) for at, d in cases if any(d)), None)


def dense_validity(A):
    """(identity witness, multiplicativity witness) of A by basis names:
    stored skew-symmetry first for the Lie kind, then the identity."""
    n, names, e = A.dim, A.basis_names, A.basis_vector
    witness = None
    if A.kind != ASSOCIATIVE:
        witness = _first(
            ((names[i], names[j]),
             tuple(a + b for a, b in zip(A.mul[i][j], A.mul[j][i])))
            for i in range(n) for j in range(i, n))
    if witness is None:
        witness = _first(
            (tuple(names[i] for i in t),
             dense_associativity_defect(A, *t) if A.kind == ASSOCIATIVE
             else dense_jacobi_defect(A, *(e(i) for i in t)))
            for t in product(range(n), repeat=3))
    return witness, dense_morphism_witnesses(A, A, A.alpha)[0]


def dense_morphism_witnesses(source, target, matrix):
    """(product witness, twist witness) of matrix: source -> target."""
    names, e = source.basis_names, source.basis_vector
    product_witness = _first(
        ((names[i], names[j]),
         tuple(a - b for a, b in zip(
             matrix.matvec(multiply(source, e(i), e(j))),
             multiply(target, matrix.matvec(e(i)), matrix.matvec(e(j))))))
        for i, j in product(range(source.dim), repeat=2))
    twist_witness = _first(
        (names[j], tuple(a - b for a, b in zip(
            matrix.matvec(apply_alpha(source, e(j))),
            apply_alpha(target, matrix.matvec(e(j))))))
        for j in range(source.dim))
    return product_witness, twist_witness


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


# Dense deformation formulas, evaluated on basis vectors.  They read the
# stored fields of a deformation (``terms``, ``phi_terms``, ``psi_*_terms``)
# directly, so they share nothing with the coefficient series and sparse
# order defects of homcoh.deformation.

def _mu(d, degree: int):
    A = d.base
    if degree == 0:
        return MultilinearMap.from_values(
            2, A.dim, A.dim, {(i, j): A.mul[i][j]
                              for i in range(A.dim) for j in range(A.dim)})
    return dict(d.terms).get(degree, MultilinearMap.zero(2, A.dim, A.dim))


def _phi(md, degree: int):
    if degree == 0:
        return md.phi.matrix
    return dict(md.phi_terms).get(
        degree, Matrix.zero(md.phi.target.dim, md.phi.source.dim))


def _psi(terms, n: int, degree: int):
    if degree == 0:
        return Matrix.identity(n)
    return dict(terms).get(degree, Matrix.zero(n, n))


def dense_algebra_order_defect(d, s: int):
    """Order-s coefficient of the twisted associator (associative kind) or
    of the cyclic twisted double bracket (Lie kind) of the deformation."""
    A = d.base
    values = {}
    for t in product(range(A.dim), repeat=3):
        x, y, z = _basis_args(A.dim, t)
        total = [Fraction(0)] * A.dim
        for i in range(s + 1):
            outer, inner = _mu(d, i), _mu(d, s - i)
            if A.kind == ASSOCIATIVE:
                total = _signed(total, outer.evaluate(
                    [apply_alpha(A, x), inner.evaluate([y, z])]), False)
                total = _signed(total, outer.evaluate(
                    [inner.evaluate([x, y]), apply_alpha(A, z)]), True)
                continue
            for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                total = _signed(total, outer.evaluate(
                    [apply_alpha(A, a), inner.evaluate([b, c])]), False)
        values[t] = tuple(total)
    return MultilinearMap.from_values(3, A.dim, A.dim, values)


def dense_morphism_order_defect(md, s: int):
    """Order-s coefficient of phi_t(mul_A_t(x,y)) - mul_B_t(phi_t x, phi_t y)."""
    A, B = md.phi.source, md.phi.target
    values = {}
    for t in product(range(A.dim), repeat=2):
        x, y = _basis_args(A.dim, t)
        total = [Fraction(0)] * B.dim
        for i in range(s + 1):
            total = _signed(total, _phi(md, i).matvec(
                _mu(md.def_a, s - i).evaluate([x, y])), False)
            for j in range(s - i + 1):
                term = _mu(md.def_b, i).evaluate(
                    [_phi(md, j).matvec(x), _phi(md, s - i - j).matvec(y)])
                total = _signed(total, term, True)
        values[t] = tuple(total)
    return MultilinearMap.from_values(2, A.dim, B.dim, values)


def dense_connecting_obstruction(md):
    """Known part of the order-(N+1) morphism equation: what the coupled
    coboundary of the unknown extension term must equal."""
    A, B = md.phi.source, md.phi.target
    N = md.order
    s = N + 1
    values = {}
    for t in product(range(A.dim), repeat=2):
        x, y = _basis_args(A.dim, t)
        total = [Fraction(0)] * B.dim
        for i in range(1, N + 1):
            prod_term = _mu(md.def_a, s - i).evaluate([x, y])
            total = _signed(total, _phi(md, i).matvec(prod_term), True)
        for i in range(s + 1):
            for j in range(s - i + 1):
                k = s - i - j
                if (i, j, k) in ((s, 0, 0), (0, s, 0), (0, 0, s)):
                    continue
                term = _mu(md.def_b, i).evaluate([_phi(md, j).matvec(x),
                                                  _phi(md, k).matvec(y)])
                total = _signed(total, term, False)
        values[t] = tuple(total)
    return MultilinearMap.from_values(2, A.dim, B.dim, values)


def dense_transported_mul(md, psi, side: str, s: int):
    """Order-s coefficient of psi_t o mu_t o (psi_t^-1 x psi_t^-1) on one
    end of the morphism."""
    alg = md.phi.source if side == "a" else md.phi.target
    d = md.def_a if side == "a" else md.def_b
    terms = psi.psi_a_terms if side == "a" else psi.psi_b_terms
    n = alg.dim
    inv = [Matrix.identity(n)]
    for m in range(1, s + 1):
        acc = Matrix.zero(n, n)
        for i in range(1, m + 1):
            acc = acc + _psi(terms, n, i) @ inv[m - i]
        inv.append(acc.scale(-1))
    values = {}
    for t in product(range(n), repeat=2):
        x, y = _basis_args(n, t)
        total = [Fraction(0)] * n
        for i in range(s + 1):
            for j in range(s - i + 1):
                for k in range(s - i - j + 1):
                    ell = s - i - j - k
                    term = _psi(terms, n, i).matvec(_mu(d, j).evaluate(
                        [inv[k].matvec(x), inv[ell].matvec(y)]))
                    total = _signed(total, term, False)
        values[t] = tuple(total)
    return MultilinearMap.from_values(2, n, n, values)
