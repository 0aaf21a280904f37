"""Independent oracles used by the tests, kept deliberately separate from
the package implementations they check."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import factorial, gcd, prod

from homcoh.algebra import (ASSOCIATIVE, HomAlgebra, StructureRows,
                            identity_defect, sparse_columns)
from homcoh.cochain import (CochainSpace, Coords, MorphismCochain,
                            MultilinearMap, compatibility_rows,
                            permutation_sign)
from homcoh.cohomology import (ModuleComplex, MorphismComplex,
                               compute_cohomology, connecting_complex)
from homcoh.errors import HomcohError, UsageError
from homcoh.exact import (Matrix, SparseMatrix, dense_vector, echelon,
                          expand_product, independent_subset, integral,
                          integer_kernel, lincomb, solve, sparse_vector)
from homcoh.operator import hom_delta
from homcoh.rep import adjoint_module


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
    """A SparseMatrix as a dense Matrix: its numerators over its den."""
    return Matrix(m.rows, m.cols, tuple(Fraction(row.get(j, 0), m.den)
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


def densify(x, n: int) -> tuple | None:
    """The sparse vector x as a length-n tuple; None stays None."""
    return None if x is None else dense_vector(x, n)


def columns(vectors, n: int) -> Matrix:
    """The n-row dense matrix whose columns are ``vectors``."""
    return Matrix(n, len(vectors), tuple(Fraction(v[i]) for i in range(n)
                                         for v in vectors))


def frac(x) -> Fraction:
    return Fraction(x)


def basis_vector(n: int, i: int) -> tuple:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def dense_action(action, dim: int):
    """The bilinear map (x, y) -> sum of x_i y_j action[(i, j)] on dense
    vectors, from a sparse integer action (numerators, den) with values
    of length dim."""
    entries, den = action

    def act(x, y) -> tuple:
        out = [Fraction(0)] * dim
        for (i, j), v in entries.items():
            if xy := x[i] * y[j]:  # a zero factor adds nothing
                for r, c in v.items():
                    out[r] += xy * Fraction(c, den)
        return tuple(out)
    return act


def vec_is_zero(a) -> bool:
    return all(x == 0 for x in a)


# Dense matrix arithmetic, entry by entry, for the oracles and tests that
# add, scale or compare matrices.

def zero_matrix(rows: int, cols: int) -> Matrix:
    return Matrix(rows, cols, (Fraction(0),) * (rows * cols))


def matrix_sum(a: Matrix, b: Matrix, c=1) -> Matrix:
    """a + c b."""
    assert (a.rows, a.cols) == (b.rows, b.cols), "matrix shapes differ"
    return Matrix(a.rows, a.cols,
                  tuple(x + c * y for x, y in zip(a.entries, b.entries)))


def scaled_matrix(a: Matrix, c) -> Matrix:
    return Matrix(a.rows, a.cols, tuple(Fraction(c) * x for x in a.entries))


def matrix_is_zero(a: Matrix) -> bool:
    return vec_is_zero(a.entries)


def linear_matrix(m: MultilinearMap) -> Matrix:
    """The dense matrix of a linear (arity-1) map, read off its stored
    entries: column j is its value on e_j."""
    return Matrix(m.target_dim, m.source_dim, tuple(
        Fraction(m.entries.get((j,), {}).get(i, 0))
        for i in range(m.target_dim) for j in range(m.source_dim)))


def apply_alpha(algebra: HomAlgebra, x) -> tuple:
    return algebra.alpha.matvec(x)


def evaluate(m: MultilinearMap, args) -> tuple:
    """The multilinear extension of m to arbitrary coordinate vectors."""
    if len(args) != m.arity:
        raise UsageError(f"expected {m.arity} arguments, got {len(args)}")
    if any(len(arg) != m.source_dim for arg in args):
        raise UsageError("argument length != source_dim")
    out = {}
    for s, c in expand_product([sparse_vector(arg) for arg in args]):
        for r, x in m.entries.get(s, {}).items():
            out[r] = out.get(r, 0) + c * x
    return dense_vector(out, m.target_dim)


# The twist-compatible cochain spaces, built from the package's
# compatibility rows and kernel, and linear combinations of their bases.

def kernel_space(system, rows: list[dict]) -> CochainSpace:
    """The cochains of system that the integer rows annihilate, with the
    canonical kernel basis (held as its integer vectors)."""
    return CochainSpace(system, tuple(integer_kernel(echelon(rows),
                                                     system.dim)))


def canonical_coords(space) -> tuple:
    """The coordinates of the basis cochains of space: each stored integer
    vector divided by its free coordinate, the value at its largest
    index."""
    return tuple({k: Fraction(x, v[max(v)]) for k, x in v.items()}
                 for v in space.coords)


def beta_rows(beta: Matrix) -> StructureRows:
    """The rows of beta, the form ``compatibility_rows`` reads."""
    return StructureRows(*integral(sparse_columns(beta)), beta.rows)


def hom_cochain_basis(source: HomAlgebra, target_dim: int, beta: Matrix,
                      arity: int):
    """The canonical basis of {f : beta∘f = f∘alpha^(tensor arity)}; arity
    0 is the whole target space."""
    return kernel_space(Coords(arity, source.dim, target_dim, False),
                        compatibility_rows(False, source, target_dim,
                                           beta_rows(beta), arity))


def lie_cochain_basis(source: HomAlgebra, target_dim: int, beta: Matrix,
                      arity: int):
    """The canonical basis of the alternating twist-compatible maps, solved
    on strictly increasing argument tuples."""
    return kernel_space(Coords(arity, source.dim, target_dim, True),
                        compatibility_rows(True, source, target_dim,
                                           beta_rows(beta), arity))


def combine(space, coeffs: dict):
    """The cochain sum of c times basis element j of space over the sparse
    {j: c}."""
    return space.system.to_full(lincomb(coeffs, canonical_coords(space)))


# Dense coefficient tensors: the flat layout of a multilinear map, indexed
# row-major lexicographically over the argument tuple with the target
# coordinate innermost.  Tests that build a map from such a tuple, or read
# one back, go through these two.

def dense_map(arity: int, source_dim: int, target_dim: int,
              coeffs) -> MultilinearMap:
    """The map whose flat coefficient tuple is ``coeffs``."""
    d = target_dim
    tuples = list(product(range(source_dim), repeat=arity))
    assert len(coeffs) == len(tuples) * d, "coefficient array length"
    return MultilinearMap.from_values(arity, source_dim, target_dim, {
        t: tuple(coeffs[i * d:(i + 1) * d]) for i, t in enumerate(tuples)})


def dense_coeffs(m: MultilinearMap) -> tuple:
    """The flat coefficient tuple of m, zeros included."""
    return tuple(x for t in product(range(m.source_dim), repeat=m.arity)
                 for x in m.value_on_basis(t))


# The dense forms that the gather in ``Coords.to_full``, the column index
# in ``SparseMatrix.apply`` and the operator matrices of
# ``compute_cohomology`` replace.

def dense_to_full(system, x) -> MultilinearMap:
    """Full tensor of the coordinates x: each slot is the sign of its
    argument tuple times the coordinate it locates, or zero."""
    if system.reduced:
        d = system.target_dim
        x = [loc[1] * x[loc[0] * d + r] if loc else Fraction(0)
             for t in product(range(system.source_dim), repeat=system.arity)
             for loc in [system.locate(t)] for r in range(d)]
    return dense_map(system.arity, system.source_dim, system.target_dim,
                     tuple(x))


def row_apply(op, x) -> tuple:
    """op applied to x by one pass over every row of the operator, whose
    integer rows are over ``op.den``."""
    return tuple(sum([c * x[j] for j, c in row.items() if x[j]], Fraction(0))
                 / op.den for row in op.data)


def differential_matrix(space_n, space_n1, delta) -> Matrix:
    """Matrix of delta with columns over space_n's basis, expressed in
    space_n1's basis; raises ImageOutsideCodomain when an image escapes
    (which signals an invalid algebra or module)."""
    codomain = SparseMatrix.from_columns(canonical_coords(space_n1),
                                         space_n1.system.dim)
    cols = []
    for j, f in enumerate(space_n.basis):
        x = space_n1.system.project(delta(f))  # None: not alternating
        coords = None if x is None else solve(codomain, x)
        if coords is None:
            raise ImageOutsideCodomain(
                f"image of basis cochain {j} lies outside the codomain basis")
        cols.append(dense_vector(coords, space_n1.dim))
    return Matrix.from_columns(cols, nrows=space_n1.dim)


def in_span(vectors, v: dict) -> dict | None:
    """Coordinates of the sparse v in the span of the sparse vectors, or
    None if v lies outside."""
    vectors = list(vectors)
    height = 1 + max((max(u) for u in [*vectors, v] if u), default=-1)
    return solve(SparseMatrix.from_columns(vectors, height), v)


def column_rank(vectors) -> int:
    return len(independent_subset(vectors))


def operator_matrix(op, vectors=None) -> SparseMatrix:
    """A compiled operator's matrix (integer rows over ``den``), the
    operator itself; with sparse ``vectors``, the matrix whose column j is
    the image of vectors[j]."""
    if vectors is None:
        return op
    return SparseMatrix.from_columns([op.apply(v) for v in vectors], op.rows)


def basis_solve(complex_obj, n: int, target):
    """A twist-compatible degree-n cochain whose coboundary is target,
    solved on the compatible basis: the basis images as columns, the
    particular solution with its free coefficients 0, combined.  None
    when target is not a coboundary (or, in reduced coordinates, not
    alternating)."""
    op, space = complex_obj.operator(n), complex_obj.bound_space(n)
    rhs = op.target.project(target)
    coeffs = None if rhs is None else solve(
        operator_matrix(op, canonical_coords(space)), rhs)
    return None if coeffs is None else combine(space, coeffs)


def multiply(A: HomAlgebra, x, y) -> tuple:
    """The product of two dense vectors, summed over the dense structure
    constants ``A.mul``: the oracle of ``homcoh.algebra.multiply``, which
    evaluates through the sparse kernel.  A zero factor adds nothing, so
    its terms are skipped."""
    out = [Fraction(0)] * A.dim
    for i, a in enumerate(x):
        for j, b in enumerate(y) if a else ():
            for k, e in enumerate(A.mul[i][j]) if b else ():
                if e:
                    out[k] += a * b * e
    return tuple(out)


# Dense defining identities, evaluated on basis vectors with ``multiply``
# and ``apply_alpha``.  They are the reference the sparse kernel of
# homcoh.algebra is checked against: the first failing basis tuple in
# lexicographic order, with its defect lhs - rhs.

def dense_associativity_defect(A, i: int, j: int, k: int):
    ei, ej, ek = (basis_vector(A.dim, x) for x in (i, j, k))
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
    n, names, e = A.dim, A.basis_names, lambda i: basis_vector(A.dim, i)
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
    names, e = source.basis_names, lambda i: basis_vector(source.dim, i)
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
# so they use only ``evaluate`` and the algebra's bilinear maps.

def _basis_args(n: int, t) -> list:
    return [tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in t]


def _signed(total, term, negative: bool):
    """total plus or minus term, entry by entry; a zero term adds
    nothing, so total is returned as it is."""
    if not any(term):
        return total
    return [x - y if negative else x + y for x, y in zip(total, term)]


def dense_delta_hom(A, left, right, target_dim: int, f):
    """Associative-kind coboundary with the given left and right actions."""
    n = f.arity
    ap = alpha_power(A, n - 1)
    values = {}
    for t in product(range(A.dim), repeat=n + 1):
        args = _basis_args(A.dim, t)
        alphas = [apply_alpha(A, a) for a in args]
        total = list(left(ap.matvec(args[0]), evaluate(f, args[1:])))
        for k in range(1, n + 1):
            margs = alphas[:k - 1] + [multiply(A, args[k - 1], args[k])] \
                + alphas[k + 1:]
            total = _signed(total, evaluate(f, margs), k % 2)
        last = right(evaluate(f, args[:n]), ap.matvec(args[n]))
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
            term = act(ap.matvec(args[i]),
                       evaluate(f, args[:i] + args[i + 1:]))
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
            term = evaluate(f, [multiply(L, args[i], args[j])] + rest)
            total = _signed(total, term, (i + j) % 2)
    return total


def dense_d_component(A, M, i: int, f):
    """The i-th face operator of the associative-kind coboundary."""
    n = f.arity
    if i >= n:
        return MultilinearMap.zero(n + 1, A.dim, M.carrier_dim)
    ap = alpha_power(A, n - 1)
    d = M.carrier_dim
    left, right = dense_action(M.left, d), dense_action(M.right, d)
    values = {}
    for t in product(range(A.dim), repeat=n + 1):
        args = _basis_args(A.dim, t)
        alphas = [apply_alpha(A, a) for a in args]
        margs = alphas[:i] + [multiply(A, args[i], args[i + 1])] + alphas[i + 2:]
        total = list(evaluate(f, margs))
        if i == 0:
            total = _signed(total, left(ap.matvec(args[0]),
                                        evaluate(f, args[1:])), True)
        if i == n - 1:
            total = _signed(total, right(evaluate(f, args[:n]),
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
            total = _signed(total, evaluate(f, margs), i % 2)
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


def dense_comp_product(A, phi, psi):
    """Insertion of phi into every slot of psi with bystanders twisted by
    alpha^(arity of phi - 1), evaluated on every basis tuple."""
    a, b = phi.arity - 1, psi.arity - 1
    ap = alpha_power(A, a)
    values = {}
    for t in product(range(A.dim), repeat=a + b + 1):
        args = _basis_args(A.dim, t)
        twisted = [ap.matvec(x) for x in args]
        total = [Fraction(0)] * psi.target_dim
        for k in range(b + 1):
            inner = evaluate(phi, args[k:k + a + 1])
            slots = twisted[:k] + [inner] + twisted[k + a + 1:]
            total = _signed(total, evaluate(psi, slots), (a * k) % 2)
        values[t] = tuple(total)
    return MultilinearMap.from_values(a + b + 1, A.dim, psi.target_dim,
                                      values)


def dense_alternator(m):
    """Average over signed argument permutations, gathered per basis
    tuple."""
    k = m.arity
    if k < 2:
        return m
    values = {}
    for t in product(range(m.source_dim), repeat=k):
        total = [Fraction(0)] * m.target_dim
        for perm in permutations(range(k)):
            term = m.value_on_basis(tuple(t[p] for p in perm))
            total = _signed(total, term, permutation_sign(perm) < 0)
        values[t] = tuple(x / factorial(k) for x in total)
    return MultilinearMap.from_values(k, m.source_dim, m.target_dim, values)


def dense_delta_morphism(phi, c):
    """Coupled coboundary: the self coboundaries of comp_A and comp_B, and
    in the connecting slot the defect phi∘f_A - f_B∘(phi, ..., phi)
    combined with the adjoint-module coboundary of comp_AB, by the kind of
    phi's algebras."""
    A, B = phi.source, phi.target
    n = c.degree
    cols = [phi.matrix.column(j) for j in range(A.dim)]
    values = {}
    for t in product(range(A.dim), repeat=n):
        after = phi.apply(c.comp_A.value_on_basis(t))
        pulled = evaluate(c.comp_B, [cols[i] for i in t])
        values[t] = tuple(a - b for a, b in zip(after, pulled))
    defect = MultilinearMap.from_values(n, A.dim, B.dim, values)
    mult = lambda X: (lambda x, y: multiply(X, x, y))
    # the adjoint actions: B acted on through phi
    through = lambda x, v: multiply(B, phi.apply(x), v)
    if A.kind == ASSOCIATIVE:
        d_a = dense_delta_hom(A, mult(A), mult(A), A.dim, c.comp_A)
        d_b = dense_delta_hom(B, mult(B), mult(B), B.dim, c.comp_B)
        if n == 1:
            d_ab = MultilinearMap.zero(1, A.dim, B.dim)
        else:
            d_ab = dense_delta_hom(
                A, through, lambda v, x: multiply(B, v, phi.apply(x)), B.dim,
                c.comp_AB)
        return MorphismCochain(d_a, d_b, defect - d_ab)
    d_a = dense_delta_lie(A, mult(A), A.dim, c.comp_A)
    d_b = dense_delta_lie(B, mult(B), B.dim, c.comp_B)
    if n == 1:
        d_ab = MultilinearMap.zero(1, A.dim, B.dim)
    else:
        d_ab = dense_delta_lie(A, through, B.dim, c.comp_AB)
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
    term = dict(md.phi_terms).get(degree)
    return zero_matrix(md.phi.target.dim, md.phi.source.dim) \
        if term is None else linear_matrix(term)


def _psi(terms, n: int, degree: int):
    if degree == 0:
        return Matrix.identity(n)
    term = dict(terms).get(degree)
    return zero_matrix(n, n) if term is None else linear_matrix(term)


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
                total = _signed(total, evaluate(
                    outer, [apply_alpha(A, x), evaluate(inner, [y, z])]),
                    False)
                total = _signed(total, evaluate(
                    outer, [evaluate(inner, [x, y]), apply_alpha(A, z)]),
                    True)
                continue
            for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                total = _signed(total, evaluate(
                    outer, [apply_alpha(A, a), evaluate(inner, [b, c])]),
                    False)
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
                evaluate(_mu(md.def_a, s - i), [x, y])), False)
            for j in range(s - i + 1):
                term = evaluate(_mu(md.def_b, i), [
                    _phi(md, j).matvec(x), _phi(md, s - i - j).matvec(y)])
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
            prod_term = evaluate(_mu(md.def_a, s - i), [x, y])
            total = _signed(total, _phi(md, i).matvec(prod_term), True)
        for i in range(s + 1):
            for j in range(s - i + 1):
                k = s - i - j
                if (i, j, k) in ((s, 0, 0), (0, s, 0), (0, 0, s)):
                    continue
                term = evaluate(_mu(md.def_b, i), [_phi(md, j).matvec(x),
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
        acc = zero_matrix(n, n)
        for i in range(1, m + 1):
            acc = matrix_sum(acc, _psi(terms, n, i) @ inv[m - i])
        inv.append(scaled_matrix(acc, -1))
    values = {}
    for t in product(range(n), repeat=2):
        x, y = _basis_args(n, t)
        total = [Fraction(0)] * n
        for i in range(s + 1):
            for j in range(s - i + 1):
                for k in range(s - i - j + 1):
                    ell = s - i - j - k
                    term = _psi(terms, n, i).matvec(evaluate(
                        _mu(d, j), [inv[k].matvec(x), inv[ell].matvec(y)]))
                    total = _signed(total, term, False)
        values[t] = tuple(total)
    return MultilinearMap.from_values(2, n, n, values)


# Formulas the package no longer needs, kept as oracles for their tests.

def alpha_power(algebra: HomAlgebra, exponent: int) -> Matrix:
    """alpha^exponent as a dense matrix."""
    out = Matrix.identity(algebra.dim)
    for _ in range(exponent):
        out = algebra.alpha @ out
    return out


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


def alpha_associator(A: HomAlgebra, mu_i: MultilinearMap,
                     mu_j: MultilinearMap) -> MultilinearMap:
    """Trilinear twisted associator of two bilinear maps; vanishes on the
    multiplication paired with itself exactly on Hom-associative input."""
    for m in (mu_i, mu_j):
        if m.arity != 2 or m.source_dim != A.dim or m.target_dim != A.dim:
            raise UsageError("associator needs bilinear algebra-valued maps")
    pair = (mu_i.entries, mu_j.entries)
    return MultilinearMap.from_sparse(
        3, A.dim, A.dim, identity_defect(ASSOCIATIVE, A.sparse.alpha, [pair]))


def diamond(lam: MultilinearMap, phi) -> MultilinearMap:
    """Pullback along phi in every argument slot."""
    if lam.source_dim != phi.target.dim:
        raise UsageError("cochain arguments are not in the morphism's target")
    cols = [phi.matrix.column(j) for j in range(phi.source.dim)]
    values = {}
    for t in product(range(phi.source.dim), repeat=lam.arity):
        v = dense_evaluate(lam, [cols[i] for i in t])
        if not vec_is_zero(v):
            values[t] = v
    return MultilinearMap.from_values(lam.arity, phi.source.dim,
                                      lam.target_dim, values)


# The dense forms that the sparse MultilinearMap replaces: each reads the
# flat coefficient tuple (``dense_coeffs``) or visits every basis tuple.

def _dense_values(m: MultilinearMap):
    """t -> the dense value of m at the argument tuple t, sliced from one
    flat coefficient tuple built once."""
    coeffs, d = dense_coeffs(m), m.target_dim

    def value(t) -> tuple:
        off = 0
        for i in t:
            off = off * m.source_dim + i
        return coeffs[off * d:(off + 1) * d]
    return value


def dense_nonzero_entries(m: MultilinearMap) -> list:
    """(argument tuple, dense value) of every nonzero value, in the order
    of the flat layout."""
    d, coeffs = m.target_dim, dense_coeffs(m)
    tuples = product(range(m.source_dim), repeat=m.arity)
    return [(t, coeffs[i * d:(i + 1) * d]) for i, t in enumerate(tuples)
            if any(coeffs[i * d:(i + 1) * d])]


def dense_evaluate(m: MultilinearMap, args) -> tuple:
    """Contract the flat tensor with one argument vector at a time."""
    cur = list(dense_coeffs(m))
    for arg in args:
        block = len(cur) // m.source_dim
        nxt = [Fraction(0)] * block
        for i, a in enumerate(arg):
            if a:
                for off in range(block):
                    nxt[off] += a * cur[i * block + off]
        cur = nxt
    return tuple(cur)


def dense_is_alternating(m: MultilinearMap) -> bool:
    value = _dense_values(m)
    for t in product(range(m.source_dim), repeat=m.arity):
        val = value(t)
        for perm in permutations(range(m.arity)):
            s = tuple(t[p] for p in perm)
            want = tuple(permutation_sign(perm) * x for x in val)
            if value(s) != want:
                return False
    return True


def _dense_pulled(m: MultilinearMap, matrices) -> tuple:
    """The flat coefficient tuple of x_1, ..., x_k -> m(M_1 x_1, ...,
    M_k x_k): the flat tensor of m contracted with each matrix once, at its
    slot, each nonzero entry with the row of M_p at its index there."""
    cur, dims = list(dense_coeffs(m)), [m.source_dim] * m.arity
    for p, M in enumerate(matrices):
        inner = prod(dims[p + 1:]) * m.target_dim
        rows = [M.row(s) for s in range(M.rows)]
        nxt = [Fraction(0)] * (len(cur) // dims[p] * M.cols)
        for at, x in enumerate(cur):
            if x:
                o, rest = divmod(at, dims[p] * inner)
                s, off = divmod(rest, inner)
                for j, c in enumerate(rows[s]):
                    if c:
                        nxt[(o * M.cols + j) * inner + off] += c * x
        cur, dims[p] = nxt, M.cols
    return tuple(cur)


def dense_is_compatible(m: MultilinearMap, alpha: Matrix,
                        beta: Matrix) -> bool:
    value, d = _dense_values(m), m.target_dim
    pulled = _dense_pulled(m, [alpha] * m.arity)
    return all(beta.matvec(value(t)) == pulled[i * d:(i + 1) * d]
               for i, t in enumerate(product(range(m.source_dim),
                                             repeat=m.arity)))


def dense_pullback(m: MultilinearMap, matrices) -> MultilinearMap:
    """x_1, ..., x_k -> m(M_1 x_1, ..., M_k x_k), on every basis tuple."""
    width = matrices[0].cols if matrices else m.source_dim
    return dense_map(m.arity, width, m.target_dim,
                     _dense_pulled(m, matrices))


def dense_pushforward(m: MultilinearMap, matrix: Matrix) -> MultilinearMap:
    value = _dense_values(m)
    return MultilinearMap.from_values(m.arity, m.source_dim, matrix.rows, {
        t: matrix.matvec(value(t))
        for t in product(range(m.source_dim), repeat=m.arity)})


def dense_cup_product_assoc(phi, f, g) -> MultilinearMap:
    n, B = f.source_dim, phi.target
    f_at, g_at = _dense_values(f), _dense_values(g)
    return MultilinearMap.from_values(f.arity + g.arity, n, B.dim, {
        t: multiply(B, f_at(t[:f.arity]), g_at(t[f.arity:]))
        for t in product(range(n), repeat=f.arity + g.arity)})


def dense_overline_comp(phi, f, g) -> MultilinearMap:
    A, B = phi.source, phi.target
    af, bg = f.arity, g.arity
    cols = [phi.matrix.column(j) for j in range(A.dim)]
    values = {}
    for t in product(range(A.dim), repeat=af + bg - 1):
        args = _basis_args(A.dim, t)
        through = [cols[i] for i in t]
        total = [Fraction(0)] * B.dim
        for i in range(af):
            inner = dense_evaluate(g, args[i:i + bg])
            slots = through[:i] + [inner] + through[i + bg:]
            total = _signed(total, dense_evaluate(f, slots),
                            (i * (bg - 1)) % 2)
        values[t] = tuple(total)
    return MultilinearMap.from_values(af + bg - 1, A.dim, B.dim, values)


# The dense module axiom checks: each axiom evaluated with ``multiply`` on
# every basis tuple, reporting its first failing arguments.

def dense_violations(X, carrier_dim: int, axioms) -> list[str]:
    """One message per failing axiom (template, number of algebra
    arguments, holds), at its first failing basis arguments."""
    problems = []
    for template, slots, holds in axioms:
        failing = (t + (m,) for t in product(range(X.dim), repeat=slots)
                   for m in range(carrier_dim)
                   if not holds(*[basis_vector(X.dim, i) for i in t],
                                basis_vector(carrier_dim, m)))
        first = next(failing, None)
        if first is not None:
            problems.append(template.format(*first))
    return problems


def _minus(a, b) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def dense_validate_bimodule(M) -> list[str]:
    A, d, beta = M.algebra, M.carrier_dim, M.beta.matvec
    left, right = dense_action(M.left, d), dense_action(M.right, d)
    return dense_violations(A, d, (
        ("left axiom fails at ({0},{1};{2})", 2, lambda x, y, v:
         left(multiply(A, x, y), beta(v))
         == left(apply_alpha(A, x), left(y, v))),
        ("right axiom fails at ({2};{0},{1})", 2, lambda x, y, v:
         right(beta(v), multiply(A, x, y))
         == right(right(v, x), apply_alpha(A, y))),
        ("compatibility fails at ({0};{2};{1})", 2, lambda x, z, v:
         right(left(x, v), apply_alpha(A, z))
         == left(apply_alpha(A, x), right(v, z)))))


def dense_validate_lie_module(P) -> list[str]:
    L, d, beta = P.algebra, P.carrier_dim, P.beta.matvec
    act = dense_action(P.left, d)
    return dense_violations(L, d, (
        ("structure-map axiom fails at ({0};{1})", 1, lambda u, v:
         act(apply_alpha(L, u), beta(v)) == beta(act(u, v))),
        ("module condition fails at ({0},{1};{2})", 2, lambda u, v, z:
         act(multiply(L, u, v), beta(z))
         == _minus(act(apply_alpha(L, u), act(v, z)),
                   act(apply_alpha(L, v), act(u, z))))))



# The arity-0 coboundary and the quotient Z / B, written out densely: the
# references for ``ModuleComplex.degree_zero_images`` and the representatives
# of ``compute_cohomology``.

def dense_degree_zero_images(M) -> list[MultilinearMap]:
    """e_i -> e_i m (minus m e_i for a bimodule), for each m of the dense
    canonical kernel basis of beta - 1, from the module's actions."""
    n, d = M.algebra.dim, M.carrier_dim
    left = dense_action(M.left, d)
    right = M.right and dense_action(M.right, d)
    images = []
    for m in dense_nullspace(matrix_sum(M.beta, Matrix.identity(d), -1)):
        values = {}
        for i in range(n):
            value = left(basis_vector(n, i), m)
            if right:
                value = _minus(value, right(m, basis_vector(n, i)))
            values[(i,)] = value
        images.append(MultilinearMap.from_values(1, n, d, values))
    return images


def dense_quotient(b_maps, z_maps) -> tuple[int, list]:
    """(dim B, representatives) of span(z_maps) / span(b_maps), both lists
    of maps of one shape, by the greedy choice over the columns [B | Z] of
    their flat coefficient tuples.  When B does not lie in span Z, B is
    first replaced by the intersection of both spans."""
    b = [dense_coeffs(m) for m in b_maps]
    z = [dense_coeffs(m) for m in z_maps]
    height = len((b + z)[0]) if b + z else 0

    def rank(vectors):
        return bareiss_rank(columns(vectors, height)) if vectors else 0

    if rank(b + z) > len(z):
        kernel = dense_nullspace(columns(
            b + [tuple(-x for x in v) for v in z], height))
        b = [tuple(sum((c[j] * v[i] for j, v in enumerate(b) if c[j]),
                       Fraction(0)) for i in range(height)) for c in kernel]
    chosen, reps = list(b), []
    for m, v in zip(z_maps, z):
        if rank(chosen + [v]) > rank(chosen):
            chosen.append(v)
            reps.append(m)
    return rank(b), reps


def _cohomology(complex_obj, n: int):
    return compute_cohomology(complex_obj, [n]).record(n)


def span_rank(vectors, width: int) -> int:
    """The rank of sparse vectors of the given width, by ``bareiss_rank``."""
    rows = [dense_vector(v, width) for v in vectors]
    return bareiss_rank(Matrix.from_rows(rows)) if rows else 0


def morphism_parts(phi) -> tuple:
    """The three part complexes of phi's coupled complex, built apart from
    it: A in itself, B in itself, and A in B through phi."""
    return (ModuleComplex(phi.source), ModuleComplex(phi.target),
            connecting_complex(phi))


# The hom kind on its compatible subcomplex.  The reported hom-kind H^n is
# Z(all maps) / B(compatible maps), which are not the cocycles and
# coboundaries of one complex; restricted to twist-compatible cochains in
# every part, the coupled complex is the mapping cone of its parts.

class CompatibleModuleComplex(ModuleComplex):
    """An associative-kind ``ModuleComplex`` whose cocycles are taken, as
    its coboundaries are, on the twist-compatible cochains: the
    ``hom_delta`` compile and full coordinates are kept, and so are the
    compatibility rows in full coordinates."""

    def __init__(self, *args):
        super().__init__(*args)
        self.full_cocycles = False

    def _compatibility(self, n: int):
        M = self.module
        return echelon(compatibility_rows(False, self.algebra, M.carrier_dim,
                                          M.beta_rows, n))

    def _compile(self, n: int):
        M = self.module
        return hom_delta(self.algebra, M.left, M.right, M.carrier_dim, n)


def compatible_parts(phi) -> tuple:
    """``morphism_parts`` of an associative-kind phi, each a
    ``CompatibleModuleComplex``."""
    return (CompatibleModuleComplex(phi.source),
            CompatibleModuleComplex(phi.target),
            CompatibleModuleComplex(phi.source, adjoint_module(phi)))


def compatible_morphism_complex(phi) -> MorphismComplex:
    """The coupled complex of an associative-kind phi on the compatible
    cochains of its parts.  ``MorphismComplex`` builds its parts in
    ``__init__``, so they are replaced after it."""
    coupled = MorphismComplex(phi)
    coupled.full_cocycles = False
    coupled.source, coupled.target, coupled.connecting = compatible_parts(phi)
    return coupled


def coboundary_vectors(complex_obj, n: int) -> list[dict]:
    """The integer images under ``operator(n - 1)`` of the compatible
    cochains of degree n - 1, which span B^n (none at n = 1)."""
    if n == 1:
        return []
    prev = complex_obj.operator(n - 1)
    return [prev.numerators(v) for v in integer_kernel(
        complex_obj.compatibility_echelon(n - 1), prev.source.dim)]


def connecting_map_rank(phi, n: int, parts=None) -> int:
    """The rank of c^n: H^n(A) + H^n(B) -> H^n(A; B), (f, g) -> phi f -
    g phi^(x n), for a morphism phi: A -> B, read from the reports of the
    three part complexes (``morphism_parts`` unless given; never the
    coupled one): the images of their representatives, modulo the
    coboundaries of the connecting complex, by ``bareiss_rank``.  The
    complexes of A and B start at arity 1, so c^0 = 0; and the arity-0
    coboundary is off, so B^1(A; B) = 0."""
    if n == 0:
        return 0
    source, target, connecting = parts or morphism_parts(phi)
    P = MultilinearMap.from_matrix(phi.matrix)
    images = [f.pushforward(P) for f in _cohomology(
        source, n).representatives]
    images += [g.pullback([P] * n) for g in _cohomology(
        target, n).representatives]
    coords = connecting.operator(n).source
    below = [coords.project(connecting.delta(f)) for f in
             connecting.bound_space(n - 1).basis] if n > 1 else []
    images = [coords.project(m) for m in images]
    return (span_rank(images + below, coords.dim)
            - span_rank(below, coords.dim))


def exact_sequence_dimension(phi, n: int, parts=None) -> int:
    """dim H^n(phi) as the long exact sequence of the mapping cone of
    C(A) + C(B) -> C(A; B) gives it, from the part complexes
    (``morphism_parts`` unless given): h^n(A) + h^n(B) - rk c^n +
    h^(n-1)(A; B) - rk c^(n-1).  With the arity-0 coboundary off,
    h^0(A; B) is the dimension of the twist-compatible 0-cochains."""
    parts = parts or morphism_parts(phi)
    source, target, connecting = parts
    below = connecting.bound_space(0).dim if n == 1 else \
        _cohomology(connecting, n - 1).dim_cohomology
    return (_cohomology(source, n).dim_cohomology
            + _cohomology(target, n).dim_cohomology
            - connecting_map_rank(phi, n, parts) + below
            - connecting_map_rank(phi, n - 1, parts))
