"""Coboundary operators compiled into sparse exact matrices.

Every differential of the package is linear in the cochain, and its
coefficients are polynomials in the structure constants, the twist, the
power alpha^(n-1) and the module actions.  The compilers here build that
matrix once, from the nonzero constants only, so a coboundary becomes a
sparse product instead of a dense evaluation on every basis tuple.

Operators map between ``cochain.Coords`` systems.  Associative-kind
operators use full coordinates.  Lie-kind operators take alternating
cochains in reduced coordinates; their images are alternating exactly when
the bracket is skew, so only then are the images reduced as well.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .algebra import ASSOCIATIVE, LIE as LIE_KIND, HomAlgebra, alpha_power
from .cochain import HOM, LIE, Coords, MorphismCoords
from .errors import UsageError
from .exact import Matrix, Vector, expand_product, solve, sparse_vector
from .rep import HomMorphism, adjoint_bimodule, lie_adjoint_module

_ZERO = Fraction(0)


class SparseOperator:
    """Exact linear map from ``source`` to ``target`` coordinates, stored
    as one {column: coefficient} dict per target coordinate."""

    def __init__(self, source, target, rows: list[dict]):
        self.source, self.target, self.rows = source, target, rows

    def apply(self, x) -> Vector:
        return tuple(sum([c * x[j] for j, c in row.items() if x[j]], _ZERO)
                     for row in self.rows)

    def matrix(self, vectors=None) -> Matrix:
        """Dense matrix whose columns are the images of ``vectors``; the
        operator's own matrix when ``vectors`` is None."""
        if vectors is None:
            ncols = self.source.dim
            return Matrix(len(self.rows), ncols, tuple(
                row.get(j, _ZERO) for row in self.rows for j in range(ncols)))
        images = [self.apply(v) for v in vectors]
        return Matrix(len(self.rows), len(images), tuple(
            col[i] for i in range(len(self.rows)) for col in images))


def apply_operator(op: SparseOperator, f):
    """op applied to a full tensor (or morphism cochain), as one."""
    x = op.source.project(f)
    if x is None:
        raise UsageError("Lie-kind coboundary needs an alternating cochain")
    return op.target.to_full(op.apply(x))


def solve_coboundary(op: SparseOperator, coords, target) -> Vector | None:
    """Coefficients over ``coords`` of a cochain whose image is the full
    tensor ``target``, or None.  Reduced coordinates hold only alternating
    images, so a target they cannot hold is not a coboundary."""
    rhs = op.target.project(target)
    return None if rhs is None else solve(op.matrix(coords), rhs)


def _is_skew(X: HomAlgebra) -> bool:
    return all(X.mul[i][j][k] == -X.mul[j][i][k] for i in range(X.dim)
               for j in range(X.dim) for k in range(X.dim))


def _constants(X: HomAlgebra):
    """Sparse twist columns and sparse products of basis pairs."""
    return ([sparse_vector(X.alpha.column(b)) for b in range(X.dim)],
            [[sparse_vector(v) for v in row] for row in X.mul])


def _act_table(P: Matrix, tensor, d: int, right: bool = False) -> list:
    """table[b][r] = {q: c}: coordinate r of the action of column b of P
    on carrier basis vector q (from the left, or from the right)."""
    table = []
    for b in range(P.cols):
        rows = [{} for _ in range(d)]
        for a in range(P.rows):
            p = P.at(a, b)
            if not p:
                continue
            for q in range(d):
                for r, e in enumerate(tensor[q][a] if right else tensor[a][q]):
                    if e:
                        rows[r][q] = rows[r].get(q, 0) + p * e
        table.append(rows)
    return table


def _tuple_rows(d: int, inner: dict, acts: list) -> list[dict]:
    """The d rows of one output tuple.  ``inner`` maps an input tuple index
    to the coefficient linking equal target coordinates; each act (weight,
    input tuple index, table) mixes them through table[r]."""
    rows = []
    for r in range(d):
        row = {j * d + r: c for j, c in inner.items()}
        for w, j, table in acts:
            for q, c in table[r].items():
                row[j * d + q] = row.get(j * d + q, 0) + w * c
        rows.append({k: c for k, c in row.items() if c})
    return rows


def hom_operator(A: HomAlgebra, d: int, n: int, merge, left=None,
                 right=None) -> SparseOperator:
    """Associative-kind coboundary terms on arity-n cochains with values in
    a d-dimensional carrier, in full coordinates.

    merge[k] weights f(alpha x_0, ..., x_k x_{k+1}, ..., alpha x_n);
    left = (weight, rho_l) weights rho_l(alpha^(n-1) x_0, f(x_1, ..., x_n));
    right = (weight, rho_r) weights rho_r(f(x_0, ..., x_{n-1}),
    alpha^(n-1) x_n).
    """
    src, tgt = Coords(n, A.dim, d, False), Coords(n + 1, A.dim, d, False)
    acols, mul = _constants(A)
    P = alpha_power(A, n - 1) if left or right else None
    lt = left and (left[0], _act_table(P, left[1], d))
    rt = right and (right[0], _act_table(P, right[1], d, right=True))
    rows = []
    for t in tgt.tuples:
        inner = {}
        for k, w in enumerate(merge):
            if not w:
                continue
            args = ([acols[i] for i in t[:k]] + [mul[t[k]][t[k + 1]]]
                    + [acols[i] for i in t[k + 2:]])
            for s, c in expand_product(args):
                j = src.index[s]
                inner[j] = inner.get(j, 0) + w * c
        acts = []
        if lt:
            acts.append((lt[0], src.index[t[1:]], lt[1][t[0]]))
        if rt:
            acts.append((rt[0], src.index[t[:-1]], rt[1][t[-1]]))
        rows += _tuple_rows(d, inner, acts)
    return SparseOperator(src, tgt, rows)


def lie_operator(L: HomAlgebra, d: int, n: int, action=None,
                 reduced: bool = True) -> SparseOperator:
    """Lie-kind coboundary terms on arity-n cochains with values in a
    d-dimensional carrier: the sum over i < j of (-1)^(i+j) f([x_i, x_j],
    alpha x_0, ..., alpha x_n) (x_i, x_j omitted), plus, given an action
    tensor, the sum over i of (-1)^i action(alpha^(n-1) x_i, f(..., x_n))
    (x_i omitted).  With ``reduced`` the input is an alternating cochain.
    """
    src = Coords(n, L.dim, d, reduced)
    tgt = Coords(n + 1, L.dim, d, reduced and _is_skew(L))
    acols, mul = _constants(L)
    table = action is not None and _act_table(alpha_power(L, n - 1),
                                              action, d)
    rows = []
    for t in tgt.tuples:
        inner = {}
        for i, j in combinations(range(n + 1), 2):
            rest = [acols[b] for p, b in enumerate(t) if p != i and p != j]
            for s, c in expand_product([mul[t[i]][t[j]]] + rest):
                loc = src.locate(s)
                if loc:
                    w = (-1) ** (i + j) * loc[1]
                    inner[loc[0]] = inner.get(loc[0], 0) + w * c
        acts = []
        for i in range(n + 1) if table else ():
            loc = src.locate(t[:i] + t[i + 1:])
            if loc:
                acts.append(((-1) ** i * loc[1], loc[0], table[t[i]]))
        rows += _tuple_rows(d, inner, acts)
    return SparseOperator(src, tgt, rows)


def hom_delta(A: HomAlgebra, rho_l, rho_r, d: int, n: int) -> SparseOperator:
    """The associative-kind coboundary with values in a bimodule."""
    return hom_operator(A, d, n, [(-1) ** (k + 1) for k in range(n)],
                        (1, rho_l), ((-1) ** (n + 1), rho_r))


def morphism_delta(phi: HomMorphism, flavor: str, n: int) -> SparseOperator:
    """Coupled coboundary on (comp_A, comp_B, comp_AB) coordinates.

    The connecting block is the defect phi∘f_A - f_B∘(phi, ..., phi) minus
    (hom), or times (-1)^(n-1) plus (lie), the module coboundary of comp_AB
    in the adjoint module; for n = 1 that module coboundary is zero.
    """
    A, B = phi.source, phi.target
    kind = ASSOCIATIVE if flavor == HOM else LIE_KIND
    if flavor not in (HOM, LIE) or A.kind != kind or B.kind != kind:
        raise UsageError(f"flavor {flavor!r} does not match the algebras")
    op_a, op_b = self_delta(A, n), self_delta(B, n)
    red = flavor == LIE
    ab_src = Coords(n - 1, A.dim, B.dim, red)
    ab_tgt = Coords(n, A.dim, B.dim, red and _is_skew(A))
    op_ab = None
    if flavor == HOM:
        w_def, w_ab = 1, -1
        if n > 1:
            M = adjoint_bimodule(phi, strict=False)
            op_ab = hom_delta(A, M.rho_l, M.rho_r, B.dim, n - 1)
    else:
        w_def, w_ab = (-1) ** (n - 1), 1
        if n > 1:
            op_ab = lie_operator(A, B.dim, n - 1,
                                 lie_adjoint_module(phi, strict=False).action)
    off_b = op_a.source.dim
    off_ab = off_b + op_b.source.dim
    rows = op_a.rows + [{off_b + j: c for j, c in row.items()}
                        for row in op_b.rows]
    pcols = [sparse_vector(phi.matrix.column(j)) for j in range(A.dim)]
    for ti, t in enumerate(ab_tgt.tuples):
        loc_a = op_a.source.locate(t)
        pulled = []  # diamond: comp_B evaluated on phi of the arguments
        for s, c in expand_product([pcols[i] for i in t]):
            loc = op_b.source.locate(s)
            if loc:
                pulled.append((off_b + loc[0] * B.dim, -w_def * loc[1] * c))
        for r in range(B.dim):
            row = {} if op_ab is None else {
                off_ab + j: w_ab * c
                for j, c in op_ab.rows[ti * B.dim + r].items()}
            for q in range(A.dim) if loc_a else ():
                e = phi.matrix.at(r, q)
                if e:
                    k = loc_a[0] * A.dim + q
                    row[k] = row.get(k, 0) + w_def * loc_a[1] * e
            for base, c in pulled:
                row[base + r] = row.get(base + r, 0) + c
            rows.append({k: c for k, c in row.items() if c})
    return SparseOperator(MorphismCoords((op_a.source, op_b.source, ab_src)),
                          MorphismCoords((op_a.target, op_b.target, ab_tgt)),
                          rows)


def self_delta(X: HomAlgebra, n: int) -> SparseOperator:
    """The coboundary of X with values in itself."""
    if X.kind == ASSOCIATIVE:
        return hom_delta(X, X.mul, X.mul, X.dim, n)
    return lie_operator(X, X.dim, n, X.mul)
