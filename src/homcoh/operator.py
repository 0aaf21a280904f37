"""Coboundary operators compiled into sparse exact matrices.

Every differential of the package is linear in the cochain, and its
coefficients are polynomials in the structure constants, the twist, the
power alpha^(n-1) and the module actions.  The compilers here build that
matrix once, from the nonzero constants only, so a coboundary becomes a
sparse product instead of a dense evaluation on every basis tuple.

Operators map sparse {coordinate: value} dicts between ``cochain.Coords``
systems; ``apply_operator`` converts a full tensor once on the way in and
once on the way out.  Associative-kind operators use full coordinates.
Lie-kind operators take alternating cochains in reduced coordinates; their
images are alternating exactly when the bracket is skew, so only then are
the images reduced as well.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .algebra import HomAlgebra, alpha_power, skew_defect
from .cochain import HOM, Coords, MorphismCoords
from .errors import UsageError
from .exact import Matrix, SparseMatrix, expand_product, solve, sparse_vector


class SparseOperator:
    """Exact linear map from ``source`` to ``target`` coordinates, stored
    as one {column: coefficient} dict per target coordinate."""

    def __init__(self, source, target, rows: list[dict]):
        self.source, self.target, self.rows = source, target, rows

    @cached_property
    def _columns(self) -> list[list]:
        """The (row, coefficient) pairs of each source coordinate."""
        cols = [[] for _ in range(self.source.dim)]
        for i, row in enumerate(self.rows):
            for j, c in row.items():
                cols[j].append((i, c))
        return cols

    def apply(self, x: dict) -> dict:
        """The sparse image of the sparse coordinates x: the columns of its
        entries only."""
        dim = self.source.dim
        if x and not 0 <= min(x) <= max(x) < dim:
            raise UsageError(f"operator needs coordinates below {dim}")
        cols, out = self._columns, {}
        for j, xj in x.items():
            for i, c in cols[j]:
                out[i] = out.get(i, 0) + c * xj
        return {i: v for i, v in out.items() if v}

    def sparse_matrix(self, vectors=None) -> SparseMatrix:
        """The operator's matrix; with sparse ``vectors``, the matrix whose
        column j is the image of vectors[j]."""
        if vectors is None:
            return SparseMatrix(len(self.rows), self.source.dim, self.rows)
        return SparseMatrix.from_columns([self.apply(v) for v in vectors],
                                         len(self.rows))


def apply_operator(op: SparseOperator, f):
    """op applied to a full tensor (or morphism cochain), as one; the
    tensor is converted to sparse coordinates once."""
    x = op.source.project(f)
    if x is None:
        raise UsageError("Lie-kind coboundary needs an alternating cochain")
    return op.target.to_full(op.apply(x))


def solve_coboundary(op: SparseOperator, coords, target) -> dict | None:
    """Sparse coefficients over ``coords`` of a cochain whose image is the
    full tensor ``target``, or None.  Reduced coordinates hold only
    alternating images, so a target they cannot hold is not a coboundary."""
    rhs = op.target.project(target)
    return None if rhs is None else solve(op.sparse_matrix(coords), rhs)


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
    alpha, mul = A.sparse
    P = alpha_power(A, n - 1) if left or right else None
    lt = left and (left[0], _act_table(P, left[1], d))
    rt = right and (right[0], _act_table(P, right[1], d, right=True))
    rows = []
    for t in tgt.tuples:
        inner = {}
        for k, w in enumerate(merge):
            if not w:
                continue
            args = ([alpha.get(i, {}) for i in t[:k]]
                    + [mul.get(t[k:k + 2], {})]
                    + [alpha.get(i, {}) for i in t[k + 2:]])
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
    alpha, mul = L.sparse
    tgt = Coords(n + 1, L.dim, d, reduced and not skew_defect(mul))
    table = action is not None and _act_table(alpha_power(L, n - 1),
                                              action, d)
    rows = []
    for t in tgt.tuples:
        inner = {}
        for i, j in combinations(range(n + 1), 2):
            rest = [alpha.get(b, {}) for p, b in enumerate(t)
                    if p != i and p != j]
            for s, c in expand_product([mul.get((t[i], t[j]), {})] + rest):
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


def morphism_delta(matrix: Matrix, flavor: str, op_a: SparseOperator,
                   op_b: SparseOperator,
                   op_ab: SparseOperator | None) -> SparseOperator:
    """Coupled coboundary on (comp_A, comp_B, comp_AB) coordinates of a
    morphism with the given matrix, from the degree-n coboundaries op_a and
    op_b of both ends and the degree-(n-1) coboundary op_ab of the adjoint
    module (None for n = 1, where that coboundary is zero).

    The connecting block is the defect phi∘f_A - f_B∘(phi, ..., phi) minus
    (hom), or times (-1)^(n-1) plus (lie), the module coboundary of comp_AB.
    """
    n, a_dim, b_dim = op_a.source.arity, matrix.cols, matrix.rows
    if op_ab is None:  # comp_AB is reduced as comp_A is, its image as dA's
        ab_src = Coords(0, a_dim, b_dim, op_a.source.reduced)
        ab_tgt = Coords(1, a_dim, b_dim, op_a.target.reduced)
    else:
        ab_src, ab_tgt = op_ab.source, op_ab.target
    w_def, w_ab = (1, -1) if flavor == HOM else ((-1) ** (n - 1), 1)
    off_b = op_a.source.dim
    off_ab = off_b + op_b.source.dim
    rows = op_a.rows + [{off_b + j: c for j, c in row.items()}
                        for row in op_b.rows]
    pcols = [sparse_vector(matrix.column(j)) for j in range(a_dim)]
    for ti, t in enumerate(ab_tgt.tuples):
        loc_a = op_a.source.locate(t)
        pulled = []  # diamond: comp_B evaluated on phi of the arguments
        for s, c in expand_product([pcols[i] for i in t]):
            loc = op_b.source.locate(s)
            if loc:
                pulled.append((off_b + loc[0] * b_dim, -w_def * loc[1] * c))
        for r in range(b_dim):
            row = {} if op_ab is None else {
                off_ab + j: w_ab * c
                for j, c in op_ab.rows[ti * b_dim + r].items()}
            for q in range(a_dim) if loc_a else ():
                e = matrix.at(r, q)
                if e:
                    k = loc_a[0] * a_dim + q
                    row[k] = row.get(k, 0) + w_def * loc_a[1] * e
            for base, c in pulled:
                row[base + r] = row.get(base + r, 0) + c
            rows.append({k: c for k, c in row.items() if c})
    return SparseOperator(MorphismCoords((op_a.source, op_b.source, ab_src)),
                          MorphismCoords((op_a.target, op_b.target, ab_tgt)),
                          rows)
