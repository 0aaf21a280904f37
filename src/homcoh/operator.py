"""Coboundary operators compiled into sparse exact matrices.

Every differential of the package is linear in the cochain, and its
coefficients are integer polynomials in the structure constants, the
twist, its power alpha^(n-1), the module actions and the morphism matrix.
The compilers here read each of these as integer numerators over one
denominator (``exact.integral``) and build the matrix once, from the
nonzero constants only (a zero bracket or product builds nothing, alpha
is expanded once per distinct remaining tuple, and each term is written
straight into its rows, where an entry that cancels is dropped): integer
{column: int} rows over one denominator ``den`` per operator, 1 for
integer constants.  A coboundary is then a sparse integer product, and
``SparseOperator.apply`` makes a ``Fraction`` only for each nonzero output
entry (``numerators`` stops before that, on integer coordinates, for
callers that need only the span of an image).  Module actions are read in
the integer form a ``rep.Module`` holds them in (``Module.left``,
``Module.right``).

Operators map sparse {coordinate: value} dicts between ``cochain.Coords``
systems; ``apply_operator`` converts a multilinear map once on the way in
and once on the way out.  Associative-kind operators use full coordinates.
Lie-kind operators take alternating cochains in reduced coordinates; their
images are alternating exactly when the bracket is skew, so only then are
the images reduced as well.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm

from .algebra import HomAlgebra, _add, skew_defect, sparse_columns
from .cochain import HOM, Coords, MorphismCoords
from .errors import UsageError
from .exact import Matrix, expand_product, integral


class SparseOperator:
    """Exact linear map from ``source`` to ``target`` coordinates: one
    {column: int} row per target coordinate, over the denominator ``den``."""

    def __init__(self, source, target, rows: list[dict], den: int = 1):
        self.source, self.target = source, target
        self.rows, self.den = rows, den

    @cached_property
    def columns(self) -> list[list]:
        """The (row, coefficient) pairs of each source coordinate."""
        cols = [[] for _ in range(self.source.dim)]
        for i, row in enumerate(self.rows):
            for j, c in row.items():
                cols[j].append((i, c))
        return cols

    def numerators(self, x: dict) -> dict:
        """The image of the sparse integer coordinates x, by the columns of
        its entries, as integer numerators over the operator's ``den``."""
        cols, out = self.columns, {}  # one per source coordinate
        if x and not 0 <= min(x) <= max(x) < len(cols):
            raise UsageError(f"operator needs coordinates below {len(cols)}")
        for j, v in x.items():
            for i, c in cols[j]:
                out[i] = out.get(i, 0) + c * v
        return {i: v for i, v in out.items() if v}

    def apply(self, x: dict) -> dict:
        """The sparse image of the sparse rational coordinates x: one
        ``Fraction`` per nonzero output entry."""
        xs, den = integral({0: x})
        return {i: Fraction(v, den * self.den)
                for i, v in self.numerators(xs[0]).items()}


def apply_operator(op: SparseOperator, f):
    """op applied to a multilinear map (or morphism cochain), as one; the
    map is converted to sparse coordinates once."""
    x = op.source.project(f)
    if x is None:
        raise UsageError("Lie-kind coboundary needs an alternating cochain")
    return op.target.to_full(op.apply(x))


def _act_table(A: HomAlgebra, n: int, action: tuple[dict, int], d: int,
               right: bool = False) -> tuple[list, int]:
    """(table, den): table[b] = {r: {q: c}} over the r reached, den times
    coordinate r of the action of column b of alpha^max(n-1, 0) on carrier
    basis vector q (from the left, or from the right), from a module's
    integer action: keyed (algebra, carrier), (carrier, algebra) if right."""
    P, p = A.twist_power(max(n - 1, 0))
    acts, t = action
    table = []
    for b in range(A.dim):
        rows = {}
        for a, pa in P.get(b, {}).items():
            for q in range(d):
                for r, e in acts.get((q, a) if right else (a, q), {}).items():
                    _add(rows, r, {q: e}, pa)
        table.append(rows)
    return table, p * t


def _write(rows: list, at: int, d: int, inner: dict, acts) -> None:
    """Add one output tuple to its d rows, from index ``at``: ``inner``
    {input tuple index: c} once per carrier coordinate, each act (weight,
    input tuple index, table) only in the rows its table reaches.  An
    entry that cancels is dropped as it is written."""
    for j, c in inner.items():
        if c:
            for r in range(d):
                rows[at + r][j * d + r] = c
    for w, j, table in acts:
        for r, col in table.items():
            row = rows[at + r]
            for q, c in col.items():
                if v := row.get(k := j * d + q, 0) + w * c:
                    row[k] = v
                else:
                    row.pop(k, None)


def hom_operator(A: HomAlgebra, d: int, n: int, merge, left=None,
                 right=None) -> SparseOperator:
    """Associative-kind coboundary terms on arity-n cochains with values in
    a d-dimensional carrier, in full coordinates.

    merge[k] weights f(alpha x_0, ..., x_k x_{k+1}, ..., alpha x_n);
    left = (weight, rho_l) weights rho_l(alpha^(n-1) x_0, f(x_1, ..., x_n));
    right = (weight, rho_r) weights rho_r(f(x_0, ..., x_{n-1}),
    alpha^(n-1) x_n), the actions as in ``Module.left`` and
    ``Module.right``.
    """
    src, tgt = Coords(n, A.dim, d, False), Coords(n + 1, A.dim, d, False)
    (alpha, a), (mul, m) = A.integral
    lt = left and _act_table(A, n, left[1], d)
    rt = right and _act_table(A, n, right[1], d, right=True)
    mden = a ** max(n - 1, 0) * m  # a merge term: a product, n - 1 twists
    den = lcm(mden, *(act[1] for act in (lt, rt) if act))
    merge = [w * (den // mden) for w in merge]
    rows = [{} for _ in range(tgt.dim)]
    for ti, t in enumerate(tgt.tuples):
        inner = {}
        for k, w in enumerate(merge):
            if not w or t[k:k + 2] not in mul:  # no term, or a zero product
                continue
            args = ([alpha.get(i, {}) for i in t[:k]]
                    + [mul[t[k:k + 2]]]
                    + [alpha.get(i, {}) for i in t[k + 2:]])
            for s, c in expand_product(args):
                j = src.index[s]
                inner[j] = inner.get(j, 0) + w * c
        acts = []  # an empty table column (a central element) adds nothing
        if lt and (table := lt[0][t[0]]):
            acts.append((left[0] * (den // lt[1]), src.index[t[1:]], table))
        if rt and (table := rt[0][t[-1]]):
            acts.append((right[0] * (den // rt[1]), src.index[t[:-1]], table))
        _write(rows, ti * d, d, inner, acts)
    return SparseOperator(src, tgt, rows, den)


def lie_operator(L: HomAlgebra, d: int, n: int, action=None,
                 reduced: bool = True) -> SparseOperator:
    """Lie-kind coboundary terms on arity-n cochains with values in a
    d-dimensional carrier: the sum over i < j of (-1)^(i+j) f([x_i, x_j],
    alpha x_0, ..., alpha x_n) (x_i, x_j omitted), plus, given a module's
    integer action (``Module.left``), the sum over i of (-1)^i
    action(alpha^(n-1) x_i, f(..., x_n)) (x_i omitted).  With ``reduced``
    the input is an alternating cochain.
    """
    src = Coords(n, L.dim, d, reduced)
    (alpha, a), (mul, m) = L.integral
    tgt = Coords(n + 1, L.dim, d, reduced and not skew_defect(mul))
    act = action is not None and _act_table(L, n, action, d)
    mden = a ** max(n - 1, 0) * m  # a bracket term: a product, n - 1 twists
    den = lcm(mden, act[1]) if act else mden
    rows, rests = [{} for _ in range(tgt.dim)], {}
    for ti, t in enumerate(tgt.tuples):
        inner = {}
        for i, j in combinations(range(n + 1), 2):
            if not (bracket := mul.get((t[i], t[j]))):
                continue
            rest = t[:i] + t[i + 1:j] + t[j + 1:]
            if rest not in rests:  # alpha^(tensor n-1), once per rest
                rests[rest] = expand_product([alpha.get(b, {}) for b in rest])
            w = (-1) ** (i + j) * (den // mden)
            for k, e in bracket.items():
                for s, c in rests[rest]:
                    if loc := src.locate((k,) + s):
                        inner[loc[0]] = inner.get(loc[0], 0) + \
                            w * loc[1] * e * c
        acts = []  # an empty table column (a central element) adds nothing
        for i in range(n + 1) if act else ():
            if (table := act[0][t[i]]) and \
                    (loc := src.locate(t[:i] + t[i + 1:])):
                acts.append(((-1) ** i * loc[1] * (den // act[1]), loc[0],
                             table))
        _write(rows, ti * d, d, inner, acts)
    return SparseOperator(src, tgt, rows, den)


def hom_delta(A: HomAlgebra, rho_l, rho_r, d: int, n: int) -> SparseOperator:
    """The associative-kind coboundary with values in a bimodule, from its
    integer actions (``Module.left``, ``Module.right``)."""
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
    All blocks are brought over one common denominator.
    """
    n, a_dim, b_dim = op_a.source.arity, matrix.cols, matrix.rows
    if op_ab is None:  # comp_AB is reduced as comp_A is, its image as dA's
        ab_src = Coords(0, a_dim, b_dim, op_a.source.reduced)
        ab_tgt = Coords(1, a_dim, b_dim, op_a.target.reduced)
    else:
        ab_src, ab_tgt = op_ab.source, op_ab.target
    pcols, q = integral(sparse_columns(matrix))
    den = lcm(op_a.den, op_b.den, q ** n, op_ab.den if op_ab else 1)
    w_def, w_ab = (1, -1) if flavor == HOM else ((-1) ** (n - 1), 1)
    off_b, off_ab = op_a.source.dim, op_a.source.dim + op_b.source.dim
    rows = [{off + j: c * (den // op.den) for j, c in row.items()}
            for off, op in ((0, op_a), (off_b, op_b)) for row in op.rows]
    for ti, t in enumerate(ab_tgt.tuples):
        loc_a = op_a.source.locate(t)
        pulled = []  # diamond: comp_B evaluated on phi of the arguments
        for s, c in expand_product([pcols.get(i, {}) for i in t]):
            loc = op_b.source.locate(s)
            if loc:
                pulled.append((off_b + loc[0] * b_dim,
                               -w_def * loc[1] * c * (den // q ** n)))
        w_push = loc_a and w_def * loc_a[1] * (den // q)  # phi of comp_A
        for r in range(b_dim):
            row = {} if op_ab is None else {
                off_ab + j: w_ab * (den // op_ab.den) * c
                for j, c in op_ab.rows[ti * b_dim + r].items()}
            for i, col in pcols.items() if loc_a else ():
                if r in col:
                    k = loc_a[0] * a_dim + i
                    row[k] = row.get(k, 0) + w_push * col[r]
            for base, c in pulled:
                row[base + r] = row.get(base + r, 0) + c
            rows.append({k: c for k, c in row.items() if c})
    return SparseOperator(MorphismCoords((op_a.source, op_b.source, ab_src)),
                          MorphismCoords((op_a.target, op_b.target, ab_tgt)),
                          rows, den)
