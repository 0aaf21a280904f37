"""Coboundary operators compiled into sparse exact matrices.

Every differential of the package is linear in the cochain, and its
coefficients are integer polynomials in the structure constants, the
twist, its power alpha^(n-1), the module actions and the morphism matrix.
Both kinds, and each face operator, are lists of terms over one walker:
a merge multiplies two arguments and twists the others by alpha, and an
act lets the module act by one twisted argument.  The walker reads every
constant as an integer numerator over one denominator (``exact.integral``)
and builds the matrix once, from the nonzero constants only (a zero
bracket or product builds nothing, alpha is expanded once per distinct
remaining tuple, and each term is written straight into its rows, where
an entry that cancels is dropped).  It reads argument tuples by their
index: where a tuple without one argument, or with a product inserted,
lands comes from the landing tables of the coordinates (``Coords.faces``,
``Coords.insertions``), filled once per shape; only the terms of alpha's
expansion are looked up as tuples (``Coords.gather``).  The result is
an ``exact.SparseMatrix`` of integer {column: int} rows over one
denominator ``den`` per operator, 1 for integer constants, with its source
and target coordinates.  A coboundary is then a sparse integer product, and
``SparseMatrix.apply`` makes a ``Fraction`` only for each nonzero output
entry (``numerators`` stops before that, on integer coordinates, for
callers that need only the span of an image).  Module actions are read in
the integer form a ``rep.Module`` holds them in (``Module.left``,
``Module.right``).  Each action table is built once per algebra or module
and exponent, not once per operator: the action keeps it
(``algebra.Action``), and the self module of an algebra reads the tables
its algebra keeps.  The twist powers and the skew flag are the algebra's,
and the coordinates of each shape, with its landing tables, are one
shared ``Coords`` (``cochain.coords``); the tables hold nothing of an
algebra, and everything an operator builds from them is its own.

Operators map sparse {coordinate: value} dicts between ``cochain.Coords``
systems; ``apply_operator`` converts a multilinear map once on the way in
and once on the way out.  Associative-kind operators use full coordinates.
Lie-kind operators take alternating cochains in reduced coordinates; their
images are alternating exactly when the bracket is skew, so only then are
the images reduced as well.
"""

from __future__ import annotations

from itertools import combinations
from math import lcm

from .algebra import ASSOCIATIVE, Action, HomAlgebra, sparse_columns
from .cochain import MorphismCoords, coords
from .errors import UsageError
from .exact import SparseMatrix, expand_product, integral
from .rep import HomMorphism


def apply_operator(op: SparseMatrix, f):
    """op applied to a multilinear map (or morphism cochain), as one; the
    map is converted to sparse coordinates once."""
    x = op.source.project(f)
    if x is None:
        raise UsageError("Lie-kind coboundary needs an alternating cochain")
    return op.target.to_full(op.apply(x))


def _compile(X: HomAlgebra, d: int, n: int, reduced: bool, merges,
             acts) -> SparseMatrix:
    """The sum of coboundary terms on arity-n cochains with values in a
    d-dimensional carrier, walked over the nonzero constants of X and
    written straight into the d rows of each output tuple, where an entry
    that cancels is dropped.

    A merge (i, j, p, w) weights f(..., x_i x_j, ...) with the product at
    position p among alpha x_q of the other arguments q, in order; an
    act (slot, w, table) weights the action (``algebra.Action.table``) of
    alpha^(n-1) x_slot on f of the other arguments, only in the rows its
    table reaches.  With ``reduced`` the input is an alternating cochain,
    and so is the image when the product is skew.  Tuples are read by
    their index, through the landing tables of the coordinates.
    """
    src = coords(n, X.dim, d, reduced)
    (alpha, a), (mul, m) = X.integral
    tgt = coords(n + 1, X.dim, d, reduced and X.skew)
    mden = a ** max(n - 1, 0) * m  # a merge term: a product, n - 1 twists
    den = lcm(mden, *(tden for _, _, (_, tden) in acts))
    merges = [(i, j, p, w * (den // mden)) for i, j, p, w in merges if w]
    acts = [(slot, w * (den // tden), table)
            for slot, w, (table, tden) in acts]
    faces = tgt.faces(reduced)  # f of the other arguments, for the acts
    if merges:  # t without x_j, then without x_i: a rest, reduced as t is
        outer = tgt.faces(tgt.reduced)
        inner = coords(n, X.dim, d, tgt.reduced).faces(tgt.reduced)
        rest_tuples = coords(n - 1, X.dim, d, tgt.reduced).tuples
        lower = coords(n - 1, X.dim, d, reduced)  # the twisted rests
    ins, insert = src.insertions, src.insert
    rows, rests = [{} for _ in range(tgt.dim)], {}
    for ti, t in enumerate(tgt.tuples):
        acc, at = {}, ti * d
        for i, j, p, w in merges:
            if not (product := mul.get((t[i], t[j]))):
                continue
            r = inner[outer[ti][j][0]][i][0]
            if (terms := rests.get(r)) is None:  # alpha^(tensor n-1), once
                terms = rests[r] = lower.gather(expand_product(
                    [alpha.get(b, {}) for b in rest_tuples[r]]))
            for k, e in product.items():
                for s, c in terms:  # x_i x_j at p among the twisted rest
                    key = (s, k, p)
                    if loc := ins[key] if key in ins else insert(*key):
                        acc[loc[0]] = acc.get(loc[0], 0) + w * loc[1] * e * c
        for j, c in acc.items():
            if c:
                for r in range(d):
                    rows[at + r][j * d + r] = c
        face = faces[ti]
        for slot, w, table in acts:  # a central element has no column
            if (col := table[t[slot]]) and (loc := face[slot]):
                j, sw = loc[0], loc[1] * w
                for r, qs in col.items():
                    row = rows[at + r]
                    for q, c in qs.items():
                        if v := row.get(k := j * d + q, 0) + sw * c:
                            row[k] = v
                        else:
                            row.pop(k, None)
    return SparseMatrix(tgt.dim, src.dim, tuple(rows), den, src, tgt)


def hom_operator(A: HomAlgebra, d: int, n: int, merge, left=None,
                 right=None) -> SparseMatrix:
    """Associative-kind coboundary terms on arity-n cochains with values in
    a d-dimensional carrier, in full coordinates.

    merge[k] weights f(alpha x_0, ..., x_k x_{k+1}, ..., alpha x_n);
    left = (weight, rho_l) weights rho_l(alpha^(n-1) x_0, f(x_1, ..., x_n));
    right = (weight, rho_r) weights rho_r(f(x_0, ..., x_{n-1}),
    alpha^(n-1) x_n), the actions as in ``Module.left`` and
    ``Module.right``.
    """
    acts = [(slot, side[0], Action(side[1]).table(A, max(n - 1, 0), d, flip))
            for slot, side, flip in ((0, left, False), (n, right, True))
            if side]
    return _compile(A, d, n, False,
                    [(k, k + 1, k, w) for k, w in enumerate(merge)], acts)


def lie_operator(L: HomAlgebra, d: int, n: int, action=None,
                 reduced: bool = True) -> SparseMatrix:
    """Lie-kind coboundary terms on arity-n cochains with values in a
    d-dimensional carrier: the sum over i < j of (-1)^(i+j) f([x_i, x_j],
    alpha x_0, ..., alpha x_n) (x_i, x_j omitted), plus, given a module's
    integer action (``Module.left``), the sum over i of (-1)^i
    action(alpha^(n-1) x_i, f(..., x_n)) (x_i omitted).  With ``reduced``
    the input is an alternating cochain.
    """
    table = action is not None and \
        Action(action).table(L, max(n - 1, 0), d)
    return _compile(L, d, n, reduced,
                    [(i, j, 0, (-1) ** (i + j))
                     for i, j in combinations(range(n + 1), 2)],
                    [(i, (-1) ** i, table) for i in range(n + 1)]
                    if table else [])


def hom_delta(A: HomAlgebra, rho_l, rho_r, d: int, n: int) -> SparseMatrix:
    """The associative-kind coboundary with values in a bimodule, from its
    integer actions (``Module.left``, ``Module.right``)."""
    return hom_operator(A, d, n, [(-1) ** (k + 1) for k in range(n)],
                        (1, rho_l), ((-1) ** (n + 1), rho_r))


def morphism_delta(phi: HomMorphism, op_a: SparseMatrix,
                   op_b: SparseMatrix,
                   op_ab: SparseMatrix | None) -> SparseMatrix:
    """Coupled coboundary on (comp_A, comp_B, comp_AB) coordinates of phi,
    from the degree-n coboundaries op_a and op_b of both ends and the
    degree-(n-1) coboundary op_ab of the adjoint module (None for n = 1,
    where that coboundary is zero).

    The connecting block is the defect phi∘f_A - f_B∘(phi, ..., phi) minus
    (associative kind), or times (-1)^(n-1) plus (Lie kind), the module
    coboundary of comp_AB.  All blocks share one common denominator.
    """
    n, a_dim, b_dim = op_a.source.arity, phi.source.dim, phi.target.dim
    if op_ab is None:  # comp_AB is reduced as comp_A is, its image as dA's
        ab_src = coords(0, a_dim, b_dim, op_a.source.reduced)
        ab_tgt = coords(1, a_dim, b_dim, op_a.target.reduced)
    else:
        ab_src, ab_tgt = op_ab.source, op_ab.target
    pcols, q = integral(sparse_columns(phi.matrix))
    den = lcm(op_a.den, op_b.den, q ** n, op_ab.den if op_ab else 1)
    w_def, w_ab = (1, -1) if phi.source.kind == ASSOCIATIVE else \
        ((-1) ** (n - 1), 1)
    off_b, off_ab = op_a.source.dim, op_a.source.dim + op_b.source.dim
    rows = [{off + j: c * (den // op.den) for j, c in row.items()}
            for off, op in ((0, op_a), (off_b, op_b)) for row in op.data]
    for ti, t in enumerate(ab_tgt.tuples):
        loc_a = op_a.source.locate(t)
        # diamond: comp_B evaluated on phi of the arguments
        pulled = [(off_b + j * b_dim, -w_def * c * (den // q ** n))
                  for j, c in op_b.source.gather(expand_product(
                      [pcols.get(i, {}) for i in t]))]
        w_push = loc_a and w_def * loc_a[1] * (den // q)  # phi of comp_A
        for r in range(b_dim):
            row = {} if op_ab is None else {
                off_ab + j: w_ab * (den // op_ab.den) * c
                for j, c in op_ab.data[ti * b_dim + r].items()}
            for i, col in pcols.items() if loc_a else ():
                if r in col:
                    k = loc_a[0] * a_dim + i
                    row[k] = row.get(k, 0) + w_push * col[r]
            for base, c in pulled:
                row[base + r] = row.get(base + r, 0) + c
            rows.append({k: c for k, c in row.items() if c})
    src = MorphismCoords((op_a.source, op_b.source, ab_src))
    return SparseMatrix(len(rows), src.dim, tuple(rows), den, src,
                        MorphismCoords((op_a.target, op_b.target, ab_tgt)))
