"""Morphisms of Hom-algebras and the module structures built from them.

The adjoint constructions are the coefficient systems every cohomology
complex in this package consumes: a morphism phi: A -> B makes the target
into an A-bimodule (associative kind) via left/right multiplication through
phi, or into a left module (Lie kind) via the bracket through phi.  Both
are a ``Module``, which holds its nonzero actions as integer numerators
over one denominator each, the form the compiled coboundaries read.

The module axioms are checked by the sparse kernel of ``homcoh.algebra``:
each axiom is a defect over the nonzero actions, twist and structure-map
columns, read as integer numerators over one denominator each, keyed by its
basis arguments (algebra indices, then the carrier index).
"""

from __future__ import annotations

from functools import cached_property
from math import lcm

from .algebra import (ASSOCIATIVE, LIE, Action, HomAlgebra, _after,
                      _nonzero, _products, first_failure, morphism_witnesses,
                      sparse_columns, transposed)
from .errors import UsageError
from .exact import Matrix, Vector, integral, value_class


@value_class
class HomMorphism:
    source: HomAlgebra
    target: HomAlgebra
    matrix: Matrix  # column j = image of source basis vector j

    def __post_init__(self):
        if self.matrix.rows != self.target.dim or self.matrix.cols != self.source.dim:
            raise UsageError(
                f"morphism matrix must be {self.target.dim}x{self.source.dim}")

    def apply(self, x) -> Vector:
        return self.matrix.matvec(x)


@value_class
class MorphismReport:
    product_ok: bool
    product_witness: tuple | None
    twist_ok: bool
    twist_witness: tuple | None

    @property
    def is_valid(self) -> bool:
        return self.product_ok and self.twist_ok

    def describe(self) -> str:
        parts = []
        parts.append("product equation holds" if self.product_ok else
                     f"product equation fails at {self.product_witness}")
        parts.append("twist equation holds" if self.twist_ok else
                     f"twist equation fails at {self.twist_witness}")
        return "; ".join(parts)


def check_morphism(phi: HomMorphism) -> MorphismReport:
    """Verify both morphism equations on basis vectors, with witnesses."""
    product_witness, twist_witness = morphism_witnesses(
        phi.source, phi.target, phi.matrix)
    return MorphismReport(product_witness is None, product_witness,
                          twist_witness is None, twist_witness)


@value_class
class Module:
    """Carrier acted on by a Hom-algebra, with structure map ``beta``.

    ``left`` holds the nonzero left actions {(algebra index, carrier
    index): vector} and ``right`` the nonzero right actions {(carrier
    index, algebra index): vector}, each as (integer numerators,
    denominator); a module over a Lie-kind algebra has no ``right``.  Each
    is held as an ``algebra.Action``, which keeps the tables the compiled
    coboundaries read, so a module builds each table once.
    """

    algebra: HomAlgebra
    carrier_dim: int
    beta: Matrix
    left: tuple[dict, int]
    right: tuple[dict, int] | None

    def __post_init__(self):
        if self.beta.rows != self.carrier_dim or self.beta.cols != self.carrier_dim:
            raise UsageError("beta must be carrier_dim x carrier_dim")
        if (self.right is None) != (self.algebra.kind == LIE):
            raise UsageError("a module has a right action exactly when its "
                             "algebra is of the associative kind")
        object.__setattr__(self, "left", Action(self.left))
        if self.right is not None:
            object.__setattr__(self, "right", Action(self.right))

    @cached_property
    def beta_rows(self) -> tuple[dict, int]:
        """beta's nonzero rows {r: {s: x}} as (numerators, denominator);
        the algebra's own when beta is its twist."""
        if self.beta is self.algebra.alpha:
            return self.algebra.twist_rows
        return integral(transposed(sparse_columns(self.beta)))


def _defect(*terms) -> dict:
    """The sum of sign * outer(us[i], ws[j]) at key(i, j) over the terms
    (sign, den, outer, us, ws, key), each of integer values over its den,
    brought to one denominator (see ``algebra._products``)."""
    top = lcm(*(term[1] for term in terms))
    acc = {}
    for sign, den, outer, us, ws, key in terms:
        _products(acc, outer, us, ws, key, sign * (top // den))
    return _nonzero(acc)


def _units(n: int) -> dict:
    """The basis vectors of an n-dimensional space, as sparse vectors."""
    return {i: {i: 1} for i in range(n)}


def _messages(dim: int, checks) -> list[str]:
    """One message per failing check (template, defect), formatted with
    its first failing basis arguments."""
    return [template.format(*first_failure(defect, dim)[0])
            for template, defect in checks if defect]


def validate_bimodule(M: Module) -> list[str]:
    """Return human-readable violations (empty list when all axioms hold).

    Checked on basis triples: the left axiom, its mirror image on the
    right, and the left/right compatibility equation.
    """
    (alpha, a), (mul, m) = M.algebra.integral
    (left, l), (right, r) = M.left, M.right
    beta, b = integral(sparse_columns(M.beta))
    return _messages(M.carrier_dim, (
        ("left axiom fails at ({0},{1};{2})", _defect(
            (1, l * m * b, left, mul, beta, lambda xy, v: xy + (v,)),
            (-1, l * a * l, left, alpha, left, lambda x, yv: (x,) + yv))),
        ("right axiom fails at ({2};{0},{1})", _defect(
            (1, r * b * m, right, beta, mul, lambda v, xy: xy + (v,)),
            (-1, r * r * a, right, right, alpha,
             lambda vx, y: (vx[1], y, vx[0])))),
        ("compatibility fails at ({0};{2};{1})", _defect(
            (1, r * l * a, right, left, alpha,
             lambda xv, z: (xv[0], z, xv[1])),
            (-1, l * a * r, left, alpha, right,
             lambda x, vz: (x, vz[1], vz[0]))))))


def validate_lie_module(P: Module) -> list[str]:
    """Violations of the two module axioms, checked on bases."""
    L, d = P.algebra, P.carrier_dim
    (alpha, a), (mul, m) = L.integral
    act, p = P.left
    beta, b = integral(sparse_columns(P.beta))
    after = {}  # beta(act(u, v)) as a bilinear map
    _after(after, beta, act)
    return _messages(d, (
        ("structure-map axiom fails at ({0};{1})", _defect(
            (1, p * a * b, act, alpha, beta, lambda u, v: (u, v)),
            (-1, b * p, after, _units(L.dim), _units(d),
             lambda u, v: (u, v)))),
        ("module condition fails at ({0},{1};{2})", _defect(
            (1, p * m * b, act, mul, beta, lambda uv, z: uv + (z,)),
            (-1, p * a * p, act, alpha, act, lambda u, vz: (u,) + vz),
            (1, p * a * p, act, alpha, act,
             lambda v, uz: (uz[0], v, uz[1]))))))


def adjoint_module(phi: HomMorphism) -> Module:
    """The target of phi as a module over the source through phi: acted on
    by multiplication with phi from both sides (associative kind), or by
    the bracket with phi from the left (Lie kind)."""
    A, B = phi.source, phi.target
    if A.kind != B.kind:
        raise UsageError("adjoint module needs algebras of one kind")
    cols, units = sparse_columns(phi.matrix), _units(B.dim)
    left, right = {}, {}
    _products(left, B.sparse.mul, cols, units, lambda i, m: (i, m))
    if A.kind == ASSOCIATIVE:
        _products(right, B.sparse.mul, units, cols, lambda m, i: (m, i))
    return Module(A, B.dim, B.alpha, integral(_nonzero(left)),
                  integral(_nonzero(right)) if A.kind == ASSOCIATIVE else None)


def self_module(A: HomAlgebra) -> Module:
    """A acting on itself by its own product from both sides (associative
    kind), or by its own bracket from the left (Lie kind).  Its structure
    rows and action tables are A's own (``HomAlgebra.twist_rows``,
    ``HomAlgebra.self_action``), so every self module of A shares them."""
    act = A.self_action
    return Module(A, A.dim, A.alpha, act,
                  act if A.kind == ASSOCIATIVE else None)
