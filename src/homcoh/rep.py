"""Morphisms of Hom-algebras and the module structures built from them.

The adjoint constructions are the coefficient systems every cohomology
complex in this package consumes: a morphism phi: A -> B makes the target
into an A-bimodule (associative kind) via left/right multiplication through
phi, or into a left module (Lie kind) via the bracket through phi.  Both
are a ``Module``, which holds its nonzero actions as integer numerators
over one denominator each, the form the compiled coboundaries read.

A module (M, beta) over A is exactly a semidirect product A ⋉ M, twisted
by alpha ⊕ beta, that satisfies the algebra's own identity: so
``validate_module`` checks the axioms with the sparse kernel of
``homcoh.algebra`` that checks every algebra, on the integer constants of
A ⋉ M.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm

from .algebra import (ASSOCIATIVE, LIE, Action, HomAlgebra, StructureRows,
                      _nonzero, _products, _scaled, identity_defect,
                      morphism_witnesses, product_defect, sparse_columns,
                      transposed)
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
    coboundaries read, so a module builds each table once.  An entry
    outside the algebra and the carrier is a ``UsageError``.
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
        n, d = self.algebra.dim, self.carrier_dim
        for side, shape in (("left", (n, d)), ("right", (d, n))):
            if (action := getattr(self, side)) is None:
                continue
            for key, v in action[0].items():
                if not (len(key) == 2 and 0 <= key[0] < shape[0]
                        and 0 <= key[1] < shape[1]
                        and all(0 <= r < d for r in v)):
                    raise UsageError(
                        f"{side} action entry {key} with coordinates "
                        f"{sorted(v)} does not fit a {n}-dimensional algebra "
                        f"acting on a {d}-dimensional carrier")
            object.__setattr__(self, side, Action(action))

    @cached_property
    def beta_rows(self) -> StructureRows:
        """beta's rows; the algebra's own when beta is its twist."""
        if self.beta is self.algebra.alpha:
            return self.algebra.twist_rows
        return StructureRows(*integral(sparse_columns(self.beta)),
                             self.carrier_dim)


def _units(n: int) -> dict:
    """The basis vectors of an n-dimensional space, as sparse vectors."""
    return {i: {i: 1} for i in range(n)}


def _placed(entries: dict, c: int, at, shift: int) -> dict:
    """c times each sparse vector of entries, at key at(k), its
    coordinates shifted by ``shift``."""
    return {at(k): {shift + i: c * x for i, x in v.items()}
            for k, v in entries.items()}


def _semidirect(M: Module) -> tuple[dict, int, dict, dict]:
    """A ⋉ M on A's basis followed by the carrier's (carrier index q at
    dim A + q), as (twist columns, t, products, mixed): the twist alpha ⊕
    beta over t, A's product with both actions over one denominator, and
    its products with a carrier argument, the actions alone."""
    n = M.algebra.dim
    (alpha, a), (mul, m) = M.algebra.integral
    (beta, b), (left, l) = M.beta_rows, M.left
    # for the Lie kind [m, x] = -rho(x)m: the left action mirrored, over -l
    right, r = M.right or ({(q, x): v for (x, q), v in left.items()}, -l)
    t, p = lcm(a, b), lcm(m, l, r)
    twist = {**_placed(alpha, t // a, lambda j: j, 0),
             **_placed(transposed(beta), t // b, lambda q: n + q, n)}
    mixed = {**_placed(left, p // l, lambda k: (k[0], n + k[1]), n),
             **_placed(right, p // r, lambda k: (n + k[0], k[1]), n)}
    return twist, t, {**_placed(mul, p // m, lambda k: k, 0), **mixed}, mixed


# The module axioms, by kind: the structure identity of A ⋉ M on the
# triples with one carrier argument, one axiom for each position of that
# argument (a triple with two vanishes, as M M = 0).  On such a triple the
# outer product of every term has one carrier argument, so the identity is
# evaluated with the mixed products outside, which leaves out the triples
# of A that ``HomAlgebra.validity`` checks.  Each has its message,
# and the order of the triple's arguments in which its first failure is
# taken, ending with the carrier argument.
_AXIOMS = {
    ASSOCIATIVE: (("left axiom fails at ({0},{1};{2})", (0, 1, 2)),
                  ("right axiom fails at ({2};{0},{1})", (1, 2, 0)),
                  ("compatibility fails at ({0};{2};{1})", (0, 2, 1))),
    LIE: (("module condition fails at ({0},{1};{2})", (0, 1, 2)),),
}


def validate_module(M: Module) -> list[str]:
    """Violations of the module axioms (empty when all hold), each at its
    first failing basis arguments: the structure identity of A ⋉ M
    (``_semidirect``) on the triples with one carrier argument, after, for
    the Lie kind, multiplicativity of its twist on the pairs (x, m) (the
    structure-map axiom).  Both sides of each are over one denominator."""
    A, n = M.algebra, M.algebra.dim
    twist, t, product, mixed = _semidirect(M)
    identity = identity_defect(A.kind, twist, [(mixed, product)])
    checks = [(identity, *axiom) for axiom in _AXIOMS[A.kind]]
    if A.kind == LIE:
        checks.insert(0, (product_defect(
            [(_scaled(twist, t), mixed)], [(mixed, twist, twist)]),
            "structure-map axiom fails at ({0};{1})", (0, 1)))
    out = []
    for defect, template, order in checks:
        if failing := [tuple(k[i] for i in order) for k in defect
                       if k[order[-1]] >= n]:
            *xs, v = min(failing)
            out.append(template.format(*xs, v - n))
    return out


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
    ``HomAlgebra.self_action``), so every self module of A shares them.
    Its entries are A's own products, so they are not checked again."""
    act = A.self_action
    return Module._unchecked(A, A.dim, A.alpha, act,
                             act if A.kind == ASSOCIATIVE else None)
