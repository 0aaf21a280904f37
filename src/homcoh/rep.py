"""Morphisms of Hom-algebras and the module structures built from them.

The adjoint constructions are the coefficient systems every cohomology
complex in this package consumes: a morphism phi: A -> B makes the target
into an A-bimodule (associative kind) via left/right multiplication through
phi, or into a left module (Lie kind) via the bracket through phi.

The module axioms are checked by the sparse kernel of ``homcoh.algebra``:
each axiom is a defect over the nonzero actions, twist and structure-map
columns, read as integer numerators over one denominator each, keyed by its
basis arguments (algebra indices, then the carrier index).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .algebra import (ASSOCIATIVE, LIE, HomAlgebra, _after, _nonzero,
                      _products, bilinear, first_failure, freeze_tensor,
                      morphism_witnesses, multiply, sparse_columns,
                      sparse_tensor, validate)
from .errors import InvalidAlgebra, InvalidMorphism, UsageError
from .exact import Matrix, Vector, dense_vector, integral

ActionTensor = tuple[tuple[Vector, ...], ...]
_WRONG_LENGTH = "action tensor has wrong output length"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def check_morphism(source: HomAlgebra, target: HomAlgebra,
                   matrix: Matrix) -> MorphismReport:
    """Verify both morphism equations on basis vectors, with witnesses."""
    HomMorphism(source, target, matrix)  # checks the shape
    product_witness, twist_witness = morphism_witnesses(source, target, matrix)
    return MorphismReport(product_witness is None, product_witness,
                          twist_witness is None, twist_witness)


@dataclass(frozen=True)
class Bimodule:
    """Carrier acted on from the left and right by an associative-kind
    Hom-algebra; ``beta`` is the structure map of the carrier."""

    algebra: HomAlgebra
    carrier_dim: int
    beta: Matrix
    rho_l: ActionTensor  # rho_l[i][m] = left action of basis i on carrier m
    rho_r: ActionTensor  # rho_r[m][i] = right action of carrier m by basis i

    def __post_init__(self):
        if self.beta.rows != self.carrier_dim or self.beta.cols != self.carrier_dim:
            raise UsageError("beta must be carrier_dim x carrier_dim")
        n, d = self.algebra.dim, self.carrier_dim
        object.__setattr__(self, "rho_l", freeze_tensor(
            n, d, d, self.rho_l, _WRONG_LENGTH))
        object.__setattr__(self, "rho_r", freeze_tensor(
            d, n, d, self.rho_r, _WRONG_LENGTH))

    @cached_property
    def integral(self) -> tuple:
        """The nonzero left actions {(i, m): vector}, right actions
        {(m, i): vector} and columns of beta, each as (integer numerators,
        denominator)."""
        n, d = self.algebra.dim, self.carrier_dim
        return (integral(sparse_tensor(self.rho_l, n, d)),
                integral(sparse_tensor(self.rho_r, d, n)),
                integral(sparse_columns(self.beta)))

    def left(self, x, m) -> Vector:
        return bilinear(self.rho_l, x, m, self.carrier_dim)

    def right(self, m, x) -> Vector:
        return bilinear(self.rho_r, m, x, self.carrier_dim)

    def apply_beta(self, m) -> Vector:
        return self.beta.matvec(m)


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


def validate_bimodule(M: Bimodule) -> list[str]:
    """Return human-readable violations (empty list when all axioms hold).

    Checked on basis triples: the left axiom, its mirror image on the
    right, and the left/right compatibility equation.
    """
    (alpha, a), (mul, m) = M.algebra.integral
    (left, l), (right, r), (beta, b) = M.integral
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


@dataclass(frozen=True)
class LieModule:
    """Left module over a Lie-kind Hom-algebra."""

    algebra: HomAlgebra
    carrier_dim: int
    beta: Matrix
    action: ActionTensor  # action[i][m] = bracket of basis i with carrier m

    def __post_init__(self):
        if self.beta.rows != self.carrier_dim or self.beta.cols != self.carrier_dim:
            raise UsageError("beta must be carrier_dim x carrier_dim")
        object.__setattr__(self, "action", freeze_tensor(
            self.algebra.dim, self.carrier_dim, self.carrier_dim, self.action,
            _WRONG_LENGTH))

    @cached_property
    def integral(self) -> tuple:
        """The nonzero actions {(i, m): vector} and columns of beta, each
        as (integer numerators, denominator)."""
        return (integral(sparse_tensor(self.action, self.algebra.dim,
                                       self.carrier_dim)),
                integral(sparse_columns(self.beta)))

    def act(self, x, m) -> Vector:
        return bilinear(self.action, x, m, self.carrier_dim)

    def apply_beta(self, m) -> Vector:
        return self.beta.matvec(m)


def validate_lie_module(P: LieModule) -> list[str]:
    """Violations of the two module axioms, checked on bases."""
    L, d = P.algebra, P.carrier_dim
    (alpha, a), (mul, m) = L.integral
    (act, p), (beta, b) = P.integral
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


def adjoint_bimodule(phi: HomMorphism, strict: bool = True) -> Bimodule:
    """Target algebra as a bimodule over the source through phi."""
    A, B = phi.source, phi.target
    if A.kind != ASSOCIATIVE or B.kind != ASSOCIATIVE:
        raise UsageError("adjoint bimodule needs associative-kind algebras")
    if strict:
        report = check_morphism(A, B, phi.matrix)
        if not report.is_valid:
            raise InvalidMorphism(report.describe())
    cols = [phi.matrix.column(i) for i in range(A.dim)]
    units = [dense_vector({m: 1}, B.dim) for m in range(B.dim)]
    rho_l = [[multiply(B, cols[i], e) for e in units] for i in range(A.dim)]
    rho_r = [[multiply(B, e, cols[i]) for i in range(A.dim)] for e in units]
    return Bimodule(algebra=A, carrier_dim=B.dim, beta=B.alpha,
                    rho_l=rho_l, rho_r=rho_r)


def self_bimodule(A: HomAlgebra) -> Bimodule:
    """A as a bimodule over itself (left/right action = multiplication)."""
    if A.kind != ASSOCIATIVE:
        raise UsageError("self bimodule needs an associative-kind algebra")
    rho = [[A.mul[i][j] for j in range(A.dim)] for i in range(A.dim)]
    return Bimodule(algebra=A, carrier_dim=A.dim, beta=A.alpha,
                    rho_l=rho, rho_r=rho)


def lie_adjoint_module(phi: HomMorphism, strict: bool = True) -> LieModule:
    """Target as a left module over the source via the bracket through phi."""
    L, G = phi.source, phi.target
    if L.kind != LIE or G.kind != LIE:
        raise UsageError("adjoint module needs Lie-kind algebras")
    if strict:
        report = check_morphism(L, G, phi.matrix)
        if not report.is_valid:
            raise InvalidMorphism(report.describe())
        for X in (L, G):
            rep = validate(X)
            if not rep.is_valid:
                raise InvalidAlgebra(f"{X.name}: {rep.describe()}")
    cols = [phi.matrix.column(i) for i in range(L.dim)]
    units = [dense_vector({m: 1}, G.dim) for m in range(G.dim)]
    action = [[multiply(G, cols[i], e) for e in units] for i in range(L.dim)]
    return LieModule(algebra=L, carrier_dim=G.dim, beta=G.alpha, action=action)


def self_lie_module(L: HomAlgebra) -> LieModule:
    """L acting on itself by its own bracket."""
    if L.kind != LIE:
        raise UsageError("self module needs a Lie-kind algebra")
    action = [[L.mul[i][j] for j in range(L.dim)] for i in range(L.dim)]
    return LieModule(algebra=L, carrier_dim=L.dim, beta=L.alpha, action=action)
