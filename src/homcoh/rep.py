"""Morphisms of Hom-algebras and the module structures built from them.

The adjoint constructions are the coefficient systems every cohomology
complex in this package consumes: a morphism phi: A -> B makes the target
into an A-bimodule (associative kind) via left/right multiplication through
phi, or into a left module (Lie kind) via the bracket through phi.  The
dual-space module candidate and its defining condition are also provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .algebra import (ASSOCIATIVE, LIE, HomAlgebra, apply_alpha, bilinear,
                      multiply, validate)
from .errors import InvalidAlgebra, InvalidMorphism, UsageError
from .exact import Matrix, Vector, basis_vector, vec_sub

ActionTensor = tuple[tuple[Vector, ...], ...]


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
    phi = HomMorphism(source, target, matrix)
    product_ok, product_witness = True, None
    for i, j in product(range(source.dim), repeat=2):
        ei, ej = source.basis_vector(i), source.basis_vector(j)
        lhs = phi.apply(multiply(source, ei, ej))
        rhs = multiply(target, phi.apply(ei), phi.apply(ej))
        if lhs != rhs:
            product_ok = False
            product_witness = ((source.basis_names[i], source.basis_names[j]),
                               tuple(a - b for a, b in zip(lhs, rhs)))
            break
    twist_ok, twist_witness = True, None
    for j in range(source.dim):
        ej = source.basis_vector(j)
        lhs = phi.apply(apply_alpha(source, ej))
        rhs = apply_alpha(target, phi.apply(ej))
        if lhs != rhs:
            twist_ok = False
            twist_witness = (source.basis_names[j],
                             tuple(a - b for a, b in zip(lhs, rhs)))
            break
    return MorphismReport(product_ok, product_witness, twist_ok, twist_witness)


def _freeze_action(rows: int, cols: int, dim: int, tensor) -> ActionTensor:
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            v = tuple(Fraction(x) for x in tensor[i][j])
            if len(v) != dim:
                raise UsageError("action tensor has wrong output length")
            row.append(v)
        out.append(tuple(row))
    return tuple(out)


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
        object.__setattr__(self, "rho_l", _freeze_action(
            self.algebra.dim, self.carrier_dim, self.carrier_dim, self.rho_l))
        object.__setattr__(self, "rho_r", _freeze_action(
            self.carrier_dim, self.algebra.dim, self.carrier_dim, self.rho_r))

    def left(self, x, m) -> Vector:
        return bilinear(self.rho_l, x, m, self.carrier_dim)

    def right(self, m, x) -> Vector:
        return bilinear(self.rho_r, m, x, self.carrier_dim)

    def apply_beta(self, m) -> Vector:
        return self.beta.matvec(m)


def _violations(X: HomAlgebra, carrier_dim: int, axioms) -> list[str]:
    """One message per failing axiom, at its first failing basis arguments.

    Each axiom is (message template, number of algebra arguments, holds):
    holds(algebra basis vectors..., carrier basis vector) tells whether the
    equation holds there; the template is formatted with the algebra
    indices followed by the carrier index.
    """
    problems = []
    for template, slots, holds in axioms:
        failing = (t + (m,) for t in product(range(X.dim), repeat=slots)
                   for m in range(carrier_dim)
                   if not holds(*[X.basis_vector(i) for i in t],
                                basis_vector(carrier_dim, m)))
        first = next(failing, None)
        if first is not None:
            problems.append(template.format(*first))
    return problems


def validate_bimodule(M: Bimodule) -> list[str]:
    """Return human-readable violations (empty list when all axioms hold).

    Checked on basis triples: the left axiom, its mirror image on the
    right, and the left/right compatibility equation.
    """
    A = M.algebra
    return _violations(A, M.carrier_dim, (
        ("left axiom fails at ({0},{1};{2})", 2, lambda x, y, v:
         M.left(multiply(A, x, y), M.apply_beta(v))
         == M.left(apply_alpha(A, x), M.left(y, v))),
        ("right axiom fails at ({2};{0},{1})", 2, lambda x, y, v:
         M.right(M.apply_beta(v), multiply(A, x, y))
         == M.right(M.right(v, x), apply_alpha(A, y))),
        ("compatibility fails at ({0};{2};{1})", 2, lambda x, z, v:
         M.right(M.left(x, v), apply_alpha(A, z))
         == M.left(apply_alpha(A, x), M.right(v, z)))))


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
        object.__setattr__(self, "action", _freeze_action(
            self.algebra.dim, self.carrier_dim, self.carrier_dim, self.action))

    def act(self, x, m) -> Vector:
        return bilinear(self.action, x, m, self.carrier_dim)

    def apply_beta(self, m) -> Vector:
        return self.beta.matvec(m)


def validate_lie_module(P: LieModule) -> list[str]:
    """Violations of the two module axioms, checked on bases."""
    L = P.algebra
    return _violations(L, P.carrier_dim, (
        ("structure-map axiom fails at ({0};{1})", 1, lambda u, v:
         P.act(apply_alpha(L, u), P.apply_beta(v))
         == P.apply_beta(P.act(u, v))),
        ("module condition fails at ({0},{1};{2})", 2, lambda u, v, z:
         P.act(multiply(L, u, v), P.apply_beta(z))
         == vec_sub(P.act(apply_alpha(L, u), P.act(v, z)),
                    P.act(apply_alpha(L, v), P.act(u, z))))))


def adjoint_bimodule(phi: HomMorphism, strict: bool = True) -> Bimodule:
    """Target algebra as a bimodule over the source through phi."""
    A, B = phi.source, phi.target
    if A.kind != ASSOCIATIVE or B.kind != ASSOCIATIVE:
        raise UsageError("adjoint bimodule needs associative-kind algebras")
    if strict:
        report = check_morphism(A, B, phi.matrix)
        if not report.is_valid:
            raise InvalidMorphism(report.describe())
    rho_l = [[multiply(B, phi.apply(A.basis_vector(i)),
                       basis_vector(B.dim, m))
              for m in range(B.dim)] for i in range(A.dim)]
    rho_r = [[multiply(B, basis_vector(B.dim, m),
                       phi.apply(A.basis_vector(i)))
              for i in range(A.dim)] for m in range(B.dim)]
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
    action = [[multiply(G, phi.apply(L.basis_vector(i)),
                        basis_vector(G.dim, m))
               for m in range(G.dim)] for i in range(L.dim)]
    return LieModule(algebra=L, carrier_dim=G.dim, beta=G.alpha, action=action)


def self_lie_module(L: HomAlgebra) -> LieModule:
    """L acting on itself by its own bracket."""
    if L.kind != LIE:
        raise UsageError("self module needs a Lie-kind algebra")
    action = [[L.mul[i][j] for j in range(L.dim)] for i in range(L.dim)]
    return LieModule(algebra=L, carrier_dim=L.dim, beta=L.alpha, action=action)


def coadjoint_module(rep: LieModule, L: HomAlgebra) -> tuple[LieModule, bool]:
    """Dual-space module candidate and the condition deciding whether it
    really is a module: act(bracket(x, y), beta(v)) must equal
    act(x, act(alpha(y), v)) - act(y, act(alpha(x), v)) on all bases."""
    if rep.algebra is not L and rep.algebra != L:
        raise UsageError("module does not belong to the given algebra")
    n = rep.carrier_dim
    # dual action of basis i = minus transpose of the action matrix of i
    dual_action = [[tuple(-rep.action[i][k][j] for k in range(n))
                    for j in range(n)] for i in range(L.dim)]
    dual = LieModule(algebra=L, carrier_dim=n, beta=rep.beta.transpose(),
                     action=dual_action)
    condition_holds = not _violations(L, n, (("", 2, lambda x, y, v:
        rep.act(multiply(L, x, y), rep.apply_beta(v))
        == vec_sub(rep.act(x, rep.act(apply_alpha(L, y), v)),
                   rep.act(y, rep.act(apply_alpha(L, x), v)))),))
    return dual, condition_holds
