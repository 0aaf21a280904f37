"""Hom-algebras given by structure constants, their validity checks, and
the twist construction turning an ordinary algebra into a Hom-algebra.

A ``HomAlgebra`` is a triple (underlying space, multiplication, twist): the
multiplication is stored as the full structure-constant tensor
``mul[i][j]`` = coordinates of the product of basis vectors i and j, and the
twist is the matrix whose column j is the image of basis vector j.  For the
Lie kind the tensor is stored in full (both orders) and skew-symmetry is a
checked invariant, not an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .errors import MorphismViolation, UsageError
from .exact import (Matrix, Vector, basis_vector, rational_to_string, vec_add,
                    vec_is_zero, zero_vector)


def format_vector(v) -> list[str]:
    return [rational_to_string(x) for x in v]

ASSOCIATIVE = "associative"
LIE = "lie"

MulTensor = tuple[tuple[Vector, ...], ...]


def _freeze_mul(dim: int, mul) -> MulTensor:
    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            v = tuple(Fraction(x) for x in mul[i][j])
            if len(v) != dim:
                raise UsageError("structure constant vector has wrong length")
            row.append(v)
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class HomAlgebra:
    name: str
    kind: str
    dim: int
    mul: MulTensor
    alpha: Matrix
    basis_names: tuple[str, ...] = field(default=None)

    def __post_init__(self):
        if self.kind not in (ASSOCIATIVE, LIE):
            raise UsageError(f"unknown algebra kind {self.kind!r}")
        if self.dim < 1:
            raise UsageError("dim must be >= 1")
        if self.alpha.rows != self.dim or self.alpha.cols != self.dim:
            raise UsageError("alpha must be a dim x dim matrix")
        object.__setattr__(self, "mul", _freeze_mul(self.dim, self.mul))
        if self.basis_names is None:
            object.__setattr__(
                self, "basis_names",
                tuple(f"e{i + 1}" for i in range(self.dim)))
        elif len(self.basis_names) != self.dim:
            raise UsageError("basis_names length != dim")

    def basis_vector(self, i: int) -> Vector:
        return basis_vector(self.dim, i)


def bilinear(tensor, x, y, dim: int) -> Vector:
    """The sum of x_i y_j tensor[i][j] over all i, j (a length-dim vector)."""
    out = [Fraction(0)] * dim
    for i, a in enumerate(x):
        if a:
            row = tensor[i]
            for j, b in enumerate(y):
                if b:
                    c = a * b
                    for k, e in enumerate(row[j]):
                        if e:
                            out[k] += c * e
    return tuple(out)


def multiply(algebra: HomAlgebra, x, y) -> Vector:
    """Bilinear extension of the structure constants."""
    n = algebra.dim
    if len(x) != n or len(y) != n:
        raise UsageError("multiply: vector length != dim")
    return bilinear(algebra.mul, x, y, n)


def apply_alpha(algebra: HomAlgebra, x) -> Vector:
    return algebra.alpha.matvec(x)


def alpha_power(algebra: HomAlgebra, exponent: int) -> Matrix:
    """alpha^exponent."""
    if exponent < 0:
        raise UsageError("negative twist power")
    out = Matrix.identity(algebra.dim)
    for _ in range(exponent):
        out = algebra.alpha @ out
    return out


@dataclass(frozen=True)
class ValidityReport:
    is_valid: bool
    witness: tuple | None
    multiplicative: bool
    multiplicativity_witness: tuple | None
    kind: str

    def describe(self) -> str:
        if self.is_valid:
            head = f"valid {self.kind} structure"
        else:
            names, defect = self.witness
            shown = ", ".join(format_vector(defect))
            head = (f"invalid {self.kind} structure: defect at "
                    f"({', '.join(names)}) = ({shown})")
        tail = "twist is multiplicative" if self.multiplicative else \
            "twist is NOT multiplicative"
        return head + "; " + tail


def _hom_associativity_defect(A: HomAlgebra, i: int, j: int, k: int) -> Vector:
    ei, ej, ek = A.basis_vector(i), A.basis_vector(j), A.basis_vector(k)
    left = multiply(A, apply_alpha(A, ei), multiply(A, ej, ek))
    right = multiply(A, multiply(A, ei, ej), apply_alpha(A, ek))
    return tuple(a - b for a, b in zip(left, right))


def hom_jacobi_defect(A: HomAlgebra, x, y, z) -> Vector:
    """Cyclic sum bracket(alpha(x), bracket(y, z)) over (x, y, z)."""
    total = zero_vector(A.dim)
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        total = vec_add(total, multiply(A, apply_alpha(A, a), multiply(A, b, c)))
    return total


def validate(A: HomAlgebra) -> ValidityReport:
    """Check the defining identity on all basis triples, plus stored
    skew-symmetry for the Lie kind; multiplicativity of the twist is
    reported independently.  Never raises: invalid input is a finding."""
    witness = None
    if A.kind == LIE:
        for i in range(A.dim):
            for j in range(i, A.dim):
                defect = vec_add(A.mul[i][j], A.mul[j][i])
                if not vec_is_zero(defect):
                    witness = ((A.basis_names[i], A.basis_names[j]), defect)
                    break
            if witness:
                break
        if witness is None:
            for i, j, k in product(range(A.dim), repeat=3):
                defect = hom_jacobi_defect(
                    A, A.basis_vector(i), A.basis_vector(j), A.basis_vector(k))
                if not vec_is_zero(defect):
                    witness = ((A.basis_names[i], A.basis_names[j],
                                A.basis_names[k]), defect)
                    break
    else:
        for i, j, k in product(range(A.dim), repeat=3):
            defect = _hom_associativity_defect(A, i, j, k)
            if not vec_is_zero(defect):
                witness = ((A.basis_names[i], A.basis_names[j],
                            A.basis_names[k]), defect)
                break

    multiplicative = True
    mult_witness = None
    for i, j in product(range(A.dim), repeat=2):
        ei, ej = A.basis_vector(i), A.basis_vector(j)
        lhs = apply_alpha(A, multiply(A, ei, ej))
        rhs = multiply(A, apply_alpha(A, ei), apply_alpha(A, ej))
        if lhs != rhs:
            multiplicative = False
            mult_witness = ((A.basis_names[i], A.basis_names[j]),
                            tuple(a - b for a, b in zip(lhs, rhs)))
            break

    return ValidityReport(witness is None, witness, multiplicative,
                          mult_witness, A.kind)


def yau_twist(A: HomAlgebra, gamma: Matrix) -> HomAlgebra:
    """New Hom-algebra (A, gamma∘mul, gamma∘alpha).

    gamma must be multiplicative for the given multiplication, and must
    commute with the existing twist (vacuous when that twist is the
    identity); violations raise MorphismViolation with a witness pair.
    """
    if gamma.rows != A.dim or gamma.cols != A.dim:
        raise UsageError("gamma must be a dim x dim matrix")
    for i, j in product(range(A.dim), repeat=2):
        ei, ej = A.basis_vector(i), A.basis_vector(j)
        lhs = gamma.matvec(multiply(A, ei, ej))
        rhs = multiply(A, gamma.matvec(ei), gamma.matvec(ej))
        if lhs != rhs:
            raise MorphismViolation(
                "gamma is not multiplicative for the given product",
                witness=((A.basis_names[i], A.basis_names[j]),
                         tuple(a - b for a, b in zip(lhs, rhs))))
    if not A.alpha.is_identity() and gamma @ A.alpha != A.alpha @ gamma:
        raise MorphismViolation("gamma does not commute with the twist")
    new_mul = [[gamma.matvec(A.mul[i][j]) for j in range(A.dim)]
               for i in range(A.dim)]
    return HomAlgebra(name=f"{A.name}_twisted", kind=A.kind, dim=A.dim,
                      mul=new_mul, alpha=gamma @ A.alpha,
                      basis_names=A.basis_names)
