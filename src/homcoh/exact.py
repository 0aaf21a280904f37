"""Exact rational scalars, dense matrices, and deterministic linear algebra.

Everything downstream (cochain bases, differentials, cohomology dimensions)
reduces to the handful of operations here: reduced row echelon form, the
canonical nullspace basis read off it, particular solutions, and membership
in a span.  All arithmetic is ``fractions.Fraction``; there is no floating
point anywhere in the package.

Canonical choices, fixed once so every result is reproducible bit for bit:

* ``rref`` picks the first nonzero entry (top to bottom) of the leftmost
  eligible column as pivot.
* ``nullspace_basis`` returns one vector per free column, in increasing
  free-column order, with the free coordinate set to 1.
* ``solve`` returns the particular solution with all free coordinates 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, UsageError

Rational = Fraction
Vector = tuple[Fraction, ...]


def rational_from_string(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` with q > 0; no whitespace allowed."""
    if not isinstance(text, str) or text != text.strip() or " " in text:
        raise ParseError(f"malformed rational literal {text!r}")
    num, sep, den = text.partition("/")
    try:
        n = int(num)
        d = int(den) if sep else 1
    except ValueError:
        raise ParseError(f"malformed rational literal {text!r}") from None
    if d <= 0:
        raise ParseError(f"denominator must be positive in {text!r}")
    return Fraction(n, d)


def rational_to_string(value: Fraction) -> str:
    """Canonical reduced form: ``"p"`` or ``"p/q"`` with q > 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def vec_is_zero(a: Vector) -> bool:
    return all(x == 0 for x in a)


def lincomb(coeffs, vectors, length: int) -> Vector:
    """sum of c * v over paired coefficients and length-``length`` vectors."""
    out = [Fraction(0)] * length
    for c, v in zip(coeffs, vectors):
        if c:
            for i, x in enumerate(v):
                if x:
                    out[i] += c * x
    return tuple(out)


def sparse_vector(v) -> dict[int, Fraction]:
    return {i: x for i, x in enumerate(v) if x}


def expand_product(args) -> list:
    """Multilinear expansion of sparse vectors {index: coefficient}: the
    (index tuple, product of coefficients) terms of their tensor product."""
    terms = [((), 1)]
    for arg in args:
        terms = [(t + (i,), c * e) for t, c in terms for i, e in arg.items()]
    return terms


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def basis_vector(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


@dataclass(frozen=True)
class Matrix:
    """Dense row-major matrix of rationals."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise UsageError(
                f"matrix {self.rows}x{self.cols} needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        if any(len(r) != nc for r in rows):
            raise UsageError("ragged rows")
        return cls(nr, nc, tuple(Fraction(x) for r in rows for x in r))

    @classmethod
    def from_columns(cls, cols, nrows: int | None = None) -> "Matrix":
        cols = [list(c) for c in cols]
        if not cols:
            return cls(nrows or 0, 0, ())
        nr = len(cols[0])
        return cls.from_rows([[c[i] for c in cols] for i in range(nr)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(Fraction(1 if i == j else 0)
                               for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, (Fraction(0),) * (rows * cols))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(self.at(i, j)
                            for j in range(self.cols) for i in range(self.rows)))

    def matvec(self, v) -> Vector:
        if len(v) != self.cols:
            raise UsageError(f"matvec: expected length {self.cols}, got {len(v)}")
        out = [Fraction(0)] * self.rows
        for j, c in enumerate(v):
            if c:
                for i in range(self.rows):
                    e = self.entries[i * self.cols + j]
                    if e:
                        out[i] += c * e
        return tuple(out)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise UsageError("matmul: inner dimensions differ")
        cols = [self.matvec(other.column(j)) for j in range(other.cols)]
        return Matrix.from_columns(cols, nrows=self.rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise UsageError("matrix add: shapes differ")
        return Matrix(self.rows, self.cols,
                      tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise UsageError("matrix sub: shapes differ")
        return Matrix(self.rows, self.cols,
                      tuple(a - b for a, b in zip(self.entries, other.entries)))

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        return Matrix(self.rows, self.cols, tuple(c * x for x in self.entries))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == Matrix.identity(self.rows)


@dataclass(frozen=True)
class RrefResult:
    reduced: Matrix
    rank: int
    pivot_columns: tuple[int, ...]


def _rref_rows(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place Gauss-Jordan; returns (rows, pivot column indices)."""
    if not rows:
        return rows, []
    nr, nc = len(rows), len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        pr = -1
        for i in range(r, nr):
            if rows[i][c] != 0:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != 1:
            inv = 1 / pv
            rows[r] = [x * inv for x in rows[r]]
        lead = rows[r]
        for i in range(nr):
            if i != r:
                f = rows[i][c]
                if f:
                    rows[i] = [a - f * b for a, b in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows, pivots


def rref(m: Matrix) -> RrefResult:
    """Unique reduced row echelon form, rank, and pivot columns."""
    rows, pivots = _rref_rows(m.row_list())
    return RrefResult(Matrix.from_rows(rows) if rows else m,
                      len(pivots), tuple(pivots))


def nullspace_basis(m: Matrix) -> list[Vector]:
    """Canonical kernel basis: one vector per free column of the RREF."""
    res = rref(m)
    piv = res.pivot_columns
    free = [c for c in range(m.cols) if c not in piv]
    basis = []
    for fc in free:
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(piv):
            v[pc] = -res.reduced.at(i, fc)
        basis.append(tuple(v))
    return basis


def solve(m: Matrix, b) -> Vector | None:
    """One particular solution of m x = b (free coordinates 0), or None."""
    if len(b) != m.rows:
        raise UsageError(f"solve: rhs length {len(b)} != {m.rows} rows")
    rows = [list(m.row(i)) + [Fraction(b[i])] for i in range(m.rows)]
    rows, pivots = _rref_rows(rows)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for i, pc in enumerate(pivots):
        x[pc] = rows[i][m.cols]
    return tuple(x)


def in_span(vectors, v) -> Vector | None:
    """Coordinates of v in span(vectors), or None if v lies outside."""
    vectors = list(vectors)
    if not vectors:
        return () if vec_is_zero(tuple(v)) else None
    n = len(vectors[0])
    if any(len(w) != n for w in vectors) or len(v) != n:
        raise UsageError("in_span: mismatched vector lengths")
    return solve(Matrix.from_columns(vectors), v)


def column_rank(vectors) -> int:
    vectors = [v for v in vectors if not vec_is_zero(tuple(v))]
    if not vectors:
        return 0
    return rref(Matrix.from_columns(vectors)).rank


def independent_subset(vectors) -> list[int]:
    """Indices of a maximal independent subset, chosen greedily in order."""
    vectors = list(vectors)
    if not vectors:
        return []
    res = rref(Matrix.from_columns(vectors))
    return list(res.pivot_columns)


def intersection_basis(u_cols, w_cols) -> list[Vector]:
    """Basis of span(u_cols) ∩ span(w_cols), expressed as ambient vectors."""
    u_cols = list(u_cols)
    w_cols = list(w_cols)
    if not u_cols or not w_cols:
        return []
    n = len(u_cols[0])
    stacked = Matrix.from_columns([list(c) for c in u_cols]
                                  + [[-x for x in c] for c in w_cols])
    vecs = []
    for coeffs in nullspace_basis(stacked):
        acc = [Fraction(0)] * n
        for c, col in zip(coeffs[:len(u_cols)], u_cols):
            if c:
                for i in range(n):
                    acc[i] += c * col[i]
        if not vec_is_zero(tuple(acc)):
            vecs.append(tuple(acc))
    keep = independent_subset(vecs)
    return [vecs[i] for i in keep]
