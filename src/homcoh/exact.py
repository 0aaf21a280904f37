"""Exact rational scalars, dense and sparse matrices, and deterministic
linear algebra.

Everything downstream (cochain bases, differentials, cohomology dimensions)
reduces to the handful of operations here: reduced row echelon form, the
canonical nullspace basis read off it, particular solutions, and membership
in a span.  All arithmetic is exact; there is no floating point anywhere in
the package.

Vectors are sparse {coordinate: value} dicts holding only their nonzero
entries, ``Fraction``s but the integer vectors of ``integer_kernel``;
dense tuples remain only for ``Matrix`` and the vectors of the algebras.
``integral`` writes constants as integer numerators over one denominator,
as the coboundary compilers read them, and a ``SparseMatrix`` may hold
integer rows over one ``den``, as a compiled operator does.

One sparse, fraction-free kernel does every elimination, on integer rows
only: rationals are cleared where they enter (a matrix's rows, ``solve``'s
right-hand side, the vectors of ``independent_subset`` and
``intersection_basis``).  ``echelon`` is the forward elimination; it
continues from a finished ``Echelon`` (as ``solve`` can), so rows already
eliminated are not fed again, and the kernels read an ``Echelon``.  The
pivot is the row with the fewest nonzeros among those leading in the next
column (Markowitz), and values become ``Fraction`` once, at the end.  The
RREF is unique, so pivoting, seeding and row scaling decide only the cost.
``independent_subset`` eliminates its own way, as the greedy choice needs:
its vectors as rows, in their input order, each against those kept.
Canonical choices, fixed once so every result is reproducible bit for bit:

* ``rref`` pivots in the leftmost columns independent of those before.
* ``nullspace_basis`` returns one vector per free column, in increasing
  free-column order, with the free coordinate set to 1; ``integer_kernel``
  returns the same vectors as primitive integers, each with its free
  coordinate at its largest index, and callers divide only what they read.
* ``solve`` returns the particular solution with all free coordinates 0,
  whatever echelon it is seeded with.
* ``pivot_columns`` returns the leading columns of an echelon form, and
  ``independent_subset`` the greedy choice: the vectors independent of
  those before them, the pivot columns of the matrix they are the
  columns of.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import itemgetter

from .errors import ParseError, UsageError

Vector = tuple[Fraction, ...]
_ZERO = Fraction(0)


def _is_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def rational_from_string(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"``: ASCII digits, q > 0, p may have a minus."""
    num, slash, den = text.partition("/") if isinstance(text, str) else \
        ("", "", "")
    if not _is_digits(num.removeprefix("-")) or (slash and not _is_digits(den)):
        raise ParseError(f"malformed rational literal {text!r}")
    if den and int(den) == 0:
        raise ParseError(f"denominator must be positive in {text!r}")
    return Fraction(int(num), int(den or 1))


def as_fraction(x) -> Fraction:
    """x as a ``Fraction``; one that already is one is kept as it is."""
    return x if type(x) is Fraction else Fraction(x)


def rational_to_string(value: Fraction) -> str:
    """Canonical reduced form: ``"p"`` or ``"p/q"`` with q > 1."""
    value = as_fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def lincomb(coeffs: dict, vectors) -> dict:
    """sum of c * vectors[j] over the entries j: c of the sparse ``coeffs``,
    on sparse vectors."""
    out = {}
    for j, c in coeffs.items():
        for i, x in vectors[j].items():
            out[i] = out.get(i, 0) + c * x
    return {i: x for i, x in out.items() if x}


def sparse_vector(v) -> dict[int, Fraction]:
    return {i: x for i, x in enumerate(v) if x}


def dense_vector(v: dict, n: int) -> Vector:
    return tuple(v.get(i, _ZERO) for i in range(n))


def _height(vectors) -> int:
    """The number of coordinates that sparse vectors occupy: one past
    their largest index."""
    return 1 + max((max(v) for v in vectors if v), default=-1)


def integral(entries: dict) -> tuple[dict, int]:
    """Sparse vectors {key: {coordinate: rational}} as (their integer
    numerators, den) over den, the lcm of their denominators."""
    den = lcm(*(x.denominator for v in entries.values() for x in v.values()))
    return {k: {i: x.numerator * (den // x.denominator) for i, x in v.items()}
            for k, v in entries.items()}, den


def expand_product(args) -> list:
    """Multilinear expansion of sparse vectors {index: coefficient}: the
    (index tuple, product of coefficients) terms of their tensor product."""
    terms = [((), 1)]
    for arg in args:
        terms = [(t + (i,), c * e) for t, c in terms for i, e in arg.items()]
    return terms


def value_class(cls):
    """Make cls an immutable value, as ``dataclass(frozen=True)`` would,
    without generating code: its fields are its annotated names, in order,
    with the class attribute of that name as default.  The class gets

    * ``__init__`` taking the fields positionally or by keyword, then
      running ``__post_init__`` if cls has one;
    * ``__eq__`` true only for an instance of the same class whose field
      tuple is equal (``NotImplemented`` for other classes), and
      ``__hash__``, the hash of the field tuple;
    * ``__setattr__`` and ``__delattr__`` that raise ``AttributeError``
      (``object.__setattr__`` and ``cached_property`` still write the
      instance dict);
    * ``__repr__`` in the form ``Name(field=value, ...)``;
    * ``_unchecked``, a classmethod taking the fields positionally that
      skips ``__post_init__``, for values valid by construction."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    width = len(names)
    post_init = cls.__dict__.get("__post_init__")
    # the field tuple, read from an instance dict
    fields = itemgetter(*names) if width > 1 else \
        lambda values: (values[names[0]],)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != width:
            args = _bind(cls.__name__, names, defaults, args, kwargs)
        values, i = self.__dict__, 0
        for name in names:  # an index is cheaper here than zip
            values[name] = args[i]
            i += 1
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = self.__dict__, other.__dict__
        if len(mine) == len(theirs) == width:  # the fields, nothing cached
            return mine == theirs
        return fields(mine) == fields(theirs)

    def __hash__(self):
        return hash(fields(self.__dict__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        shown = ", ".join(f"{n}={v!r}"
                          for n, v in zip(names, fields(self.__dict__)))
        return f"{self.__class__.__qualname__}({shown})"

    def _unchecked(klass, *args):
        self = object.__new__(klass)
        self.__dict__.update(zip(names, args))
        return self

    for method in (__init__, __eq__, __hash__, __setattr__, __delattr__,
                   __repr__):
        setattr(cls, method.__name__, method)
    cls._unchecked = classmethod(_unchecked)
    return cls


def _bind(owner: str, names: tuple, defaults: dict, args: tuple,
          kwargs: dict) -> list:
    """The field values, in field order, of a call with positional args
    and keyword kwargs; a ``TypeError`` for an extra, unknown, repeated or
    missing argument, as a Python call raises."""
    if len(args) > len(names) or not set(kwargs) <= set(names[len(args):]):
        raise TypeError(f"{owner}() takes {', '.join(names)}, each once; "
                        f"got {len(args)} positional arguments and keywords "
                        f"{sorted(kwargs)}")
    values = {**defaults, **dict(zip(names, args)), **kwargs}
    missing = [n for n in names if n not in values]
    if missing:
        raise TypeError(f"{owner}() missing {', '.join(missing)}")
    return [values[n] for n in names]


@value_class
class Matrix:
    """Dense row-major matrix of rationals: the boundary type, in which
    algebras, morphisms and modules hold their twists and maps and files
    write them.  The engine computes on sparse maps."""

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
        return cls(nr, nc, tuple(as_fraction(x) for r in rows for x in r))

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

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return self.entries[j::self.cols]

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


@value_class
class SparseMatrix:
    """The matrix data / den: one {column: value} dict of nonzero entries
    per row, over one positive denominator; absent entries are zero.  A
    compiled operator has integer rows, and the coordinates (``Coords``)
    of its columns and rows as ``source`` and ``target``."""

    rows: int
    cols: int
    data: tuple[dict, ...]
    den: int = 1
    source: object = None
    target: object = None

    @cached_property
    def columns(self) -> list[list]:
        """The (row, coefficient) pairs of each column."""
        cols = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.data):
            for j, c in row.items():
                cols[j].append((i, c))
        return cols

    def numerators(self, x: dict) -> dict:
        """The image of the sparse integer coordinates x, by the columns of
        its entries, as integer numerators over ``den``."""
        cols, out = self.columns, {}  # one per column
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

    @classmethod
    def from_columns(cls, vectors, nrows: int) -> "SparseMatrix":
        """The matrix whose column j is the sparse vector vectors[j], with
        indices below ``nrows``."""
        vectors = list(vectors)
        data = [{} for _ in range(nrows)]
        for j, v in enumerate(vectors):
            if v and not 0 <= min(v) <= max(v) < nrows:
                raise UsageError(f"column {j} does not fit in {nrows} rows")
            for i, x in v.items():
                data[i][j] = x
        return cls(nrows, len(vectors), tuple(data))


@value_class
class RrefResult:
    reduced: Matrix
    rank: int
    pivot_columns: tuple[int, ...]


def _primitive(row: dict) -> dict:
    """row without its zero entries, divided by the gcd of the others."""
    g = gcd(*row.values())
    return {k: v // g for k, v in row.items() if v}


def _cleared(rows) -> list[dict]:
    """Integer rows as they are, any other as its primitive numerators."""
    return [row if all(type(x) is int for x in row.values())
            else _primitive(integral({0: row})[0][0]) for row in rows]


def _rows(m) -> list[dict]:
    """The rows of a Matrix or SparseMatrix as {column: value} dicts."""
    if isinstance(m, SparseMatrix):
        return m.data
    return [sparse_vector(m.row(i)) for i in range(m.rows)]


def _combine(row: dict, piv: dict, col: int) -> dict:
    """The primitive multiple of a * row - b * piv with no entry in ``col``."""
    g = gcd(piv[col], row[col])
    a, b = piv[col] // g, row[col] // g
    out = {k: a * v for k, v in row.items()}
    for k, v in piv.items():
        out[k] = out.get(k, 0) - b * v
    return _primitive(out)


Echelon = tuple  # of (pivot column, integer row leading there) pairs

def echelon(rows, seed: Echelon = Echelon()) -> Echelon:
    """The echelon of seed's rows and the {column: int} rows without zero
    entries: fraction-free sparse forward elimination, continued from
    ``seed``.  Rows are bucketed by leading column; in a column without a
    seed row the one with the fewest nonzeros is the pivot, and only the
    others in its bucket need elimination."""
    pivots = dict(seed)
    buckets: dict[int, list] = {}
    width = 1 + max((max(row) for row in pivots.values()), default=-1)
    for row in rows:
        if row:
            buckets.setdefault(min(row), []).append(row)
            width = max(width, max(row) + 1)
    for col in range(width):
        if (group := buckets.pop(col, None)) is None:
            continue
        if (piv := pivots.get(col)) is None:
            piv = pivots[col] = min(group, key=len)
        for row in group:
            if row is not piv and (row := _combine(row, piv, col)):
                buckets.setdefault(min(row), []).append(row)
    return Echelon(sorted(pivots.items()))


def _reduced(e: Echelon) -> list[tuple[int, dict]]:
    """The nonzero rows of the RREF of an echelon, as primitive integer
    (pivot column, {column: int}) pairs in increasing column order.  Back
    substitution runs from the last pivot up, so each row meets only
    finished rows."""
    done: dict[int, dict] = {}
    for col, row in reversed(e):
        for j in [j for j in row if j in done]:
            row = _combine(row, done[j], j)
        done[col] = row
    return sorted(done.items())


def rref(m) -> RrefResult:
    """Unique reduced row echelon form, rank, and pivot columns of a
    Matrix or SparseMatrix."""
    reduced = _reduced(echelon(_cleared(_rows(m))))
    entries = [_ZERO] * (m.rows * m.cols)
    for i, (col, row) in enumerate(reduced):
        for k, x in row.items():
            entries[i * m.cols + k] = Fraction(x, row[col])
    return RrefResult(Matrix(m.rows, m.cols, tuple(entries)), len(reduced),
                      tuple(col for col, _ in reduced))


def integer_kernel(e: Echelon, cols: int) -> list[dict]:
    """The canonical kernel basis of an echelon over ``cols`` columns,
    each vector as its primitive integer multiple: the canonical vector
    times the lcm of its denominators, so its free coordinate is that lcm,
    and positive."""
    reduced = _reduced(e)
    pivots = {col for col, _ in reduced}
    terms = {}  # the free columns pivot rows reach
    for col, row in reduced:
        for k, x in row.items():
            if k != col:
                terms.setdefault(k, []).append((col, x, row[col]))
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        if (ts := terms.get(fc)) is None:  # a free column no row reaches
            basis.append({fc: 1})
            continue
        scale = lcm(*(p for _, _, p in ts))
        v = {fc: scale, **{col: -x * (scale // p) for col, x, p in ts}}
        basis.append(v if scale == 1 else _primitive(v))
    return basis


def nullspace_basis(m) -> list[dict]:
    """Canonical kernel basis of a Matrix or SparseMatrix: one sparse
    vector per free column of the RREF, the ``integer_kernel`` vector
    divided by its free coordinate (its largest index)."""
    return [{k: Fraction(x, v[fc]) for k, x in v.items()} for v in
            integer_kernel(echelon(_cleared(_rows(m))), m.cols)
            for fc in (max(v),)]


def solve(m, b: dict, seed: Echelon = Echelon()) -> dict | None:
    """The particular solution of m x = b, for a sparse right-hand side,
    with all free coordinates 0; None when there is none.  ``seed``, an
    echelon over m's columns, stacks rows with a zero right-hand side
    under m without eliminating them again."""
    if b and not 0 <= min(b) <= max(b) < m.rows:
        raise UsageError(f"solve: rhs does not fit in {m.rows} rows")
    last = m.cols  # the column of b in the augmented rows
    rows = list(_rows(m))
    den = m.den if isinstance(m, SparseMatrix) else 1
    for i, c in b.items():
        rows[i] = {**rows[i], last: c * den}
    x = {}
    for col, row in _reduced(echelon(_cleared(rows), seed)):
        if col == last:
            return None
        if last in row:
            x[col] = Fraction(row[last], row[col])
    return x


def pivot_columns(rows) -> list[int]:
    """The pivot columns of {column: int} rows without zero entries, in
    increasing order: as many as the rank."""
    return [col for col, _ in echelon(rows)]


def independent_subset(vectors) -> list[int]:
    """Indices of a maximal independent subset, chosen greedily in order:
    each vector, cleared, is reduced against the rows kept before it (one
    per leading column) and kept when anything is left."""
    kept, keep = {}, []
    for i, row in enumerate(_cleared(vectors)):
        while row:
            if (piv := kept.get(col := min(row))) is None:
                kept[col] = row
                keep.append(i)
                break
            row = _combine(row, piv, col)
    return keep


def intersection_basis(u_cols, w_cols) -> list[dict]:
    """Basis of span(u_cols) ∩ span(w_cols), expressed as ambient vectors."""
    u_cols = list(u_cols)
    w_cols = list(w_cols)
    if not u_cols or not w_cols:
        return []
    stacked = SparseMatrix.from_columns(
        u_cols + [{i: -x for i, x in c.items()} for c in w_cols],
        _height(u_cols + w_cols))
    vecs = []
    for coeffs in nullspace_basis(stacked):
        acc = lincomb({j: c for j, c in coeffs.items() if j < len(u_cols)},
                      u_cols)
        if acc:
            vecs.append(acc)
    keep = independent_subset(vecs)
    return [vecs[i] for i in keep]
