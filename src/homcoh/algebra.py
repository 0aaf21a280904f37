"""Hom-algebras given by structure constants, their validity checks, and
the twist construction turning an ordinary algebra into a Hom-algebra.

A ``HomAlgebra`` is a triple (underlying space, multiplication, twist): the
multiplication is stored as the full structure-constant tensor
``mul[i][j]`` = coordinates of the product of basis vectors i and j, and the
twist is the matrix whose column j is the image of basis vector j.  For the
Lie kind the tensor is stored in full (both orders) and skew-symmetry is a
checked invariant, not an assumption.  ``product_table`` completes a Lie
bracket given by one order of each pair, for algebras and deformation
terms alike; ``product_tensor`` lays its table out as the tensor.

Every defining identity is evaluated by one sparse kernel, read from the
nonzero constants only (``HomAlgebra.sparse``): the structure identity of
a pair of bilinear maps, the product and twist equations of a matrix, and
skew-symmetry.  Algebra validity, morphism checks, the twist construction,
the module axioms (``homcoh.rep``), the order-by-order deformation checks
and the compiled coboundaries all go through it; validity, morphism and
module checks and the compilers read the constants as integers over one
denominator each (``HomAlgebra.integral``).  An algebra also keeps, once
built, the other constants every compile of its complexes reads: the
powers of its twist, whether its product is skew, the rows of its twist
and the tables of its action on itself (``Action``).
"""

from __future__ import annotations

import os
from collections import namedtuple
from functools import cached_property
from fractions import Fraction
from math import lcm

from .errors import ArityLimitError, MorphismViolation, UsageError
from .exact import (Matrix, Vector, as_fraction, dense_vector, integral,
                    rational_to_string, sparse_vector, value_class)


def format_vector(v) -> list[str]:
    return [rational_to_string(x) for x in v]


_DEFAULT_MAX_ARITY = 4


def max_arity() -> int:
    raw = os.environ.get("HOMCOH_MAX_ARITY", "")
    if not raw:
        return _DEFAULT_MAX_ARITY
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise UsageError("HOMCOH_MAX_ARITY must be a non-negative integer, "
                         f"got {raw!r}")
    return value


def _check_arity_guard(k: int):
    limit = max_arity()
    if k > limit:
        raise ArityLimitError(
            f"cochain arity {k} exceeds limit {limit}; "
            f"raise HOMCOH_MAX_ARITY to override")


ASSOCIATIVE = "associative"
LIE = "lie"

MulTensor = tuple[tuple[Vector, ...], ...]


def product_table(kind: str, products: dict) -> dict:
    """The products {(i, j): {k: c}} of basis pairs, as given; for the Lie
    kind a pair given in one order only is completed by its negative in the
    other."""
    table = dict(products)
    if kind == LIE:
        for (i, j), v in products.items():
            if (j, i) not in products:
                table[j, i] = {k: -c for k, c in v.items()}
    return table


# the most entries dim^3 of a structure-constant tensor: dim <= 215
MAX_TENSOR_ENTRIES = 10 ** 7


def product_tensor(kind: str, dim: int, products: dict) -> list:
    """The tensor mul[i][j][k] that ``HomAlgebra`` takes, laid out from
    ``product_table(kind, products)``.  A tensor of more than
    ``MAX_TENSOR_ENTRIES`` entries is a ``UsageError``, before any is
    allocated."""
    if dim ** 3 > MAX_TENSOR_ENTRIES:
        raise UsageError(f"dim {dim} needs {dim ** 3} structure constants, "
                         f"over the bound {MAX_TENSOR_ENTRIES}")
    mul = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), v in product_table(kind, products).items():
        for k, c in v.items():
            mul[i][j][k] = c
    return mul


@value_class
class HomAlgebra:
    name: str
    kind: str
    dim: int
    mul: MulTensor
    alpha: Matrix
    basis_names: tuple[str, ...] = None

    def __post_init__(self):
        if self.kind not in (ASSOCIATIVE, LIE):
            raise UsageError(f"unknown algebra kind {self.kind!r}")
        if self.dim < 1:
            raise UsageError("dim must be >= 1")
        if self.alpha.rows != self.dim or self.alpha.cols != self.dim:
            raise UsageError("alpha must be a dim x dim matrix")
        n, mul = self.dim, self.mul
        if len(mul) != n or any(len(row) != n for row in mul):
            raise UsageError(f"structure constants must be {n} rows of "
                             f"{n} vectors")
        mul = tuple(tuple(tuple(as_fraction(x) for x in mul[i][j])
                          for j in range(n)) for i in range(n))
        if any(len(v) != n for row in mul for v in row):
            raise UsageError("structure constant vector has wrong length")
        object.__setattr__(self, "mul", mul)
        names = tuple(f"e{i + 1}" for i in range(self.dim)) \
            if self.basis_names is None else tuple(self.basis_names)
        for name in names:
            if not isinstance(name, str):
                raise UsageError(f"basis name {name!r} is not a string")
        if len(names) != self.dim:
            raise UsageError("basis_names length != dim")
        if len(set(names)) != self.dim:
            raise UsageError(f"basis names must be distinct, got {names}")
        object.__setattr__(self, "basis_names", names)

    @cached_property
    def sparse(self) -> SparseConstants:
        """The nonzero twist columns and products of basis pairs."""
        return SparseConstants(sparse_columns(self.alpha), sparse_entries(
            ((i, j), v) for i, row in enumerate(self.mul)
            for j, v in enumerate(row)))

    @cached_property
    def integral(self) -> tuple[tuple[dict, int], tuple[dict, int]]:
        """The twist columns and products of ``sparse`` as integer
        numerators over one denominator each: ((alpha, a), (mul, m))."""
        return integral(self.sparse.alpha), integral(self.sparse.mul)

    @cached_property
    def _powers(self) -> list[dict]:
        """The integer columns of alpha^0, alpha^1, ... built so far."""
        return [{j: {j: 1} for j in range(self.dim)}]

    def twist_power(self, exponent: int) -> tuple[dict, int]:
        """alpha^exponent as (nonzero integer columns, a^exponent).  Each
        power is built once per algebra, as alpha times the power below it,
        and kept; the arity guard bounds the exponent of a new power, and so
        how many are kept.  Callers share the columns and only read them."""
        if exponent < 0:
            raise UsageError(f"negative twist power {exponent}")
        (alpha, a), _ = self.integral
        powers = self._powers
        if exponent >= len(powers):
            _check_arity_guard(exponent)
        while len(powers) <= exponent:
            acc = {}
            _after(acc, alpha, powers[-1])
            powers.append(_nonzero(acc))
        return powers[exponent], a ** exponent

    @cached_property
    def skew(self) -> bool:
        """Whether the product is skew-symmetric on basis pairs."""
        return not skew_defect(self.integral[1][0])

    @cached_property
    def scalar_twist(self) -> dict:
        """{i: c} for each basis vector that alpha maps to c e_i, c over the
        denominator of ``integral``."""
        return scalar_entries(self.integral[0][0], self.dim)

    @cached_property
    def twist_rows(self) -> StructureRows:
        """alpha's rows: the structure map of A as a module over itself."""
        return StructureRows(*self.integral[0], self.dim)

    @cached_property
    def self_action(self) -> Action:
        """The product as the integer action of A on itself, from either
        side; it keeps the tables of A acting on itself."""
        return Action(self.integral[1])

    @cached_property
    def validity(self) -> ValidityReport:
        """The defining identity on all basis triples, plus stored
        skew-symmetry for the Lie kind; multiplicativity of the twist is
        reported independently.  Checked once per algebra, on the integer
        constants: a term of the identity has one twist and two products."""
        ((alpha, a), (mul, m)), n = self.integral, self.dim
        witness = first_failure(skew_defect(mul), n, self.basis_names, m) \
            if self.kind == LIE else None
        witness = witness or first_failure(identity_defect(
            self.kind, alpha, [(mul, mul)]), n, self.basis_names, a * m * m)
        mult_witness = morphism_witnesses(self, self, self.alpha)[0]
        return ValidityReport(witness is None, witness, mult_witness is None,
                              mult_witness, self.kind)


class Action(tuple):
    """An integer action (numerators, den) of an algebra on a carrier, keyed
    (algebra, carrier) from the left or (carrier, algebra) from the right,
    that keeps the table of each (exponent, side) it is compiled with
    (``table``).  An ``Action`` of an ``Action`` is itself."""

    def __new__(cls, action):
        if isinstance(action, cls):
            return action
        self = super().__new__(cls, action)
        self._tables = {}
        return self

    def table(self, A: HomAlgebra, exponent: int, d: int,
              right: bool = False) -> tuple[list, int]:
        """(table, den): table[b] = {r: {q: c}} over the r reached, den
        times coordinate r of the action of column b of alpha^exponent on
        basis vector q of the d-dimensional carrier.  A kept table is read
        only through the power of A's twist it was built from."""
        P, p = A.twist_power(exponent)
        kept = self._tables.get((exponent, right))
        if kept is None or kept[0] is not P:
            acts, t = self
            table = []
            for b in range(A.dim):
                rows = {}
                for a, pa in P.get(b, {}).items():
                    for q in range(d):
                        for r, e in acts.get((q, a) if right else (a, q),
                                             {}).items():
                            _add(rows, r, {q: e}, pa)
                table.append(rows)
            kept = self._tables[exponent, right] = (P, table, p * t)
        return kept[1:]


class StructureRows(tuple):
    """A structure map of a dim-dimensional space, given by its nonzero
    integer columns over one denominator, as (its nonzero rows {r: {s: x}},
    den).  It keeps ``scalars``, ``scalar_entries`` of its rows, which
    ``cochain.compatibility_rows`` reads."""

    def __new__(cls, columns: dict, den: int, dim: int):
        self = super().__new__(cls, (transposed(columns), den))
        self.scalars = scalar_entries(self[0], dim)
        return self


# alpha: {j: column j of the twist}, nonzero columns only;
# mul: {(i, j): product of basis vectors i and j}, nonzero only
SparseConstants = namedtuple("SparseConstants", "alpha mul")


# The sparse kernel.  A sparse vector is a {coordinate: value} dict; a
# bilinear map is {(i, j): sparse vector} over its nonzero basis products
# and a matrix is {j: sparse column} over its nonzero columns.  Each defect
# below is lhs - rhs of one defining identity on basis arguments, as
# {argument tuple (or basis index): sparse vector}, with every vanishing
# entry dropped; ``first_failure`` reads the witness off it.

def sparse_entries(values) -> dict:
    """{key: sparse vector} over the (key, vector) pairs with a nonzero
    vector: argument tuples of a map, or columns of a matrix."""
    return {k: c for k, v in values if (c := sparse_vector(v))}


def sparse_columns(m: Matrix) -> dict:
    return sparse_entries((j, m.column(j)) for j in range(m.cols))


def transposed(columns: dict) -> dict:
    """The nonzero rows {i: {j: x}} of the matrix with the nonzero sparse
    columns {j: {i: x}}."""
    rows = {}
    for j, col in columns.items():
        for i, x in col.items():
            rows.setdefault(i, {})[j] = x
    return rows


def scalar_entries(vectors: dict, dim: int) -> dict:
    """{i: c} for each i < dim whose sparse vector in vectors is c e_i (or
    absent, c = 0)."""
    return {i: v.get(i, 0) for i in range(dim)
            if (v := vectors.get(i, {})).keys() <= {i}}


def _bilinear(mu: dict, u: dict, w: dict) -> dict:
    """Sparse bilinear map on sparse arguments."""
    out = {}
    for a, ca in u.items():
        for b, cb in w.items():
            for r, x in mu.get((a, b), {}).items():
                out[r] = out.get(r, 0) + ca * cb * x
    return out


def _add(acc: dict, t, v: dict, c=1):
    """acc[t] += c * v on sparse vectors."""
    slot = acc.setdefault(t, {})
    for r, x in v.items():
        slot[r] = slot.get(r, 0) + c * x


def _after(acc: dict, m: dict, mu: dict, c=1):
    """acc[t] += c * m(mu[t]): a sparse matrix after a sparse map."""
    for t, v in mu.items():
        for b, x in v.items():
            _add(acc, t, m.get(b, {}), c * x)


def _products(acc: dict, outer: dict, us: dict, ws: dict, key, c=1):
    """acc[key(i, j)] += c * outer(us[i], ws[j]) over every entry i of us
    and j of ws: a bilinear map on sparse arguments, keyed by theirs."""
    for i, u in us.items():
        for j, w in ws.items():
            _add(acc, key(i, j), _bilinear(outer, u, w), c)


def _nonzero(acc: dict) -> dict:
    """acc without its zero coordinates and its vanishing entries."""
    return {t: w for t, v in acc.items()
            if (w := {r: x for r, x in v.items() if x})}


def identity_defect(kind: str, alpha: dict, pairs) -> dict:
    """The structure identity summed over (outer, inner) pairs of bilinear
    maps, on basis triples (x, y, z): the twisted associator
    outer(alpha x, inner(y, z)) - outer(inner(x, y), alpha z) for the
    associative kind, the cyclic sum of outer(alpha x, inner(y, z)) for
    the Lie kind."""
    assoc = kind == ASSOCIATIVE
    acc = {}
    for outer, inner in pairs:
        for (y, z), v in inner.items():
            for x, ax in alpha.items():
                left = _bilinear(outer, ax, v)
                for t in ([(x, y, z)] if assoc
                          else [(x, y, z), (z, x, y), (y, z, x)]):
                    _add(acc, t, left)
        if assoc:
            _products(acc, outer, inner, alpha, lambda xy, z: xy + (z,), -1)
    return _nonzero(acc)


def product_defect(after, through) -> dict:
    """The product equation on basis pairs (x, y): the sum of m(mu(x, y))
    over the (m, mu) pairs of ``after`` minus the sum of mu(l x, r y) over
    the (mu, l, r) triples of ``through``."""
    acc = {}
    for m, mu in after:
        _after(acc, m, mu)
    for mu, left, right in through:
        _products(acc, mu, left, right, lambda x, y: (x, y), -1)
    return _nonzero(acc)


def twist_defect(m: dict, alpha: dict, beta: dict) -> dict:
    """The twist equation m(alpha e_j) - beta(m e_j), by basis index j."""
    acc = {}
    _after(acc, m, alpha)
    _after(acc, beta, m, -1)
    return _nonzero(acc)


def skew_defect(mu: dict) -> dict:
    """mu(e_i, e_j) + mu(e_j, e_i) on basis pairs i <= j."""
    acc = {}
    for (i, j), v in mu.items():
        _add(acc, (min(i, j), max(i, j)), v, 2 if i == j else 1)
    return _nonzero(acc)


def first_failure(defect: dict, dim: int, names=None,
                  den: int = 1) -> tuple | None:
    """(first failing argument tuple or index in lexicographic order, its
    defect over ``den`` as a length-dim vector), or None when the defect
    vanishes; the arguments are given by basis name when ``names`` is."""
    if not defect:
        return None
    at = min(defect)
    vector = tuple(Fraction(defect[at].get(r, 0), den) for r in range(dim))
    if names is not None:
        at = names[at] if isinstance(at, int) else tuple(names[i] for i in at)
    return at, vector


def morphism_witnesses(source: HomAlgebra, target: HomAlgebra,
                       matrix: Matrix) -> tuple:
    """First failures, by basis name, of the product equation and of the
    twist equation of ``matrix`` as a map from source to target, evaluated
    on the integer constants with both sides of each over one denominator."""
    m, q = integral(sparse_columns(matrix))
    ((alpha, a), (mul, u)), ((beta, b), (mul_b, v)) = (source.integral,
                                                       target.integral)
    pden, tden = lcm(q * u, v * q * q), lcm(q * a, b * q)
    product = product_defect([(_scaled(m, pden // (q * u)), mul)],
                             [(_scaled(mul_b, pden // (v * q * q)), m, m)])
    twist = twist_defect(m, _scaled(alpha, tden // (q * a)),
                         _scaled(beta, tden // (b * q)))
    return (first_failure(product, target.dim, source.basis_names, pden),
            first_failure(twist, target.dim, source.basis_names, tden))


def _scaled(entries: dict, c: int) -> dict:
    """c times each sparse vector of ``entries``."""
    return {k: {r: c * x for r, x in v.items()} for k, v in entries.items()}


def multiply(algebra: HomAlgebra, x, y) -> Vector:
    """Bilinear extension of the structure constants."""
    n = algebra.dim
    if len(x) != n or len(y) != n:
        raise UsageError("multiply: vector length != dim")
    return dense_vector(_bilinear(algebra.sparse.mul, sparse_vector(x),
                                  sparse_vector(y)), n)


@value_class
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


def validate(A: HomAlgebra) -> ValidityReport:
    """The validity report of A (see ``HomAlgebra.validity``).  Never
    raises: invalid input is a finding."""
    return A.validity


def yau_twist(A: HomAlgebra, gamma: Matrix) -> HomAlgebra:
    """New Hom-algebra (A, gamma∘mul, gamma∘alpha).

    gamma must be multiplicative for the given multiplication, and must
    commute with the existing twist (vacuous when that twist is the
    identity); violations raise MorphismViolation with a witness pair.
    """
    if gamma.rows != A.dim or gamma.cols != A.dim:
        raise UsageError("gamma must be a dim x dim matrix")
    product_witness, twist_witness = morphism_witnesses(A, A, gamma)
    if product_witness is not None:
        raise MorphismViolation(
            "gamma is not multiplicative for the given product",
            witness=product_witness)
    if twist_witness is not None:
        raise MorphismViolation("gamma does not commute with the twist",
                                witness=twist_witness)
    products = {}
    _after(products, sparse_columns(gamma), A.sparse.mul)
    # laid out as A stores it: a pair held in one order only is not completed
    return HomAlgebra(name=f"{A.name}_twisted", kind=A.kind, dim=A.dim,
                      mul=product_tensor(A.kind, A.dim, {
                          **{(j, i): {} for i, j in products}, **products}),
                      alpha=gamma @ A.alpha, basis_names=A.basis_names)
