"""Multilinear maps as dense coefficient tensors and canonical bases of
the twist-compatible (and alternating) cochain spaces.

Coefficient layout, fixed because canonical bases depend on it: the flat
array is indexed row-major lexicographically over the argument tuple
(i_1, ..., i_k), with the target coordinate innermost.

Cochains have two coordinate systems (``Coords``): full coordinates, the
layout above, and for alternating maps reduced coordinates, one per
strictly increasing argument tuple.  Cochain spaces store their basis in
the coordinates of their flavor and build full tensors only on demand.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations, product
from math import factorial

from .algebra import HomAlgebra
from .errors import ArityLimitError, UsageError
from .exact import (Matrix, Vector, expand_product, lincomb, nullspace_basis,
                    solve, sparse_vector, vec_is_zero, zero_vector)

HOM = "hom"
LIE = "lie"

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


def permutation_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _sort_sign(t) -> tuple[tuple[int, ...], int]:
    """Sorted tuple and the sign of the sorting permutation (0 on repeats)."""
    if len(set(t)) != len(t):
        return tuple(sorted(t)), 0
    order = sorted(range(len(t)), key=lambda p: t[p])
    return tuple(t[p] for p in order), permutation_sign(order)


@dataclass(frozen=True)
class MultilinearMap:
    """Arity-k map between coordinate spaces, stored on basis tuples."""

    arity: int
    source_dim: int
    target_dim: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        expected = self.source_dim ** self.arity * self.target_dim
        if len(self.coeffs) != expected:
            raise UsageError(
                f"coefficient array must have length {expected}, "
                f"got {len(self.coeffs)}")

    @classmethod
    def zero(cls, arity: int, source_dim: int, target_dim: int) -> "MultilinearMap":
        size = source_dim ** arity * target_dim
        return cls(arity, source_dim, target_dim, (Fraction(0),) * size)

    @classmethod
    def from_values(cls, arity: int, source_dim: int, target_dim: int,
                    values: dict) -> "MultilinearMap":
        """Build from a sparse {argument tuple: output vector} dict."""
        coeffs = [Fraction(0)] * (source_dim ** arity * target_dim)
        for t, vec in values.items():
            if len(t) != arity or any(not 0 <= i < source_dim for i in t):
                raise UsageError(f"bad argument tuple {t}")
            off = cls._offset_static(t, source_dim, target_dim)
            for r, x in enumerate(vec):
                coeffs[off + r] = Fraction(x)
        return cls(arity, source_dim, target_dim, tuple(coeffs))

    @classmethod
    def from_matrix(cls, m: Matrix) -> "MultilinearMap":
        """Arity-1 map from a (target_dim x source_dim) matrix."""
        vals = {(j,): m.column(j) for j in range(m.cols)}
        return cls.from_values(1, m.cols, m.rows, vals)

    @classmethod
    def constant(cls, source_dim: int, vector) -> "MultilinearMap":
        """Arity-0 map, i.e. an element of the target space."""
        return cls(0, source_dim, len(vector),
                   tuple(Fraction(x) for x in vector))

    @staticmethod
    def _offset_static(t, source_dim: int, target_dim: int) -> int:
        off = 0
        for i in t:
            off = off * source_dim + i
        return off * target_dim

    def _offset(self, t) -> int:
        return self._offset_static(t, self.source_dim, self.target_dim)

    def value_on_basis(self, t) -> Vector:
        off = self._offset(t)
        return self.coeffs[off:off + self.target_dim]

    def evaluate(self, args) -> Vector:
        """Multilinear extension to arbitrary coordinate vectors."""
        if len(args) != self.arity:
            raise UsageError(f"expected {self.arity} arguments, got {len(args)}")
        cur = list(self.coeffs)
        size = len(cur)
        for arg in args:
            if len(arg) != self.source_dim:
                raise UsageError("argument length != source_dim")
            block = size // self.source_dim
            nxt = [Fraction(0)] * block
            for i, a in enumerate(arg):
                if a:
                    base = i * block
                    for off in range(block):
                        c = cur[base + off]
                        if c:
                            nxt[off] += a * c
            cur = nxt
            size = block
        return tuple(cur)

    def __add__(self, other: "MultilinearMap") -> "MultilinearMap":
        self._require_same_shape(other)
        return MultilinearMap(self.arity, self.source_dim, self.target_dim,
                              tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "MultilinearMap") -> "MultilinearMap":
        self._require_same_shape(other)
        return MultilinearMap(self.arity, self.source_dim, self.target_dim,
                              tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "MultilinearMap":
        return self.scale(-1)

    def scale(self, c) -> "MultilinearMap":
        c = Fraction(c)
        return MultilinearMap(self.arity, self.source_dim, self.target_dim,
                              tuple(c * x for x in self.coeffs))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coeffs)

    def _require_same_shape(self, other: "MultilinearMap"):
        if (self.arity, self.source_dim, self.target_dim) != (
                other.arity, other.source_dim, other.target_dim):
            raise UsageError("multilinear map shapes differ")

    def nonzero_entries(self):
        """Yield (argument tuple, output vector) with nonzero output."""
        for t in product(range(self.source_dim), repeat=self.arity):
            v = self.value_on_basis(t)
            if not vec_is_zero(v):
                yield t, v


def is_alternating(m: MultilinearMap) -> bool:
    if m.arity < 2:
        return True
    for t in product(range(m.source_dim), repeat=m.arity):
        srt, sign = _sort_sign(t)
        ref = m.value_on_basis(srt)
        val = m.value_on_basis(t)
        expect = zero_vector(m.target_dim) if sign == 0 else \
            tuple(sign * x for x in ref)
        if val != expect:
            return False
    return True


def is_compatible(m: MultilinearMap, alpha: Matrix, beta: Matrix) -> bool:
    """Does beta∘m equal m∘(alpha tensor ... tensor alpha)?"""
    cols = [alpha.column(j) for j in range(alpha.cols)]
    for t in product(range(m.source_dim), repeat=m.arity):
        lhs = beta.matvec(m.value_on_basis(t))
        rhs = m.evaluate([cols[i] for i in t])
        if lhs != rhs:
            return False
    return True


def alternator(m: MultilinearMap) -> MultilinearMap:
    """Average of signed argument permutations; projects onto alternating
    maps and fixes alternating input."""
    k = m.arity
    if k < 2:
        return m
    norm = Fraction(1, factorial(k))
    coeffs = [Fraction(0)] * len(m.coeffs)
    for t in product(range(m.source_dim), repeat=k):
        acc = [Fraction(0)] * m.target_dim
        for perm in permutations(range(k)):
            sign = permutation_sign(perm)
            val = m.value_on_basis(tuple(t[p] for p in perm))
            for r, x in enumerate(val):
                if x:
                    acc[r] += sign * x
        off = m._offset(t)
        for r in range(m.target_dim):
            coeffs[off + r] = norm * acc[r]
    return MultilinearMap(k, m.source_dim, m.target_dim, tuple(coeffs))


@dataclass(frozen=True)
class Coords:
    """Coordinates of arity-k cochains: one per argument tuple and target
    index (full, the ``MultilinearMap.coeffs`` layout) or, for alternating
    maps, one per strictly increasing tuple (reduced)."""

    arity: int
    source_dim: int
    target_dim: int
    reduced: bool

    @cached_property
    def tuples(self) -> list[tuple[int, ...]]:
        n, k = self.source_dim, self.arity
        return list(combinations(range(n), k) if self.reduced
                    else product(range(n), repeat=k))

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        return {t: i for i, t in enumerate(self.tuples)}

    @property
    def dim(self) -> int:
        return len(self.tuples) * self.target_dim

    def locate(self, t) -> tuple[int, int] | None:
        """(tuple index, sign) holding the value on argument tuple t; None
        where an alternating map vanishes (a repeated argument)."""
        if not self.reduced:
            return self.index[t], 1
        srt, sign = _sort_sign(t)
        return (self.index[srt], sign) if sign else None

    @cached_property
    def _layout(self) -> list:
        return [self.locate(t) for t in
                product(range(self.source_dim), repeat=self.arity)]

    def to_full(self, x) -> MultilinearMap:
        if self.reduced:
            d = self.target_dim
            x = [loc[1] * x[loc[0] * d + r] if loc else Fraction(0)
                 for loc in self._layout for r in range(d)]
        return MultilinearMap(self.arity, self.source_dim, self.target_dim,
                              tuple(x))

    def project(self, m: MultilinearMap) -> Vector | None:
        """Coordinates of m; None when reduced coordinates cannot hold it
        because it is not alternating."""
        if (m.arity, m.source_dim, m.target_dim) != (
                self.arity, self.source_dim, self.target_dim):
            raise UsageError("cochain shape does not match its coordinates")
        if not self.reduced:
            return m.coeffs
        if not is_alternating(m):
            return None
        return tuple(x for t in self.tuples for x in m.value_on_basis(t))


class _SpaceBasis:
    """A basis stored as coordinate vectors in ``self.system``; full
    cochains are built only when asked for."""

    @property
    def dim(self) -> int:
        return len(self.coords)

    @cached_property
    def basis(self) -> tuple:
        return tuple(self.system.to_full(v) for v in self.coords)

    def combine(self, coords):
        return self.system.to_full(lincomb(coords, self.coords,
                                           self.system.dim))


@dataclass(frozen=True)
class CochainSpace(_SpaceBasis):
    """A cochain space with basis coordinates in the full (hom flavor) or
    reduced (lie flavor) coordinates of its arity."""

    arity: int
    flavor: str  # "hom" | "lie"
    source: HomAlgebra
    target_dim: int
    beta: Matrix
    coords: tuple[Vector, ...]

    @cached_property
    def system(self) -> Coords:
        return Coords(self.arity, self.source.dim, self.target_dim,
                      self.flavor == LIE)

    def coordinates(self, m: MultilinearMap) -> Vector | None:
        """Coordinates of m in this basis, or None if outside the span."""
        if not self.basis:
            return () if m.is_zero() else None
        cols = [b.coeffs for b in self.basis]
        return solve(Matrix.from_columns(cols), m.coeffs)


def _compatible_space(flavor: str, source: HomAlgebra, target_dim: int,
                      beta: Matrix, arity: int) -> CochainSpace:
    """Canonical basis of {f : beta∘f = f∘alpha^(tensor arity)}, solved in
    the coordinates of the flavor; arity 0 is the whole target space (no
    structure-map constraint there)."""
    if arity < 0:
        raise UsageError("arity must be >= 0")
    _check_arity_guard(arity)
    d = target_dim
    if arity == 0:
        basis = tuple(tuple(Fraction(int(r == s)) for r in range(d))
                      for s in range(d))
        return CochainSpace(0, flavor, source, d, beta, basis)
    system = Coords(arity, source.dim, d, flavor == LIE)
    alpha_cols = [sparse_vector(source.alpha.column(j))
                  for j in range(source.dim)]
    rows = []
    for ti, t in enumerate(system.tuples):
        # f(alpha e_{t_1}, ..., alpha e_{t_k}) in the unknowns of the system
        terms = {}
        for s, c in expand_product([alpha_cols[i] for i in t]):
            loc = system.locate(s)
            if loc:
                terms[loc[0]] = terms.get(loc[0], 0) + loc[1] * c
        for r in range(d):
            row = [Fraction(0)] * system.dim
            for s in range(d):
                e = beta.at(r, s)
                if e:
                    row[ti * d + s] += e
            for j, c in terms.items():
                row[j * d + r] -= c
            rows.append(row)
    return CochainSpace(arity, flavor, source, d, beta,
                        tuple(nullspace_basis(Matrix.from_rows(rows))))


def hom_cochain_basis(source: HomAlgebra, target_dim: int, beta: Matrix,
                      arity: int) -> CochainSpace:
    """Canonical basis of {f : beta∘f = f∘alpha^(tensor arity)}.

    Arity 0 is the full target space (no structure-map constraint there).
    """
    return _compatible_space(HOM, source, target_dim, beta, arity)


def lie_cochain_basis(source: HomAlgebra, target_dim: int, beta: Matrix,
                      arity: int) -> CochainSpace:
    """Canonical basis of the alternating twist-compatible maps.

    Solved on strictly increasing argument tuples; full alternation over
    the rationals follows from the adjacent-transposition relations, so the
    reduced system loses nothing.
    """
    return _compatible_space(LIE, source, target_dim, beta, arity)


def full_multilinear_basis(flavor: str, source: HomAlgebra, target_dim: int,
                           beta: Matrix, arity: int) -> CochainSpace:
    """Basis of all multilinear (hom) or all alternating (lie) maps,
    without the twist-compatibility constraint."""
    _check_arity_guard(arity)
    if flavor not in (HOM, LIE):
        raise UsageError(f"unknown flavor {flavor!r}")
    size = Coords(arity, source.dim, target_dim, flavor == LIE).dim
    basis = tuple(tuple(Fraction(int(u == v)) for v in range(size))
                  for u in range(size))
    return CochainSpace(arity, flavor, source, target_dim, beta, basis)


@dataclass(frozen=True)
class MorphismCochain:
    """Degree-n cochain of a morphism: a pair of self-valued cochains plus
    an arity-(n-1) connecting cochain from source to target."""

    comp_A: MultilinearMap
    comp_B: MultilinearMap
    comp_AB: MultilinearMap

    def __post_init__(self):
        if self.comp_A.arity != self.comp_B.arity:
            raise UsageError("component arities must agree")
        if self.comp_AB.arity != self.comp_A.arity - 1:
            raise UsageError("connecting component must have arity n-1")

    @property
    def degree(self) -> int:
        return self.comp_A.arity

    def __add__(self, other: "MorphismCochain") -> "MorphismCochain":
        return MorphismCochain(self.comp_A + other.comp_A,
                               self.comp_B + other.comp_B,
                               self.comp_AB + other.comp_AB)

    def scale(self, c) -> "MorphismCochain":
        return MorphismCochain(self.comp_A.scale(c), self.comp_B.scale(c),
                               self.comp_AB.scale(c))

    def is_zero(self) -> bool:
        return (self.comp_A.is_zero() and self.comp_B.is_zero()
                and self.comp_AB.is_zero())


def morphism_cochain_space(phi, degree: int, flavor: str):
    """The three component spaces at a given degree: arities
    (degree, degree, degree - 1), all twist-compatible."""
    if degree < 1:
        raise UsageError("degree must be >= 1")
    build = hom_cochain_basis if flavor == HOM else lie_cochain_basis
    A, B = phi.source, phi.target
    space_a = build(A, A.dim, A.alpha, degree)
    space_b = build(B, B.dim, B.alpha, degree)
    space_ab = build(A, B.dim, B.alpha, degree - 1)
    return space_a, space_b, space_ab


@dataclass(frozen=True)
class MorphismCoords:
    """Coordinates of morphism cochains: those of comp_A, comp_B and
    comp_AB side by side."""

    parts: tuple[Coords, Coords, Coords]

    @property
    def dim(self) -> int:
        return sum(p.dim for p in self.parts)

    def to_full(self, x) -> MorphismCochain:
        comps, start = [], 0
        for p in self.parts:
            comps.append(p.to_full(x[start:start + p.dim]))
            start += p.dim
        return MorphismCochain(*comps)

    def project(self, c: MorphismCochain) -> Vector | None:
        vecs = [p.project(m) for p, m in
                zip(self.parts, (c.comp_A, c.comp_B, c.comp_AB))]
        return None if None in vecs else sum(vecs, ())


@dataclass(frozen=True)
class MorphismCochainSpace(_SpaceBasis):
    """The three component spaces of one degree, as one space whose basis
    runs over comp_A, then comp_B, then comp_AB."""

    degree: int
    space_a: CochainSpace
    space_b: CochainSpace
    space_ab: CochainSpace

    @cached_property
    def system(self) -> MorphismCoords:
        return MorphismCoords((self.space_a.system, self.space_b.system,
                               self.space_ab.system))

    @cached_property
    def coords(self) -> tuple[Vector, ...]:
        spaces = (self.space_a, self.space_b, self.space_ab)
        pads = [(Fraction(0),) * s.system.dim for s in spaces]
        return tuple(sum(pads[:i], ()) + v + sum(pads[i + 1:], ())
                     for i, s in enumerate(spaces) for v in s.coords)
