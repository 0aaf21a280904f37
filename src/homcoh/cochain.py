"""Multilinear maps stored by their nonzero values, and canonical bases of
the twist-compatible (and alternating) cochain spaces.

A ``MultilinearMap`` keeps {argument tuple: {target coordinate: value}}
over the argument tuples where it does not vanish, with every zero value
dropped.  That form is canonical, so ``==`` compares maps by value, and
every operation reads and writes only the nonzero entries.  A linear map
is a map of arity 1, {(j,): column j}: the morphism and automorphism
series of a deformation, and the maps that ``pushforward`` and
``pullback`` compose with.

Cochains have two coordinate systems (``Coords``): full coordinates, one
per argument tuple and target index, numbered row-major lexicographically
over the tuple (i_1, ..., i_k) with the target coordinate innermost (the
canonical bases depend on this order), and for alternating maps reduced
coordinates, one per strictly increasing argument tuple; ``locate``
sorts only a tuple that is not one of them.  A ``CochainSpace`` stores a
basis as sparse integer {coordinate: value} dicts, each a multiple of its
canonical vector, and builds maps only on demand: each nonzero reduced
coordinate, divided by the free one, is scattered over the signed
permutations of its tuple.

The public ``MultilinearMap`` constructor (and ``from_sparse``,
``from_values`` and the file parsers, which go through it) checks every
entry.  A map that ``Coords.to_full`` builds is not re-checked: its tuples
come from the coordinate system's own table and its values are the nonzero
coordinates, so every entry is valid by construction, and re-checking
the entries took longer than building them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, combinations, permutations, product
from math import factorial, lcm, prod

from .algebra import (HomAlgebra, StructureRows, _add, _after,
                      _check_arity_guard, _nonzero, sparse_columns, transposed)
from .errors import UsageError
from .exact import (Matrix, Vector, as_fraction, dense_vector, expand_product,
                    value_class)


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
    srt = tuple(sorted(t))
    if len(set(srt)) != len(srt):
        return srt, 0
    if srt == t:
        return srt, 1
    return srt, permutation_sign(sorted(range(len(t)), key=t.__getitem__))


def _signed_permutations(k: int) -> list[tuple[tuple[int, ...], int]]:
    return [(q, permutation_sign(q)) for q in permutations(range(k))]


@value_class
class MultilinearMap:
    """Arity-k map between coordinate spaces, stored on basis tuples:
    ``entries`` is {argument tuple: {target coordinate: value}} over the
    nonzero values only."""

    arity: int
    source_dim: int
    target_dim: int
    entries: dict

    def __post_init__(self):
        k, n, d = self.arity, self.source_dim, self.target_dim
        for t, v in self.entries.items():
            if len(t) != k or not all(0 <= i < n for i in t):
                raise UsageError(f"bad argument tuple {t}")
            if not v or not all(0 <= r < d and x for r, x in v.items()):
                raise UsageError(f"value at {t} needs nonzero coordinates "
                                 f"below {d}")

    @classmethod
    def zero(cls, arity: int, source_dim: int, target_dim: int) -> "MultilinearMap":
        return cls(arity, source_dim, target_dim, {})

    @classmethod
    def from_values(cls, arity: int, source_dim: int, target_dim: int,
                    values: dict) -> "MultilinearMap":
        """Build from a {argument tuple: output vector} dict."""
        return cls.from_sparse(arity, source_dim, target_dim, {
            t: dict(enumerate(vec)) for t, vec in values.items()})

    @classmethod
    def from_sparse(cls, arity: int, source_dim: int, target_dim: int,
                    entries: dict) -> "MultilinearMap":
        """Build from a {argument tuple: {coordinate: value}} dict; zero
        values are dropped."""
        return cls(arity, source_dim, target_dim, {
            t: w for t, v in entries.items()
            if (w := {r: as_fraction(x) for r, x in v.items() if x})})

    @classmethod
    def from_matrix(cls, m: Matrix) -> "MultilinearMap":
        """Arity-1 map from a (target_dim x source_dim) matrix."""
        return cls(1, m.cols, m.rows,
                   {(j,): v for j, v in sparse_columns(m).items()})

    @classmethod
    def constant(cls, source_dim: int, vector) -> "MultilinearMap":
        """Arity-0 map, i.e. an element of the target space."""
        return cls.from_values(0, source_dim, len(vector), {(): vector})

    def value_on_basis(self, t) -> Vector:
        return dense_vector(self.entries.get(tuple(t), {}), self.target_dim)

    def __add__(self, other: "MultilinearMap") -> "MultilinearMap":
        return self._plus(other, 1)

    def __sub__(self, other: "MultilinearMap") -> "MultilinearMap":
        return self._plus(other, -1)

    def _plus(self, other: "MultilinearMap", c: int) -> "MultilinearMap":
        if (self.arity, self.source_dim, self.target_dim) != (
                other.arity, other.source_dim, other.target_dim):
            raise UsageError("multilinear map shapes differ")
        acc = {t: dict(v) for t, v in self.entries.items()}
        for t, v in other.entries.items():
            _add(acc, t, v, c)
        return MultilinearMap(self.arity, self.source_dim, self.target_dim,
                              _nonzero(acc))

    def __neg__(self) -> "MultilinearMap":
        return self.scale(-1)

    def scale(self, c) -> "MultilinearMap":
        c = Fraction(c)
        return MultilinearMap(self.arity, self.source_dim, self.target_dim, {
            t: {r: c * x for r, x in v.items()}
            for t, v in self.entries.items()} if c else {})

    def is_zero(self) -> bool:
        return not self.entries

    def nonzero_entries(self) -> list:
        """(argument tuple, sparse value) pairs in lexicographic order of
        the argument tuples."""
        return sorted(self.entries.items())

    def columns(self) -> dict:
        """The nonzero columns {j: {i: x}} of a linear (arity-1) map."""
        return {j: v for (j,), v in self.entries.items()}

    def pushforward(self, m: "MultilinearMap") -> "MultilinearMap":
        """x_1, ..., x_k -> m(self(x_1, ..., x_k)), for a linear map m."""
        if m.arity != 1 or m.source_dim != self.target_dim:
            raise UsageError("pushforward needs a linear map on the "
                             "target_dim values")
        acc = {}
        _after(acc, m.columns(), self.entries)
        return MultilinearMap(self.arity, self.source_dim, m.target_dim,
                              _nonzero(acc))

    def pullback(self, maps) -> "MultilinearMap":
        """x_1, ..., x_k -> self(m_1 x_1, ..., m_k x_k), for k linear maps
        into the source_dim arguments, all from one space."""
        if len(maps) != self.arity or any(
                m.arity != 1 or m.target_dim != self.source_dim
                or m.source_dim != maps[0].source_dim for m in maps):
            raise UsageError("pullback needs one linear map into source_dim "
                             "per argument, all from one space")
        rows = [transposed(m.columns()) for m in maps]
        acc = {}
        for s, v in self.entries.items():
            for t, c in expand_product([r.get(i, {}) for r, i in zip(rows, s)]):
                _add(acc, t, v, c)
        width = maps[0].source_dim if maps else self.source_dim
        return MultilinearMap(self.arity, width, self.target_dim,
                              _nonzero(acc))


def is_alternating(m: MultilinearMap) -> bool:
    """Every value is the sign of its sorting permutation times the value
    on the sorted tuple, and no repeated argument has a value.  Read on the
    nonzero entries: each must match its sorted tuple, and each sorted
    tuple must have all k! permutations among the entries."""
    if m.arity < 2:
        return True
    heads = 0
    for t, v in m.entries.items():
        srt, sign = _sort_sign(t)
        ref = m.entries.get(srt) if sign else None
        if ref is None or v != (ref if sign > 0 else
                                {r: -x for r, x in ref.items()}):
            return False
        heads += t == srt
    return len(m.entries) == heads * factorial(m.arity)


def is_compatible(m: MultilinearMap, alpha: Matrix, beta: Matrix) -> bool:
    """Does beta∘m equal m∘(alpha tensor ... tensor alpha)?"""
    a = MultilinearMap.from_matrix(alpha)
    return m.pushforward(MultilinearMap.from_matrix(beta)) == \
        m.pullback([a] * m.arity)


def alternator(m: MultilinearMap) -> MultilinearMap:
    """Average of signed argument permutations; projects onto alternating
    maps and fixes alternating input.  Each nonzero value m(s) is scattered,
    with the sign of q, to every permuted tuple s∘q."""
    k = m.arity
    if k < 2:
        return m
    acc, norm = {}, Fraction(1, factorial(k))
    for q, sign in _signed_permutations(k):
        for s, v in m.entries.items():
            _add(acc, tuple(s[i] for i in q), v, sign * norm)
    return MultilinearMap(k, m.source_dim, m.target_dim, _nonzero(acc))


@value_class
class Coords:
    """Coordinates of arity-k cochains: one per argument tuple and target
    index (full) or, for alternating maps, one per strictly increasing
    tuple (reduced).  Its landing tables, ``faces`` and ``insertions``,
    are pure combinatorics of the shape: they hold nothing of an algebra
    or operator, and live as long as the coordinates do."""

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
        if t in self.index or not self.reduced:
            return self.index[t], 1
        srt, sign = _sort_sign(t)
        return (self.index[srt], sign) if sign else None

    def gather(self, terms) -> list[tuple[int, int]]:
        """The nonzero (tuple index, coefficient) pairs of a sum of
        (argument tuple, coefficient) terms: a tuple among these tuples is
        read as it is, any other where ``locate`` places it."""
        index, out = self.index, {}
        for t, c in terms:
            if t in index:
                j = index[t]
            elif loc := self.locate(t):
                j, c = loc[0], loc[1] * c
            else:
                continue
            out[j] = out.get(j, 0) + c
        return [(j, c) for j, c in out.items() if c]

    @cached_property
    def _faces(self) -> dict:
        return {}  # {reduced: faces(reduced)}

    def faces(self, reduced: bool) -> list[tuple]:
        """Per tuple index, per slot s, where the tuple without its s-th
        argument lands among the tuples of arity one less, reduced or full
        (``locate`` there), built whole on first use.  A face of an
        increasing tuple is increasing, so only faces of full tuples among
        reduced ones are located."""
        kept = self._faces
        if reduced not in kept:
            lower = coords(self.arity - 1, self.source_dim, self.target_dim,
                           reduced)
            faces = ([t[:s] + t[s + 1:] for t in self.tuples]
                     for s in range(self.arity))
            if self.reduced or not reduced:  # every face is a lower tuple
                index = lower.index.__getitem__  # and each (j, 1) is shared
                at = [(j, 1) for j in range(len(lower.tuples))].__getitem__
                slots = (map(at, map(index, f)) for f in faces)
            else:
                slots = (map(lower.locate, f) for f in faces)
            kept[reduced] = list(zip(*slots))
        return kept[reduced]

    @cached_property
    def insertions(self) -> dict:
        """{(j, k, p): where tuple j of arity one less, reduced as these
        are, lands with k inserted at position p (``locate``)}, each entry
        filled on first use by ``insert``."""
        return {}

    def insert(self, j: int, k: int, p: int) -> tuple[int, int] | None:
        """The entry (j, k, p) of ``insertions``, filled on first use."""
        if (key := (j, k, p)) not in self.insertions:
            s = coords(self.arity - 1, self.source_dim, self.target_dim,
                       self.reduced).tuples[j]
            self.insertions[key] = self.locate(s[:p] + (k,) + s[p:])
        return self.insertions[key]

    @cached_property
    def _scatter(self) -> list[tuple[tuple[tuple[int, ...], bool], ...]]:
        """Per tuple index, the argument tuples its coordinates land on, each
        with whether the value changes sign there: the signed permutations
        of the tuple when reduced, the tuple itself when full."""
        if not self.reduced:
            return [((t, False),) for t in self.tuples]
        perms = _signed_permutations(self.arity)
        return [tuple((tuple(t[i] for i in q), sign < 0) for q, sign in perms)
                for t in self.tuples]

    def to_full(self, x: dict) -> MultilinearMap:
        """The multilinear map of the sparse coordinates x: each nonzero
        coordinate lands on the signed permutations of its tuple."""
        d, scatter, entries = self.target_dim, self._scatter, {}
        for key, v in x.items():
            j, r = divmod(key, d)
            neg = -v
            for s, flip in scatter[j]:
                entries.setdefault(s, {})[r] = neg if flip else v
        return MultilinearMap._unchecked(self.arity, self.source_dim,
                                         self.target_dim, entries)

    def project(self, m: MultilinearMap) -> dict | None:
        """Sparse coordinates of m; None when reduced coordinates cannot
        hold it because it is not alternating."""
        if (m.arity, m.source_dim, m.target_dim) != (
                self.arity, self.source_dim, self.target_dim):
            raise UsageError("cochain shape does not match its coordinates")
        if self.reduced and not is_alternating(m):
            return None
        d, index = self.target_dim, self.index
        return {index[t] * d + r: x for t, v in m.entries.items()
                if t in index for r, x in v.items()}


@lru_cache(maxsize=64)
def coords(arity: int, source_dim: int, target_dim: int,
           reduced: bool) -> Coords:
    """The one ``Coords`` of each shape the compilers use, so that its
    tuples, index and scatter are built once per shape; the 64 shapes
    used last are kept."""
    return Coords(arity, source_dim, target_dim, reduced)


@value_class
class CochainSpace:
    """A cochain space with its basis stored as sparse coordinate vectors
    of ``system`` (a ``Coords`` or ``MorphismCoords``): the primitive
    integer vectors of ``exact.integer_kernel``.  Each basis cochain is
    built only when asked for, from its vector divided by the free
    coordinate (the largest index)."""

    system: object
    coords: tuple[dict, ...]

    @property
    def dim(self) -> int:
        return len(self.coords)

    @cached_property
    def basis(self) -> tuple:
        return tuple(self.system.to_full({k: Fraction(x, v[fc])
                                          for k, x in v.items()})
                     for v in self.coords for fc in (max(v),))


def compatibility_rows(reduced: bool, source: HomAlgebra, target_dim: int,
                       beta: StructureRows, arity: int) -> list[dict]:
    """The nonzero integer rows {unknown: int} of the system beta∘f =
    f∘alpha^(tensor arity) in reduced or full coordinates, at most one
    per argument tuple and target coordinate; arity 0 has none (no
    structure-map constraint there).  beta is given by its rows
    (``Module.beta_rows``).  Where alpha maps each e_i of a tuple t to
    c_i e_i and row r of beta reads only coordinate r (``scalar_twist``
    and ``beta.scalars``, kept with the algebra and the rows), the row of
    (t, r) is one product, dropped when it cancels (for scalar alpha and
    beta, before any tuple is walked)."""
    if arity < 0:
        raise UsageError("arity must be >= 0")
    _check_arity_guard(arity)
    if arity == 0:
        return []
    d = target_dim
    (alpha, a), _ = source.integral
    beta_rows, b = beta
    den = lcm(a ** arity, b)  # each row: beta(f(e_t)) - f(alpha e_t)
    fa, fb = den // a ** arity, den // b
    scalar, own = source.scalar_twist, beta.scalars
    cs, bs = set(scalar.values()), set(own.values())
    if (len(scalar), len(own), len(cs), len(bs)) == (source.dim, d, 1, 1) \
            and fb * bs.pop() == fa * cs.pop() ** arity:
        return []  # scalar alpha and beta: every row is this cancelling one
    system = coords(arity, source.dim, d, reduced)
    rows = []
    for ti, t in enumerate(system.tuples):
        # f(alpha e_{t_1}, ..., alpha e_{t_k}) in the unknowns of the system
        if one := all(i in scalar for i in t):
            ct = prod(scalar[i] for i in t)
            terms = {ti: ct} if ct else {}
        else:
            terms = dict(system.gather(expand_product(
                [alpha.get(i, {}) for i in t])))
        for r in range(d):
            if one and r in own:
                if v := fb * own[r] - fa * ct:
                    rows.append({ti * d + r: v})
                continue
            row = {ti * d + s: fb * e for s, e in beta_rows.get(r, {}).items()}
            for j, c in terms.items():
                row[j * d + r] = row.get(j * d + r, 0) - fa * c
            if row := {k: c for k, c in row.items() if c}:
                rows.append(row)
    return rows


@value_class
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


@value_class
class MorphismCoords:
    """Coordinates of morphism cochains: those of comp_A, comp_B and
    comp_AB side by side, each part's indices shifted by its start."""

    parts: tuple[Coords, Coords, Coords]

    @property
    def dim(self) -> int:
        return sum(p.dim for p in self.parts)

    @cached_property
    def starts(self) -> tuple[int, ...]:
        return tuple(accumulate((p.dim for p in self.parts[:-1]), initial=0))

    def to_full(self, x: dict) -> MorphismCochain:
        ends = (*self.starts[1:], self.dim)
        return MorphismCochain(*(
            p.to_full({k - a: v for k, v in x.items() if a <= k < b})
            for p, a, b in zip(self.parts, self.starts, ends)))

    def project(self, c: MorphismCochain) -> dict | None:
        vecs = [p.project(m) for p, m in
                zip(self.parts, (c.comp_A, c.comp_B, c.comp_AB))]
        if None in vecs:
            return None
        return {start + k: x for start, v in zip(self.starts, vecs)
                for k, x in v.items()}
