"""One-parameter formal deformations of algebras and of morphisms:
order-by-order verification, infinitesimal extraction, equivalence
transport, obstruction cochains, and one-step extension by linear solve.

Each deformation owns the complex of its cochains, built on first use:
the Hom-complex of the base, or the coupled complex of the morphism.
Every coboundary and solve here goes through it, and one
``extend_deformation`` extends either kind.

A deformation is stored as its finitely many coefficient terms; the
structure identity is checked coefficient-wise in the formal parameter up
to the order where any product of stored terms could still contribute.
Each family reads its coefficients once into a list by degree
(``series``), and the order defects sum only products of nonzero entries.
They are the defects of ``homcoh.algebra`` summed over degree tuples: the
order-0 coefficient is the validity check of the base algebras and the
morphism check of the base morphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product

from .algebra import (ASSOCIATIVE, LIE as LIE_KIND, HomAlgebra, first_failure,
                      identity_defect, product_defect, skew_defect,
                      sparse_columns, sparse_entries, twist_defect, validate)
from .bracket import (cup_product_assoc, gerstenhaber_bracket, nr_bracket,
                      overline_comp)
from .cochain import HOM, LIE, MorphismCochain, MultilinearMap
from .cohomology import ModuleComplex, MorphismComplex
from .errors import NotACocycle, ObstructionMismatch, UsageError
from .exact import Matrix, vec_is_zero
from .operator import solve_coboundary
from .rep import HomMorphism


def _check_degrees(terms, order: int, what: str):
    """Every stored degree lies in 1..order, and none repeats."""
    seen = set()
    for degree, _ in terms:
        if degree < 1 or degree > order:
            raise UsageError(f"{what} degree {degree} outside 1..{order}")
        if degree in seen:
            raise UsageError(f"duplicate {what} degree {degree}")
        seen.add(degree)


def _series(leading, terms, zero) -> list:
    """Coefficients by degree, from the leading term up to the highest
    stored degree."""
    out = [leading] + [zero] * max((d for d, _ in terms), default=0)
    for degree, t in terms:
        out[degree] = t
    return out


def _get(series: list, degree: int, zero):
    """Coefficient of a series by degree; ``zero`` outside its range."""
    return series[degree] if 0 <= degree < len(series) else zero


@dataclass(frozen=True)
class FormalDeformation:
    """Truncated polynomial family of multiplications over a fixed twist."""

    base: HomAlgebra
    order: int
    terms: tuple[tuple[int, MultilinearMap], ...]

    def __post_init__(self):
        if self.order < 0:
            raise UsageError("order must be >= 0")
        _check_degrees(self.terms, self.order, "term")
        for _, term in self.terms:
            if (term.arity, term.source_dim, term.target_dim) != (
                    2, self.base.dim, self.base.dim):
                raise UsageError("terms must be bilinear self-maps")
        object.__setattr__(self, "terms", tuple(sorted(self.terms)))

    @classmethod
    def from_terms(cls, base: HomAlgebra, order: int,
                   terms: dict[int, MultilinearMap]) -> "FormalDeformation":
        return cls(base, order, tuple(sorted(terms.items())))

    @cached_property
    def series(self) -> list[MultilinearMap]:
        """Coefficients by degree; degree 0 is the base multiplication."""
        n = self.base.dim
        mu0 = MultilinearMap.from_sparse(2, n, n, self.base.sparse.mul)
        return _series(mu0, self.terms, MultilinearMap.zero(2, n, n))

    @cached_property
    def entries(self) -> list[dict]:
        """Nonzero entries of each coefficient of ``series``."""
        return [sparse_entries(m.nonzero_entries()) for m in self.series]

    def term(self, degree: int) -> MultilinearMap:
        return _get(self.series, degree,
                    MultilinearMap.zero(2, self.base.dim, self.base.dim))

    def with_term(self, degree: int, term: MultilinearMap) -> "FormalDeformation":
        terms = {d: t for d, t in self.terms}
        if not term.is_zero():
            terms[degree] = term
        return FormalDeformation.from_terms(self.base, max(self.order, degree),
                                            terms)

    @cached_property
    def complex(self) -> ModuleComplex:
        """The Hom-complex of the base, which holds the cochains."""
        return ModuleComplex(self.base)

    def extended_by(self, theta: MultilinearMap) -> "FormalDeformation":
        """This deformation with theta as its order-(N+1) term."""
        return self.with_term(self.order + 1, theta)


@dataclass(frozen=True)
class MorphismDeformation:
    phi: HomMorphism
    def_a: FormalDeformation
    def_b: FormalDeformation
    phi_terms: tuple[tuple[int, Matrix], ...]
    order: int

    def __post_init__(self):
        if self.def_a.base != self.phi.source or self.def_b.base != self.phi.target:
            raise UsageError("deformation bases must match the morphism ends")
        if self.def_a.order != self.order or self.def_b.order != self.order:
            raise UsageError(
                f"family orders {self.def_a.order} (source) and "
                f"{self.def_b.order} (target) differ from the morphism "
                f"deformation order {self.order}")
        _check_degrees(self.phi_terms, self.order, "phi term")
        for _, m in self.phi_terms:
            if (m.rows, m.cols) != (self.phi.target.dim, self.phi.source.dim):
                raise UsageError("phi term has wrong shape")
        object.__setattr__(self, "phi_terms", tuple(sorted(self.phi_terms)))

    @classmethod
    def build(cls, phi: HomMorphism, def_a: FormalDeformation,
              def_b: FormalDeformation, phi_terms: dict[int, Matrix],
              order: int) -> "MorphismDeformation":
        return cls(phi, def_a, def_b, tuple(sorted(phi_terms.items())), order)

    @cached_property
    def phi_series(self) -> list[Matrix]:
        """Morphism coefficients by degree; degree 0 is the morphism."""
        return _series(self.phi.matrix, self.phi_terms,
                       Matrix.zero(self.phi.target.dim, self.phi.source.dim))

    @cached_property
    def phi_entries(self) -> list[dict]:
        """Nonzero columns of each coefficient of ``phi_series``."""
        return [sparse_columns(m) for m in self.phi_series]

    def phi_term(self, degree: int) -> Matrix:
        return _get(self.phi_series, degree,
                    Matrix.zero(self.phi.target.dim, self.phi.source.dim))

    @property
    def flavor(self) -> str:
        return HOM if self.phi.source.kind == ASSOCIATIVE else LIE

    @cached_property
    def complex(self) -> MorphismComplex:
        """The coupled complex of the morphism, which holds the cochains."""
        return MorphismComplex(self.phi, self.flavor)

    def extended_by(self, theta: MorphismCochain) -> "MorphismDeformation":
        """This deformation with theta as its order-(N+1) triple."""
        phi_terms = dict(self.phi_terms)
        ab = theta.comp_AB
        mat = Matrix.from_columns([ab.value_on_basis((j,))
                                   for j in range(ab.source_dim)],
                                  nrows=ab.target_dim)
        if not mat.is_zero():
            phi_terms[self.order + 1] = mat
        return MorphismDeformation.build(
            self.phi, self.def_a.extended_by(theta.comp_A),
            self.def_b.extended_by(theta.comp_B), phi_terms, self.order + 1)


@dataclass(frozen=True)
class FormalAutomorphismPair:
    """Pair of unit-leading-term endomorphism series, one per algebra;
    every coefficient must commute with the corresponding twist."""

    source: HomAlgebra
    target: HomAlgebra
    psi_a_terms: tuple[tuple[int, Matrix], ...]
    psi_b_terms: tuple[tuple[int, Matrix], ...]
    order: int

    def __post_init__(self):
        for alg, terms, tag in ((self.source, self.psi_a_terms, "source"),
                                (self.target, self.psi_b_terms, "target")):
            _check_degrees(terms, self.order, f"{tag} series term")
            for degree, m in terms:
                if (m.rows, m.cols) != (alg.dim, alg.dim):
                    raise UsageError(f"{tag} series term has wrong shape")
                if m @ alg.alpha != alg.alpha @ m:
                    raise UsageError(
                        f"{tag} series term at degree {degree} does not "
                        "commute with the twist")

    @cached_property
    def series(self) -> tuple[list[Matrix], list[Matrix]]:
        """Coefficients by degree of the source and the target series."""
        return tuple(_series(Matrix.identity(alg.dim), terms,
                             Matrix.zero(alg.dim, alg.dim))
                     for alg, terms in ((self.source, self.psi_a_terms),
                                        (self.target, self.psi_b_terms)))

    def term(self, side: str, degree: int) -> Matrix:
        alg = self.source if side == "a" else self.target
        return _get(self.series[0 if side == "a" else 1], degree,
                    Matrix.zero(alg.dim, alg.dim))

    def inverse_terms(self, side: str, up_to: int) -> list[Matrix]:
        """Coefficients of the truncated series inverse (unit leading term)."""
        alg = self.source if side == "a" else self.target
        inv = [Matrix.identity(alg.dim)]
        for s in range(1, up_to + 1):
            acc = Matrix.zero(alg.dim, alg.dim)
            for i in range(1, s + 1):
                acc = acc + self.term(side, i) @ inv[s - i]
            inv.append(acc.scale(-1))
        return inv


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    witness: tuple | None = None


@dataclass(frozen=True)
class OrderRecord:
    order: int
    algebra_a: CheckResult | None = None
    algebra_b: CheckResult | None = None
    morphism_eq: CheckResult | None = None
    twist_eq: CheckResult | None = None

    def ok(self) -> bool:
        return all(c.ok for c in (self.algebra_a, self.algebra_b,
                                  self.morphism_eq, self.twist_eq)
                   if c is not None)


@dataclass(frozen=True)
class DeformationReport:
    orders: tuple[OrderRecord, ...]

    @property
    def overall_ok(self) -> bool:
        return all(r.ok() for r in self.orders)

    def family_ok(self, field: str) -> bool:
        return all(getattr(r, field).ok for r in self.orders
                   if getattr(r, field) is not None)


def _algebra_order_defect(d: FormalDeformation, s: int) -> dict:
    """Order-s coefficient of the structure identity of the deformed
    multiplication, summed over the pairs (outer, inner) of nonzero
    coefficients with degrees adding to s (see ``identity_defect``)."""
    pairs = [(outer, inner) for i, outer in enumerate(d.entries)
             if outer and (inner := _get(d.entries, s - i, {}))]
    return identity_defect(d.base.kind, d.base.sparse.alpha, pairs)


def check_algebra_deformation(d: FormalDeformation,
                              up_to: int | None = None) -> DeformationReport:
    """Structure identity coefficient-by-coefficient; for the Lie kind each
    stored term is also checked for skew-symmetry at its own order."""
    up_to = 2 * d.order if up_to is None else up_to
    n = d.base.dim
    records = []
    for s in range(up_to + 1):
        witness = None
        if d.base.kind == LIE_KIND and s >= 1:
            witness = first_failure(skew_defect(_get(d.entries, s, {})), n)
        if witness is None:
            witness = first_failure(_algebra_order_defect(d, s), n)
        records.append(OrderRecord(order=s,
                                   algebra_a=CheckResult(witness is None, witness)))
    return DeformationReport(tuple(records))


def _morphism_order_defect(md: MorphismDeformation, s: int) -> dict:
    """Order-s coefficient of phi_t(mul_A_t(x,y)) - mul_B_t(phi_t x, phi_t y),
    summed over the degree tuples whose coefficients are all nonzero."""
    mu_a, mu_b, phi = md.def_a.entries, md.def_b.entries, md.phi_entries
    after = [(m, mu) for i, m in enumerate(phi)
             if m and (mu := _get(mu_a, s - i, {}))]
    through = [(mu, left, right) for i, mu in enumerate(mu_b) if mu
               for j, left in enumerate(phi)
               if left and (right := _get(phi, s - i - j, {}))]
    return product_defect(after, through)


def check_morphism_deformation(md: MorphismDeformation,
                               up_to: int | None = None) -> DeformationReport:
    """Four verdicts per order: the two algebra deformations, the morphism
    coefficient equation, and twist compatibility of the morphism term.

    The morphism equation is trilinear in the stored families, so orders
    run to three times the deformation order by default.
    """
    up_to = 3 * md.order if up_to is None else up_to
    A, B = md.phi.source, md.phi.target
    rep_a = check_algebra_deformation(md.def_a, up_to)
    rep_b = check_algebra_deformation(md.def_b, up_to)
    records = []
    for s in range(up_to + 1):
        mdefect = first_failure(_morphism_order_defect(md, s), B.dim)
        twist = first_failure(twist_defect(
            _get(md.phi_entries, s, {}), A.sparse.alpha, B.sparse.alpha),
            B.dim, A.basis_names) if s <= md.order else None
        records.append(OrderRecord(
            order=s,
            algebra_a=rep_a.orders[s].algebra_a,
            algebra_b=rep_b.orders[s].algebra_a,
            morphism_eq=CheckResult(mdefect is None, mdefect),
            twist_eq=CheckResult(twist is None, twist)))
    return DeformationReport(tuple(records))


def coefficient_cochain(md: MorphismDeformation, degree: int) -> MorphismCochain:
    """(source term, target term, morphism term) at one degree."""
    return MorphismCochain(
        md.def_a.term(degree), md.def_b.term(degree),
        MultilinearMap.from_matrix(md.phi_term(degree)))


def infinitesimal_report(md: MorphismDeformation):
    """Degree-1 coefficient triple, its coupled-coboundary slot verdicts,
    and warnings for slots whose failure traces to an invalid base."""
    theta = coefficient_cochain(md, 1)
    image = md.complex.delta(theta)
    verdicts = {"source": image.comp_A.is_zero(),
                "target": image.comp_B.is_zero(),
                "morphism": image.comp_AB.is_zero()}
    warnings = []
    for slot, alg in (("source", md.phi.source), ("target", md.phi.target)):
        if not verdicts[slot]:
            rep = validate(alg)
            if not rep.is_valid:
                warnings.append(
                    f"{slot} slot of the coupled coboundary is nonzero; "
                    f"{alg.name} is itself invalid ({rep.describe()})")
    return theta, verdicts, warnings


def infinitesimal(md: MorphismDeformation) -> MorphismCochain:
    """Degree-1 coefficient triple, verified to be a coupled cocycle
    wherever the underlying algebras are valid."""
    theta, verdicts, warnings = infinitesimal_report(md)
    for slot, ok in verdicts.items():
        if ok:
            continue
        alg = md.phi.source if slot == "source" else md.phi.target
        if slot == "morphism" or validate(alg).is_valid:
            raise NotACocycle(
                f"{slot} slot of the coupled coboundary of the degree-1 "
                "terms is nonzero; the input deformation is inconsistent")
    return theta


def apply_equivalence(md: MorphismDeformation,
                      psi: FormalAutomorphismPair) -> MorphismDeformation:
    """Transport the deformation by the automorphism pair, truncating at
    the original order."""
    if psi.order < md.order:
        raise UsageError("automorphism order must cover the deformation order")
    N = md.order
    A, B = md.phi.source, md.phi.target
    inv_a = psi.inverse_terms("a", N)
    inv_b = psi.inverse_terms("b", N)

    def transported(d: FormalDeformation, side: str,
                    inv: list[Matrix]) -> FormalDeformation:
        """psi_t o mu_t o (psi_t^-1 x psi_t^-1), through order N."""
        zero = MultilinearMap.zero(2, d.base.dim, d.base.dim)
        pulled = []  # coefficients of mu_t(psi_t^-1 x, psi_t^-1 y)
        for m in range(N + 1):
            acc = zero
            for j in range(m + 1):
                if d.term(j).is_zero():
                    continue
                for k in range(m - j + 1):
                    acc = acc + _mul_through(d.term(j), inv[k], inv[m - j - k])
            pulled.append(acc)
        terms = {}
        for s in range(1, N + 1):
            acc = zero
            for i in range(s + 1):
                acc = acc + _compose_matrix_bilinear(psi.term(side, i),
                                                     pulled[s - i])
            if not acc.is_zero():
                terms[s] = acc
        return FormalDeformation.from_terms(d.base, N, terms)

    phi_terms = {}
    for s in range(1, N + 1):
        acc = Matrix.zero(B.dim, A.dim)
        for i in range(s + 1):
            for j in range(s - i + 1):
                k = s - i - j
                acc = acc + psi.term("b", i) @ md.phi_term(j) @ inv_a[k]
        if not acc.is_zero():
            phi_terms[s] = acc
    return MorphismDeformation.build(
        md.phi, transported(md.def_a, "a", inv_a),
        transported(md.def_b, "b", inv_b), phi_terms, N)


def algebra_obstruction(d: FormalDeformation) -> MultilinearMap:
    """Half the graded bracket of the deformation tail with itself, checked
    against the direct order-(N+1) coefficient of the structure identity."""
    A = d.base
    N = d.order
    acc = MultilinearMap.zero(3, A.dim, A.dim)
    for p in range(1, N + 1):
        mu_p, mu_q = d.term(p), d.term(N + 1 - p)
        if mu_p.is_zero() or mu_q.is_zero():
            continue
        if A.kind == ASSOCIATIVE:
            acc = acc + gerstenhaber_bracket(A, mu_p, mu_q).scale(Fraction(1, 2))
        else:
            acc = acc + nr_bracket(A, mu_p, mu_q).scale(Fraction(1, 2))
    # no term of degree N + 1 is stored, so only products of the tail count
    direct = MultilinearMap.from_sparse(
        3, A.dim, A.dim, _algebra_order_defect(d, N + 1)).scale(-1)
    if acc != direct:
        raise ObstructionMismatch(
            "bracket-form obstruction disagrees with the order coefficient "
            f"of the structure identity for {A.name}")
    return acc


def obstruction(md: MorphismDeformation) -> MorphismCochain:
    """Degree-3 obstruction triple, assembled from the displayed bracket
    and product formulas and cross-checked against the direct
    order-(N+1) coefficients; verified to be a coupled cocycle wherever
    the underlying algebras are valid."""
    A, B = md.phi.source, md.phi.target
    N = md.order
    ob_a = algebra_obstruction(md.def_a)
    ob_b = algebra_obstruction(md.def_b)
    if md.flavor == HOM:
        ob_phi = MultilinearMap.zero(2, A.dim, B.dim)
        for p in range(1, N + 1):
            q = N + 1 - p
            mu_bp = md.def_b.term(p)
            phi_q = MultilinearMap.from_matrix(md.phi_term(q))
            if not mu_bp.is_zero() and not phi_q.is_zero():
                ob_phi = ob_phi + overline_comp(md.phi, mu_bp, phi_q)
            comp = _compose_matrix_bilinear(md.phi_term(p), md.def_a.term(q))
            ob_phi = ob_phi - comp
            f_p = MultilinearMap.from_matrix(md.phi_term(p))
            f_q = MultilinearMap.from_matrix(md.phi_term(q))
            ob_phi = ob_phi + cup_product_assoc(md.phi, f_p, f_q)
        for p in range(1, N + 1):
            for q in range(1, N + 1):
                k = N + 1 - p - q
                if k < 1:
                    continue
                ob_phi = ob_phi + _mul_through(md.def_b.term(p),
                                               md.phi_term(q), md.phi_term(k))
    else:
        ob_phi = MultilinearMap.zero(2, A.dim, B.dim)
        for i in range(1, N + 1):
            comp = _compose_matrix_bilinear(md.phi_term(i),
                                            md.def_a.term(N + 1 - i))
            ob_phi = ob_phi + comp
        s = N + 1
        for i in range(s + 1):
            mu = md.def_b.term(i)
            if mu.is_zero():
                continue
            for j in range(s - i + 1):
                k = s - i - j
                if (i, j, k) in ((s, 0, 0), (0, s, 0), (0, 0, s)):
                    continue
                ob_phi = ob_phi - _mul_through(mu, md.phi_term(j),
                                               md.phi_term(k))
    # The known part of the order-(N+1) morphism equation: its coefficient
    # in md itself, whose families all stop at order N, so it holds exactly
    # the terms without the unknown extension.
    direct = MultilinearMap.from_sparse(2, A.dim, B.dim,
                                        _morphism_order_defect(md, N + 1))
    if md.flavor == HOM:
        direct = direct.scale(-1)
    if ob_phi != direct:
        raise ObstructionMismatch(
            "displayed connecting obstruction disagrees with the direct "
            "order coefficient of the morphism equation")
    ob = MorphismCochain(ob_a, ob_b, ob_phi)
    image = md.complex.delta(ob)
    for slot, alg, component in (("source", A, image.comp_A),
                                 ("target", B, image.comp_B)):
        if not component.is_zero() and validate(alg).is_valid:
            raise NotACocycle(
                f"obstruction fails the cocycle check in the {slot} slot")
    if not image.comp_AB.is_zero():
        if validate(A).is_valid and validate(B).is_valid:
            raise NotACocycle(
                "obstruction fails the cocycle check in the connecting slot")
    return ob


def _compose_matrix_bilinear(m: Matrix, mu: MultilinearMap) -> MultilinearMap:
    """x, y -> m(mu(x, y))."""
    values = {t: m.matvec(v) for t, v in mu.nonzero_entries()}
    return MultilinearMap.from_values(2, mu.source_dim, m.rows, values)


def _mul_through(mu: MultilinearMap, left: Matrix, right: Matrix) -> MultilinearMap:
    """x, y -> mu(left(x), right(y)); arguments from left/right columns."""
    n = left.cols
    values = {}
    for i, j in product(range(n), repeat=2):
        v = mu.evaluate([left.column(i), right.column(j)])
        if not vec_is_zero(v):
            values[(i, j)] = v
    return MultilinearMap.from_values(2, n, mu.target_dim, values)


def solve_obstruction(d: FormalDeformation | MorphismDeformation, ob):
    """A 2-cochain of the complex of d whose coboundary is ob, or None
    when there is none."""
    space = d.complex.bound_space(2)
    coords = solve_coboundary(d.complex.operator(2), space.coords, ob)
    return None if coords is None else space.combine(coords)


def extend_deformation(d: FormalDeformation | MorphismDeformation):
    """Solve for an order-(N+1) term killing the obstruction of d, an
    algebra or a morphism deformation; returns the re-verified extension,
    or None when the obstruction is not a coboundary."""
    morphism = isinstance(d, MorphismDeformation)
    theta = solve_obstruction(
        d, obstruction(d) if morphism else algebra_obstruction(d))
    if theta is None:
        return None
    extended = d.extended_by(theta)
    check = check_morphism_deformation if morphism \
        else check_algebra_deformation
    # orders 0..N involve no degree-(N+1) term, so they are the report of d
    after = check(extended, up_to=d.order + 1)
    before = DeformationReport(after.orders[:d.order + 1])
    for family in ("algebra_a", "algebra_b", "morphism_eq", "twist_eq"):
        if before.family_ok(family) and not after.family_ok(family):
            raise ObstructionMismatch(
                f"extension broke the {family} checks; sign convention bug")
    return extended
