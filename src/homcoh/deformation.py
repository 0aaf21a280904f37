"""One-parameter formal deformations of algebras and of morphisms:
order-by-order verification, the infinitesimal report, equivalence
transport, obstruction cochains, and extension by linear solve.

Each deformation owns the complex of its cochains, built on first use:
the Hom-complex of the base, or the coupled complex of the morphism.
Every coboundary and solve here goes through it, and one
``extend_deformation`` extends either kind.

A deformation is stored as its finitely many coefficient terms; the
structure identity is checked coefficient-wise in the formal parameter up
to the order where any product of stored terms could still contribute.
Each series holds its nonzero coefficients as a {degree: coefficient}
dict in increasing degree (``series``), and every series sum walks the
stored degrees of its factors.  The order defects are the defects of
``homcoh.algebra`` summed over those degree tuples: the order-0
coefficient is the validity check of the base algebras and the morphism
check of the base morphism.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from .algebra import (ASSOCIATIVE, LIE, HomAlgebra, first_failure,
                      identity_defect, product_defect, skew_defect,
                      twist_defect, validate)
from .bracket import (cup_product_assoc, gerstenhaber_bracket, nr_bracket,
                      overline_comp)
from .cochain import MorphismCochain, MultilinearMap, is_compatible
from .cohomology import ModuleComplex, MorphismComplex
from .errors import NotACocycle, ObstructionMismatch, UsageError
from .exact import Matrix, solve, value_class
from .rep import HomMorphism


# Bounds the order of a deformation and every order asked of one.
MAX_ORDER = 1000

# Bounds the coefficient tuples that the default check of a deformation
# walks, which grow with its nonzero terms, not with its order.  A file
# and a check are bounded, not a construction: an extension adds terms at
# each order it reaches, and checks only that order.
MAX_CHECK_TUPLES = 2_000_000

# The verdict families of an ``OrderRecord``, in report order.
FAMILIES = ("algebra_a", "algebra_b", "morphism_eq", "twist_eq")


def check_order_bound(n: int, what: str):
    """Input error when an order n exceeds ``MAX_ORDER``."""
    if n > MAX_ORDER:
        raise UsageError(f"{what} {n} exceeds the bound {MAX_ORDER} on "
                         "deformation orders")


def check_work_bound(d: FormalDeformation | MorphismDeformation):
    """d, or an input error when the default check of d walks more than
    ``MAX_CHECK_TUPLES`` coefficient tuples: |mu|^2 for an algebra
    deformation, |mu_A|^2 + |mu_B|^2 + |phi| |mu_A| + |mu_B| |phi|^2 for a
    morphism deformation, where |.| counts the nonzero coefficients."""
    if isinstance(d, FormalDeformation):
        tuples = len(d.series) ** 2
    else:
        a, b, f = len(d.def_a.series), len(d.def_b.series), len(d.phi_series)
        tuples = a * a + b * b + f * a + b * f * f
    if tuples > MAX_CHECK_TUPLES:
        raise UsageError(f"checking this deformation walks {tuples} "
                         f"coefficient tuples, over the bound {MAX_CHECK_TUPLES}")
    return d


def _check_degrees(terms, order: int, what: str):
    """Every stored degree lies in 1..order, and none repeats."""
    seen = set()
    for degree, _ in terms:
        if degree < 1 or degree > order:
            raise UsageError(f"{what} degree {degree} outside 1..{order}")
        if degree in seen:
            raise UsageError(f"duplicate {what} degree {degree}")
        seen.add(degree)


def _series(leading, terms) -> dict:
    """The nonzero coefficients by degree, in increasing degree: the
    leading term at 0, then the stored terms (sorted by degree)."""
    return {degree: m for degree, m in ((0, leading), *terms)
            if not m.is_zero()}


def _tail(series: dict) -> dict:
    """The coefficients of a series above its leading term."""
    return {degree: m for degree, m in series.items() if degree}


def _pairs(first: dict, second: dict, total: int) -> list:
    """(a, b) over the coefficients a of first and b of second whose
    degrees add to total."""
    return [(a, second[total - i]) for i, a in first.items()
            if total - i in second]


def _sum_by_degree(products) -> dict:
    """{degree: sum of the maps of that degree} over (degree, map) pairs,
    nonzero sums only."""
    acc = {}
    for degree, m in products:
        acc[degree] = acc[degree] + m if degree in acc else m
    return {degree: m for degree, m in acc.items() if not m.is_zero()}


@value_class
class FormalDeformation:
    """Truncated polynomial family of multiplications over a fixed twist."""

    base: HomAlgebra
    order: int
    terms: tuple[tuple[int, MultilinearMap], ...]

    def __post_init__(self):
        if self.order < 0:
            raise UsageError("order must be >= 0")
        check_order_bound(self.order, "order")
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
    def series(self) -> dict[int, MultilinearMap]:
        """Nonzero coefficients by degree; 0 is the base multiplication."""
        n = self.base.dim
        return _series(MultilinearMap.from_sparse(2, n, n,
                                                  self.base.sparse.mul),
                       self.terms)

    @cached_property
    def entries(self) -> dict[int, dict]:
        """Nonzero entries of each coefficient of ``series``."""
        return {degree: m.entries for degree, m in self.series.items()}

    def term(self, degree: int) -> MultilinearMap:
        n = self.base.dim
        return self.series.get(degree, MultilinearMap.zero(2, n, n))

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
        return _sharing_complex(self.with_term(self.order + 1, theta), self)


@value_class
class MorphismDeformation:
    phi: HomMorphism
    def_a: FormalDeformation
    def_b: FormalDeformation
    phi_terms: tuple[tuple[int, MultilinearMap], ...]
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
            if (m.arity, m.source_dim, m.target_dim) != (
                    1, self.phi.source.dim, self.phi.target.dim):
                raise UsageError("phi term has wrong shape")
        object.__setattr__(self, "phi_terms", tuple(sorted(self.phi_terms)))

    @classmethod
    def build(cls, phi: HomMorphism, def_a: FormalDeformation,
              def_b: FormalDeformation,
              phi_terms: dict[int, MultilinearMap],
              order: int) -> "MorphismDeformation":
        return cls(phi, def_a, def_b, tuple(sorted(phi_terms.items())), order)

    @cached_property
    def phi_series(self) -> dict[int, MultilinearMap]:
        """Nonzero morphism coefficients by degree, as linear maps; degree
        0 is the morphism."""
        return _series(MultilinearMap.from_matrix(self.phi.matrix),
                       self.phi_terms)

    @cached_property
    def phi_entries(self) -> dict[int, dict]:
        """Nonzero columns of each coefficient of ``phi_series``."""
        return {degree: m.columns() for degree, m in self.phi_series.items()}

    def phi_term(self, degree: int) -> MultilinearMap:
        return self.phi_series.get(degree, MultilinearMap.zero(
            1, self.phi.source.dim, self.phi.target.dim))

    @cached_property
    def complex(self) -> MorphismComplex:
        """The coupled complex of the morphism, which holds the cochains."""
        return MorphismComplex(self.phi)

    def extended_by(self, theta: MorphismCochain) -> "MorphismDeformation":
        """This deformation with theta as its order-(N+1) triple."""
        phi_terms = dict(self.phi_terms)
        if not theta.comp_AB.is_zero():
            phi_terms[self.order + 1] = theta.comp_AB
        return _sharing_complex(MorphismDeformation.build(
            self.phi, self.def_a.with_term(self.order + 1, theta.comp_A),
            self.def_b.with_term(self.order + 1, theta.comp_B), phi_terms,
            self.order + 1), self)


def _sharing_complex(extension, d):
    """extension, which has the base (or morphism) of d, given the complex
    of d, so that its operators are compiled once for the whole series of
    extensions.  ``cached_property`` reads the instance dict first."""
    extension.__dict__["complex"] = d.complex
    return extension


@value_class
class FormalAutomorphismPair:
    """Pair of unit-leading-term endomorphism series, one per algebra, with
    linear maps as coefficients; every coefficient must commute with the
    corresponding twist."""

    source: HomAlgebra
    target: HomAlgebra
    psi_a_terms: tuple[tuple[int, MultilinearMap], ...]
    psi_b_terms: tuple[tuple[int, MultilinearMap], ...]
    order: int

    def __post_init__(self):
        for alg, terms, tag in ((self.source, self.psi_a_terms, "source"),
                                (self.target, self.psi_b_terms, "target")):
            _check_degrees(terms, self.order, f"{tag} series term")
            for degree, m in terms:
                if (m.arity, m.source_dim, m.target_dim) != (1, alg.dim,
                                                             alg.dim):
                    raise UsageError(f"{tag} series term has wrong shape")
                if not is_compatible(m, alg.alpha, alg.alpha):
                    raise UsageError(
                        f"{tag} series term at degree {degree} does not "
                        "commute with the twist")

    @cached_property
    def series(self) -> dict[str, dict[int, MultilinearMap]]:
        """Nonzero coefficients by degree of the source ("a") and the
        target ("b") series."""
        return {side: _series(MultilinearMap.from_matrix(
                    Matrix.identity(alg.dim)), terms)
                for side, alg, terms in (("a", self.source, self.psi_a_terms),
                                         ("b", self.target, self.psi_b_terms))}

    def inverse_terms(self, side: str, up_to: int) -> dict[int, MultilinearMap]:
        """Nonzero coefficients, through degree up_to, of the series
        inverse (unit leading term): minus the sum of term i after inverse
        term s - i.  Each inverse term, once known, is pushed along the
        stored terms into the sums of the higher degrees."""
        n = (self.source if side == "a" else self.target).dim
        inv, pending = {}, {0: self.series[side][0]}
        while pending:
            s = min(pending)
            inv_s = pending.pop(s)
            if inv_s.is_zero():
                continue
            inv[s] = inv_s
            for i, m in _tail(self.series[side]).items():
                if s + i <= up_to:
                    pending[s + i] = pending.get(s + i, MultilinearMap.zero(
                        1, n, n)) - inv_s.pushforward(m)
        return inv


@value_class
class CheckResult:
    ok: bool
    witness: tuple | None = None


@value_class
class OrderRecord:
    order: int
    algebra_a: CheckResult | None = None
    algebra_b: CheckResult | None = None
    morphism_eq: CheckResult | None = None
    twist_eq: CheckResult | None = None

    def failing(self) -> list[str]:
        """The families checked at this order that fail."""
        return [f for f in FAMILIES
                if getattr(self, f) is not None and not getattr(self, f).ok]

    def ok(self) -> bool:
        return not self.failing()


@value_class
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
    mu = d.entries
    pairs = [(outer, inner) for i, outer in mu.items()
             if (inner := mu.get(s - i))]
    return identity_defect(d.base.kind, d.base.sparse.alpha, pairs)


def _algebra_verdict(d: FormalDeformation, s: int) -> CheckResult:
    """Structure identity at order s; for the Lie kind the stored term of
    degree s is also checked for skew-symmetry."""
    n = d.base.dim
    witness = None
    if d.base.kind == LIE and s >= 1:
        witness = first_failure(skew_defect(d.entries.get(s, {})), n)
    if witness is None:
        witness = first_failure(_algebra_order_defect(d, s), n)
    return CheckResult(witness is None, witness)


def order_record(d: FormalDeformation | MorphismDeformation,
                 s: int) -> OrderRecord:
    """The verdicts of d at order s: the algebra deformation, or for a
    morphism deformation the two algebra deformations, the morphism
    coefficient equation, and twist compatibility of the morphism term."""
    if isinstance(d, FormalDeformation):
        return OrderRecord(order=s, algebra_a=_algebra_verdict(d, s))
    A, B = d.phi.source, d.phi.target
    mdefect = first_failure(_morphism_order_defect(d, s), B.dim)
    twist = first_failure(twist_defect(
        d.phi_entries.get(s, {}), A.sparse.alpha, B.sparse.alpha),
        B.dim, A.basis_names) if s <= d.order else None
    return OrderRecord(order=s,
                       algebra_a=_algebra_verdict(d.def_a, s),
                       algebra_b=_algebra_verdict(d.def_b, s),
                       morphism_eq=CheckResult(mdefect is None, mdefect),
                       twist_eq=CheckResult(twist is None, twist))


def _report(d, up_to: int) -> DeformationReport:
    check_work_bound(d)
    return DeformationReport(tuple(order_record(d, s)
                                   for s in range(up_to + 1)))


def check_algebra_deformation(d: FormalDeformation,
                              up_to: int | None = None) -> DeformationReport:
    """Verdicts of orders 0..up_to, by default to twice the order of d."""
    return _report(d, 2 * d.order if up_to is None else up_to)


def _morphism_order_defect(md: MorphismDeformation, s: int) -> dict:
    """Order-s coefficient of phi_t(mul_A_t(x,y)) - mul_B_t(phi_t x, phi_t y),
    summed over the degree tuples whose coefficients are all nonzero."""
    mu_a, mu_b, phi = md.def_a.entries, md.def_b.entries, md.phi_entries
    after = [(m, mu) for i, m in phi.items() if (mu := mu_a.get(s - i))]
    through = [(mu, left, right) for i, mu in mu_b.items()
               for j, left in phi.items() if (right := phi.get(s - i - j))]
    return product_defect(after, through)


def check_morphism_deformation(md: MorphismDeformation,
                               up_to: int | None = None) -> DeformationReport:
    """Verdicts of orders 0..up_to.  The morphism equation is trilinear in
    the stored families, so orders run to three times the deformation
    order by default."""
    return _report(md, 3 * md.order if up_to is None else up_to)


def coefficient_cochain(md: MorphismDeformation, degree: int) -> MorphismCochain:
    """(source term, target term, morphism term) at one degree."""
    return MorphismCochain(md.def_a.term(degree), md.def_b.term(degree),
                           md.phi_term(degree))


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


def apply_equivalence(md: MorphismDeformation,
                      psi: FormalAutomorphismPair) -> MorphismDeformation:
    """Transport the deformation by the automorphism pair, truncating at
    the original order."""
    if psi.order < md.order:
        raise UsageError("automorphism order must cover the deformation order")
    N = md.order
    if psi.source != md.phi.source or psi.target != md.phi.target:
        raise UsageError("automorphism pair is not over the algebras of the "
                         "morphism")
    inv_a = psi.inverse_terms("a", N)

    def transported(d: FormalDeformation, side: str,
                    inv: dict[int, MultilinearMap]) -> FormalDeformation:
        """psi_t o mu_t o (psi_t^-1 x psi_t^-1), through order N."""
        # coefficients of mu_t(psi_t^-1 x, psi_t^-1 y)
        pulled = _sum_by_degree(
            (j + k + m, mu.pullback([left, right]))
            for j, mu in d.series.items() for k, left in inv.items()
            for m, right in inv.items() if j + k + m <= N)
        return FormalDeformation.from_terms(d.base, N, _sum_by_degree(
            (i + m, p.pushforward(psi_i))
            for i, psi_i in psi.series[side].items()
            for m, p in pulled.items() if 1 <= i + m <= N))

    phi_terms = _sum_by_degree(
        (i + j + k, inv_k.pushforward(phi_j).pushforward(psi_i))
        for i, psi_i in psi.series["b"].items()
        for j, phi_j in md.phi_series.items()
        for k, inv_k in inv_a.items() if 1 <= i + j + k <= N)
    return MorphismDeformation.build(
        md.phi, transported(md.def_a, "a", inv_a),
        transported(md.def_b, "b", psi.inverse_terms("b", N)), phi_terms, N)


def algebra_obstruction(d: FormalDeformation) -> MultilinearMap:
    """Half the graded bracket of the deformation tail with itself, checked
    against the direct order-(N+1) coefficient of the structure identity."""
    A, N = d.base, d.order
    bracket = gerstenhaber_bracket if A.kind == ASSOCIATIVE else nr_bracket
    mu = _tail(d.series)
    acc = sum((bracket(A, mu_p, mu_q) for mu_p, mu_q in _pairs(mu, mu, N + 1)),
              MultilinearMap.zero(3, A.dim, A.dim)).scale(Fraction(1, 2))
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
    ob_a = algebra_obstruction(md.def_a)
    ob_b = algebra_obstruction(md.def_b)
    s = md.order + 1
    mu_a, mu_b, phi = md.def_a.series, md.def_b.series, md.phi_series
    if A.kind == ASSOCIATIVE:
        # every degree p, q, k of the displayed sums is at least 1
        mu_a, mu_b, phi = _tail(mu_a), _tail(mu_b), _tail(phi)
        terms = [overline_comp(md.phi, m, f) for m, f in _pairs(mu_b, phi, s)]
        terms += [-m.pushforward(f) for f, m in _pairs(phi, mu_a, s)]
        terms += [cup_product_assoc(md.phi, f, g)
                  for f, g in _pairs(phi, phi, s)]
        terms += [m.pullback([f, g]) for p, m in mu_b.items()
                  for f, g in _pairs(phi, phi, s - p)]
    else:
        # the one-slot tuples (s, 0, 0), (0, s, 0), (0, 0, s) are skipped
        terms = [m.pushforward(f) for f, m in _pairs(_tail(phi), mu_a, s)]
        terms += [-m.pullback([phi[j], phi[s - i - j]])
                  for i, m in mu_b.items() for j in phi
                  if s - i - j in phi and s not in (i, j, s - i - j)]
    ob_phi = sum(terms, MultilinearMap.zero(2, A.dim, B.dim))
    # The known part of the order-(N+1) morphism equation: its coefficient
    # in md itself, whose families all stop at order N, so it holds exactly
    # the terms without the unknown extension.
    direct = MultilinearMap.from_sparse(2, A.dim, B.dim,
                                        _morphism_order_defect(md, s))
    if A.kind == ASSOCIATIVE:
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


def solve_obstruction(d: FormalDeformation | MorphismDeformation, ob):
    """A twist-compatible 2-cochain of the complex of d whose coboundary
    is ob, or None when there is none: the solution with every free column
    0 of the operator's rows, stacked on the compatibility rows, whose
    eliminated echelon seeds the solve.  That is the basis solution: a
    compatible basis vector is 1 at its free column and 0 at the others,
    and a column is free exactly when the image of its basis vector lies
    in the span of the earlier ones.  Reduced coordinates hold only
    alternating images, so a target they cannot hold is not a
    coboundary."""
    op = d.complex.operator(2)
    rhs = op.target.project(ob)
    x = None if rhs is None else solve(
        op, rhs, d.complex.compatibility_echelon(2))
    return None if x is None else op.source.to_full(x)


def extend_deformation(d: FormalDeformation | MorphismDeformation,
                       to_order: int | None = None):
    """Extend d, an algebra or a morphism deformation, one order at a time
    to to_order (default: the order of d plus one), each term solving the
    obstruction at its order.  Returns the last extension reached, which
    stops below to_order where the obstruction is not a coboundary.

    d is checked once; an extension only at its new order, as its lower
    orders hold no new term.  A family that held through the order of d
    and fails at a new order means a sign convention bug."""
    goal = d.order + 1 if to_order is None else to_order
    check_order_bound(goal, "order")
    morphism = isinstance(d, MorphismDeformation)
    report = _report(d, d.order)
    held = [f for f in FAMILIES if report.family_ok(f)]
    while d.order < goal:
        theta = solve_obstruction(
            d, obstruction(d) if morphism else algebra_obstruction(d))
        if theta is None:
            break
        d = d.extended_by(theta)
        for family in order_record(d, d.order).failing():
            if family in held:
                raise ObstructionMismatch(f"extension broke the {family} "
                                          "checks; sign convention bug")
    return d
