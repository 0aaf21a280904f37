"""One-parameter formal deformations of algebras and of morphisms:
order-by-order verification, infinitesimal extraction, equivalence
transport, obstruction cochains, and one-step extension by linear solve.

A deformation is stored as its finitely many coefficient terms; the
structure identity is checked coefficient-wise in the formal parameter up
to the order where any product of stored terms could still contribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .algebra import (ASSOCIATIVE, LIE as LIE_KIND, HomAlgebra, apply_alpha,
                      validate)
from .bracket import (alpha_associator, cup_product_assoc, gerstenhaber_bracket,
                      nr_bracket, overline_comp)
from .cochain import (HOM, LIE, MorphismCochain, MorphismCochainSpace,
                      MultilinearMap, hom_cochain_basis, lie_cochain_basis,
                      morphism_cochain_space)
from .cohomology import delta_morphism
from .errors import NotACocycle, ObstructionMismatch, UsageError
from .exact import Matrix, vec_is_zero, zero_vector
from .operator import morphism_delta, self_delta, solve_coboundary
from .rep import HomMorphism


def _as_bilinear(base: HomAlgebra) -> MultilinearMap:
    values = {(i, j): base.mul[i][j]
              for i in range(base.dim) for j in range(base.dim)}
    return MultilinearMap.from_values(2, base.dim, base.dim, values)


@dataclass(frozen=True)
class FormalDeformation:
    """Truncated polynomial family of multiplications over a fixed twist."""

    base: HomAlgebra
    order: int
    terms: tuple[tuple[int, MultilinearMap], ...]

    def __post_init__(self):
        if self.order < 0:
            raise UsageError("order must be >= 0")
        seen = set()
        for degree, term in self.terms:
            if degree < 1 or degree > self.order:
                raise UsageError(f"term degree {degree} outside 1..{self.order}")
            if degree in seen:
                raise UsageError(f"duplicate term degree {degree}")
            seen.add(degree)
            if (term.arity, term.source_dim, term.target_dim) != (
                    2, self.base.dim, self.base.dim):
                raise UsageError("terms must be bilinear self-maps")
        object.__setattr__(self, "terms", tuple(sorted(self.terms)))

    @classmethod
    def from_terms(cls, base: HomAlgebra, order: int,
                   terms: dict[int, MultilinearMap]) -> "FormalDeformation":
        return cls(base, order, tuple(sorted(terms.items())))

    def term(self, degree: int) -> MultilinearMap:
        if degree == 0:
            return _as_bilinear(self.base)
        for d, t in self.terms:
            if d == degree:
                return t
        return MultilinearMap.zero(2, self.base.dim, self.base.dim)

    def with_term(self, degree: int, term: MultilinearMap) -> "FormalDeformation":
        terms = {d: t for d, t in self.terms}
        if not term.is_zero():
            terms[degree] = term
        return FormalDeformation.from_terms(self.base, max(self.order, degree),
                                            terms)


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
        seen = set()
        for degree, m in self.phi_terms:
            if degree < 1 or degree > self.order:
                raise UsageError(f"phi term degree {degree} outside 1..{self.order}")
            if degree in seen:
                raise UsageError(f"duplicate phi term degree {degree}")
            seen.add(degree)
            if (m.rows, m.cols) != (self.phi.target.dim, self.phi.source.dim):
                raise UsageError("phi term has wrong shape")
        object.__setattr__(self, "phi_terms", tuple(sorted(self.phi_terms)))

    @classmethod
    def build(cls, phi: HomMorphism, def_a: FormalDeformation,
              def_b: FormalDeformation, phi_terms: dict[int, Matrix],
              order: int) -> "MorphismDeformation":
        return cls(phi, def_a, def_b, tuple(sorted(phi_terms.items())), order)

    def phi_term(self, degree: int) -> Matrix:
        if degree == 0:
            return self.phi.matrix
        for d, m in self.phi_terms:
            if d == degree:
                return m
        return Matrix.zero(self.phi.target.dim, self.phi.source.dim)

    @property
    def flavor(self) -> str:
        return HOM if self.phi.source.kind == ASSOCIATIVE else LIE


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
            for degree, m in terms:
                if degree < 1:
                    raise UsageError("series terms start at degree 1")
                if (m.rows, m.cols) != (alg.dim, alg.dim):
                    raise UsageError(f"{tag} series term has wrong shape")
                if m @ alg.alpha != alg.alpha @ m:
                    raise UsageError(
                        f"{tag} series term at degree {degree} does not "
                        "commute with the twist")

    def term(self, side: str, degree: int) -> Matrix:
        alg = self.source if side == "a" else self.target
        if degree == 0:
            return Matrix.identity(alg.dim)
        terms = self.psi_a_terms if side == "a" else self.psi_b_terms
        for d, m in terms:
            if d == degree:
                return m
        return Matrix.zero(alg.dim, alg.dim)

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


def _first_nonzero(m: MultilinearMap) -> tuple | None:
    for t, v in m.nonzero_entries():
        return (t, v)
    return None


def _skew_witness(term: MultilinearMap) -> tuple | None:
    n = term.source_dim
    for i in range(n):
        for j in range(i, n):
            defect = tuple(a + b for a, b in zip(term.value_on_basis((i, j)),
                                                 term.value_on_basis((j, i))))
            if not vec_is_zero(defect):
                return ((i, j), defect)
    return None


def _algebra_order_defect(d: FormalDeformation, s: int,
                          tail: bool = False) -> MultilinearMap:
    """Order-s coefficient of the structure identity of the deformed
    multiplication (twisted associator for the associative kind, cyclic
    twisted double bracket for the Lie kind).  With ``tail`` only products
    of stored terms of positive degree count (the part not involving the
    unknown extension)."""
    A = d.base
    orders = range(1, s) if tail else range(s + 1)
    if A.kind == ASSOCIATIVE:
        acc = MultilinearMap.zero(3, A.dim, A.dim)
        for i in orders:
            mu_i, mu_j = d.term(i), d.term(s - i)
            if mu_i.is_zero() or mu_j.is_zero():
                continue
            acc = acc + alpha_associator(A, mu_i, mu_j)
        return acc
    values = {}
    for t in product(range(A.dim), repeat=3):
        args = [A.basis_vector(i) for i in t]
        total = zero_vector(A.dim)
        for i in orders:
            inner, outer = d.term(i), d.term(s - i)
            if inner.is_zero() or outer.is_zero():
                continue
            for x, y, z in ((args[0], args[1], args[2]),
                            (args[1], args[2], args[0]),
                            (args[2], args[0], args[1])):
                term = outer.evaluate([apply_alpha(A, x), inner.evaluate([y, z])])
                total = tuple(a + b for a, b in zip(total, term))
        values[t] = total
    return MultilinearMap.from_values(3, A.dim, A.dim, values)


def check_algebra_deformation(d: FormalDeformation,
                              up_to: int | None = None) -> DeformationReport:
    """Structure identity coefficient-by-coefficient; for the Lie kind each
    stored term is also checked for skew-symmetry at its own order."""
    up_to = 2 * d.order if up_to is None else up_to
    records = []
    for s in range(up_to + 1):
        witness = None
        if d.base.kind == LIE_KIND and s >= 1:
            witness = _skew_witness(d.term(s)) if not d.term(s).is_zero() else None
        if witness is None:
            witness = _first_nonzero(_algebra_order_defect(d, s))
        records.append(OrderRecord(order=s,
                                   algebra_a=CheckResult(witness is None, witness)))
    return DeformationReport(tuple(records))


def _morphism_order_defect(md: MorphismDeformation, s: int) -> MultilinearMap:
    """Order-s coefficient of phi_t(mul_A_t(x,y)) - mul_B_t(phi_t x, phi_t y)."""
    A, B = md.phi.source, md.phi.target
    values = {}
    for t in product(range(A.dim), repeat=2):
        x, y = A.basis_vector(t[0]), A.basis_vector(t[1])
        total = zero_vector(B.dim)
        for i in range(s + 1):
            prod_term = md.def_a.term(s - i).evaluate([x, y])
            if not vec_is_zero(prod_term):
                total = tuple(a + b for a, b in zip(
                    total, md.phi_term(i).matvec(prod_term)))
        for i in range(s + 1):
            mu = md.def_b.term(i)
            if mu.is_zero():
                continue
            for j in range(s - i + 1):
                k = s - i - j
                left = md.phi_term(j).matvec(x)
                right = md.phi_term(k).matvec(y)
                term = mu.evaluate([left, right])
                total = tuple(a - b for a, b in zip(total, term))
        values[t] = total
    return MultilinearMap.from_values(2, A.dim, B.dim, values)


def _twist_defect(md: MorphismDeformation, degree: int) -> tuple | None:
    A, B = md.phi.source, md.phi.target
    m = md.phi_term(degree)
    lhs = m @ A.alpha
    rhs = B.alpha @ m
    if lhs == rhs:
        return None
    for j in range(A.dim):
        if lhs.column(j) != rhs.column(j):
            return (A.basis_names[j],
                    tuple(a - b for a, b in zip(lhs.column(j), rhs.column(j))))
    return None


def check_morphism_deformation(md: MorphismDeformation,
                               up_to: int | None = None) -> DeformationReport:
    """Four verdicts per order: the two algebra deformations, the morphism
    coefficient equation, and twist compatibility of the morphism term.

    The morphism equation is trilinear in the stored families, so orders
    run to three times the deformation order by default.
    """
    up_to = 3 * md.order if up_to is None else up_to
    rep_a = check_algebra_deformation(md.def_a, up_to)
    rep_b = check_algebra_deformation(md.def_b, up_to)
    records = []
    for s in range(up_to + 1):
        mdefect = _first_nonzero(_morphism_order_defect(md, s))
        twist = _twist_defect(md, s) if s <= md.order else None
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


def _slot_verdicts(phi: HomMorphism, image: MorphismCochain) -> dict[str, bool]:
    return {"source": image.comp_A.is_zero(),
            "target": image.comp_B.is_zero(),
            "morphism": image.comp_AB.is_zero()}


def infinitesimal_report(md: MorphismDeformation):
    """Degree-1 coefficient triple, its coupled-coboundary slot verdicts,
    and warnings for slots whose failure traces to an invalid base."""
    theta = coefficient_cochain(md, 1)
    image = delta_morphism(md.phi, theta, md.flavor)
    verdicts = _slot_verdicts(md.phi, image)
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

    def transported_mul(side: str, s: int) -> MultilinearMap:
        alg = A if side == "a" else B
        d = md.def_a if side == "a" else md.def_b
        inv = inv_a if side == "a" else inv_b
        values = {}
        for t in product(range(alg.dim), repeat=2):
            x, y = alg.basis_vector(t[0]), alg.basis_vector(t[1])
            total = zero_vector(alg.dim)
            for i in range(s + 1):
                psi_i = psi.term(side, i)
                for j in range(s - i + 1):
                    mu = d.term(j)
                    if mu.is_zero():
                        continue
                    for k in range(s - i - j + 1):
                        ell = s - i - j - k
                        term = psi_i.matvec(mu.evaluate(
                            [inv[k].matvec(x), inv[ell].matvec(y)]))
                        total = tuple(p + q for p, q in zip(total, term))
            values[t] = total
        return MultilinearMap.from_values(2, alg.dim, alg.dim, values)

    terms_a = {}
    terms_b = {}
    for s in range(1, N + 1):
        ta = transported_mul("a", s)
        if not ta.is_zero():
            terms_a[s] = ta
        tb = transported_mul("b", s)
        if not tb.is_zero():
            terms_b[s] = tb
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
        md.phi,
        FormalDeformation.from_terms(A, N, terms_a),
        FormalDeformation.from_terms(B, N, terms_b),
        phi_terms, N)


def algebra_obstruction(d: FormalDeformation) -> MultilinearMap:
    """Half the graded bracket of the deformation tail with itself, checked
    against the direct order-(N+1) coefficient of the structure identity."""
    A = d.base
    N = d.order
    acc = MultilinearMap.zero(3, A.dim, A.dim)
    for p in range(1, N + 1):
        q = N + 1 - p
        if q < 1 or q > N:
            continue
        mu_p, mu_q = d.term(p), d.term(q)
        if mu_p.is_zero() or mu_q.is_zero():
            continue
        if A.kind == ASSOCIATIVE:
            acc = acc + gerstenhaber_bracket(A, mu_p, mu_q).scale(Fraction(1, 2))
        else:
            acc = acc + nr_bracket(A, mu_p, mu_q).scale(Fraction(1, 2))
    direct = _algebra_order_defect(d, N + 1, tail=True).scale(-1)
    if acc != direct:
        raise ObstructionMismatch(
            "bracket-form obstruction disagrees with the order coefficient "
            f"of the structure identity for {A.name}")
    return acc


def _connecting_obstruction(md: MorphismDeformation) -> MultilinearMap:
    """Known part of the order-(N+1) morphism equation: what the coupled
    coboundary of the unknown extension term must equal."""
    A, B = md.phi.source, md.phi.target
    N = md.order
    s = N + 1
    values = {}
    for t in product(range(A.dim), repeat=2):
        x, y = A.basis_vector(t[0]), A.basis_vector(t[1])
        total = zero_vector(B.dim)
        for i in range(1, N + 1):
            prod_term = md.def_a.term(s - i).evaluate([x, y])
            if not vec_is_zero(prod_term):
                total = tuple(a - b for a, b in zip(
                    total, md.phi_term(i).matvec(prod_term)))
        for i in range(s + 1):
            mu = md.def_b.term(i)
            if mu.is_zero():
                continue
            for j in range(s - i + 1):
                k = s - i - j
                if (i, j, k) in ((s, 0, 0), (0, s, 0), (0, 0, s)):
                    continue
                term = mu.evaluate([md.phi_term(j).matvec(x),
                                    md.phi_term(k).matvec(y)])
                total = tuple(a + b for a, b in zip(total, term))
        values[t] = total
    return MultilinearMap.from_values(2, A.dim, B.dim, values)


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
            if q < 1:
                continue
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
    direct = _connecting_obstruction(md)
    if md.flavor == LIE:
        direct = direct.scale(-1)
    if ob_phi != direct:
        raise ObstructionMismatch(
            "displayed connecting obstruction disagrees with the direct "
            "order coefficient of the morphism equation")
    ob = MorphismCochain(ob_a, ob_b, ob_phi)
    image = delta_morphism(md.phi, ob, md.flavor)
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


def _verified_families(report: DeformationReport) -> set[str]:
    out = set()
    for field in ("algebra_a", "algebra_b", "morphism_eq", "twist_eq"):
        if report.family_ok(field):
            out.add(field)
    return out


def extend_deformation(md: MorphismDeformation) -> MorphismDeformation | None:
    """Solve the coupled linear problem for an order-(N+1) term killing the
    obstruction; returns the re-verified extension or None when the
    obstruction is not a coboundary."""
    ob = obstruction(md)
    N = md.order
    space = MorphismCochainSpace(2, *morphism_cochain_space(md.phi, 2,
                                                            md.flavor))
    coords = solve_coboundary(morphism_delta(md.phi, md.flavor, 2),
                              space.coords, ob)
    if coords is None:
        return None
    extended = _extended_by(md, space.combine(coords))
    if not space.coords:
        return extended
    before = _verified_families(check_morphism_deformation(md, up_to=N))
    after = check_morphism_deformation(extended, up_to=N + 1)
    for family in before:
        if not after.family_ok(family):
            raise ObstructionMismatch(
                f"extension broke the {family} checks; sign convention bug")
    return extended


def _extended_by(md: MorphismDeformation, theta: MorphismCochain) -> MorphismDeformation:
    N1 = md.order + 1
    def_a = md.def_a.with_term(N1, theta.comp_A)
    def_b = md.def_b.with_term(N1, theta.comp_B)
    phi_terms = {d: m for d, m in md.phi_terms}
    ab = theta.comp_AB
    mat = Matrix.from_columns([ab.value_on_basis((j,))
                               for j in range(ab.source_dim)],
                              nrows=ab.target_dim)
    if not mat.is_zero():
        phi_terms[N1] = mat
    return MorphismDeformation.build(md.phi, def_a, def_b, phi_terms, N1)


def solve_algebra_coboundary(A: HomAlgebra, ob: MultilinearMap):
    """(twist-compatible bilinear cochain space of A, coordinates of a
    cochain in it whose coboundary is ob, or None when there is none)."""
    build = hom_cochain_basis if A.kind == ASSOCIATIVE else lie_cochain_basis
    space = build(A, A.dim, A.alpha, 2)
    return space, solve_coboundary(self_delta(A, 2), space.coords, ob)


def extend_algebra_deformation(d: FormalDeformation) -> FormalDeformation | None:
    """Algebra-only analogue of extend_deformation, solved in the
    twist-compatible bilinear cochain space of the base."""
    ob = algebra_obstruction(d)
    space, coords = solve_algebra_coboundary(d.base, ob)
    if not space.coords:
        return d if ob.is_zero() else None
    if coords is None:
        return None
    theta = space.combine(coords)
    extended = d.with_term(d.order + 1, theta)
    report = check_algebra_deformation(extended, up_to=d.order + 1)
    if not report.overall_ok and check_algebra_deformation(
            d, up_to=d.order).overall_ok:
        raise ObstructionMismatch(
            "algebra extension broke the order checks; sign convention bug")
    return extended
