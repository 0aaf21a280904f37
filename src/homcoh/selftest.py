"""Deterministic invariant suites behind ``homcoh selftest`` and the
acceptance property tests.

Random data comes from seeded generators, so two runs produce identical
results byte for byte.  Valid random Hom-algebras are manufactured the only
robust way available: take a classical algebra from a small curated family,
change basis randomly, and twist it along a randomly chosen multiplication
morphism.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import (ASSOCIATIVE, LIE, HomAlgebra, multiply, validate,
                      yau_twist)
from .bracket import gerstenhaber_bracket, nr_bracket
from .cochain import (MultilinearMap, alternator, hom_cochain_basis,
                      is_alternating, is_compatible, lie_cochain_basis)
from .cohomology import ModuleComplex, MorphismComplex, d_component
from .deformation import (apply_equivalence, check_morphism_deformation,
                          coefficient_cochain, FormalAutomorphismPair,
                          infinitesimal_report, obstruction)
from .exact import Matrix, nullspace_basis, rref, solve
from .rep import HomMorphism, adjoint_bimodule, self_bimodule
from . import fixtures


def _rand_fraction(rng, span=3) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.choice((1, 1, 1, 2, 3))
    return Fraction(num, den)


def _rand_matrix(rng, rows, cols, span=3) -> Matrix:
    return Matrix.from_rows([[_rand_fraction(rng, span) for _ in range(cols)]
                             for _ in range(rows)])


def _rand_invertible(rng, n) -> Matrix:
    lower = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    upper = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            lower[i][j] = Fraction(rng.randint(-2, 2))
            upper[j][i] = Fraction(rng.randint(-2, 2))
        upper[i][i] = Fraction(rng.choice((1, -1, 2)))
    return Matrix.from_rows(lower) @ Matrix.from_rows(upper)


def _conjugate(A: HomAlgebra, P: Matrix) -> HomAlgebra:
    """Base change e_j -> P e_j; preserves validity and kind."""
    n = A.dim
    aug = rref(Matrix.from_rows(
        [list(P.row(i)) + [Fraction(1 if j == i else 0) for j in range(n)]
         for i in range(n)]))
    P_inv = Matrix.from_rows([list(aug.reduced.row(i))[n:] for i in range(n)])
    cols = [P.column(j) for j in range(n)]
    mul = [[P_inv.matvec(multiply(A, cols[i], cols[j])) for j in range(n)]
           for i in range(n)]
    alpha = P_inv @ A.alpha @ P
    return HomAlgebra(name=f"{A.name}~", kind=A.kind, dim=n, mul=mul,
                      alpha=alpha)


def _assoc_family(rng):
    """(ordinary associative algebra with identity twist, morphism) pairs."""
    pick = rng.randrange(5)
    if pick == 0:
        mul = [[[Fraction(0)]]]
        A = HomAlgebra("zero1", ASSOCIATIVE, 1, mul, Matrix.identity(1))
        gamma = Matrix.from_rows([[_rand_fraction(rng)]])
    elif pick == 1:
        A = fixtures.dual_numbers()
        gamma = Matrix.from_rows([[1, 0], [0, _rand_fraction(rng)]])
    elif pick == 2:
        mul = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
        mul[0][0][0] = Fraction(1)
        mul[1][1][1] = Fraction(1)
        A = HomAlgebra("kxk", ASSOCIATIVE, 2, mul, Matrix.identity(2))
        gamma = rng.choice((
            Matrix.identity(2),
            Matrix.from_rows([[0, 1], [1, 0]]),
            Matrix.from_rows([[1, 0], [0, 0]]),
            Matrix.zero(2, 2)))
    elif pick == 3:
        # truncated polynomials in one variable, cube zero
        mul = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
        mul[0][0][0] = Fraction(1)
        mul[0][1][1] = mul[1][0][1] = Fraction(1)
        mul[0][2][2] = mul[2][0][2] = Fraction(1)
        mul[1][1][2] = Fraction(1)
        A = HomAlgebra("trunc3", ASSOCIATIVE, 3, mul, Matrix.identity(3))
        c = _rand_fraction(rng)
        d = _rand_fraction(rng)
        gamma = Matrix.from_rows([[1, 0, 0], [0, c, 0], [0, d, c * c]])
    else:
        # upper-triangular two-by-two matrices
        mul = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
        mul[0][0][0] = Fraction(1)   # u u = u
        mul[0][1][1] = Fraction(1)   # u v = v
        mul[1][2][1] = Fraction(1)   # v w = v
        mul[2][2][2] = Fraction(1)   # w w = w
        A = HomAlgebra("uppertri", ASSOCIATIVE, 3, mul, Matrix.identity(3))
        c = _rand_fraction(rng)
        gamma = Matrix.from_rows([[1, 0, 0], [0, c, 0], [0, 0, 1]])
    return A, gamma


def _lie_family(rng):
    pick = rng.randrange(4)
    if pick == 0:
        n = rng.choice((1, 2, 3))
        mul = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        A = HomAlgebra(f"abelian{n}", LIE, n, mul, Matrix.identity(n))
        gamma = _rand_matrix(rng, n, n)
    elif pick == 1:
        A = fixtures.heisenberg()
        p = _rand_fraction(rng)
        q = _rand_fraction(rng)
        gamma = Matrix.from_rows([[p, 0, 0], [0, q, 0], [0, 0, p * q]])
    elif pick == 2:
        # affine line algebra: one bracket [e1, e2] = e2
        mul = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
        mul[0][1][1] = Fraction(1)
        mul[1][0][1] = Fraction(-1)
        A = HomAlgebra("affine", LIE, 2, mul, Matrix.identity(2))
        beta = _rand_fraction(rng)
        q = _rand_fraction(rng)
        gamma = Matrix.from_rows([[1, 0], [beta, q]])
    else:
        # split extension: [e1,e2] = e2, [e1,e3] = lam e3
        lam = _rand_fraction(rng)
        mul = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
        mul[0][1][1] = Fraction(1)
        mul[1][0][1] = Fraction(-1)
        mul[0][2][2] = lam
        mul[2][0][2] = -lam
        A = HomAlgebra("split", LIE, 3, mul, Matrix.identity(3))
        q = _rand_fraction(rng)
        r = _rand_fraction(rng)
        gamma = Matrix.from_rows([[1, 0, 0], [0, q, 0], [0, 0, r]])
    return A, gamma


def random_valid_hom_algebra(rng, kind: str) -> HomAlgebra:
    """A valid multiplicative Hom-algebra: curated classical algebra,
    random base change, then twist along a multiplication morphism."""
    A, gamma = _assoc_family(rng) if kind == ASSOCIATIVE else _lie_family(rng)
    P = _rand_invertible(rng, A.dim)
    twisted = yau_twist(A, gamma)
    return _conjugate(twisted, P)


def _mul_as_map(A: HomAlgebra) -> MultilinearMap:
    values = {(i, j): A.mul[i][j] for i in range(A.dim) for j in range(A.dim)}
    return MultilinearMap.from_values(2, A.dim, A.dim, values)


class SuiteResult:
    def __init__(self, name: str):
        self.name = name
        self.checks = 0
        self.failures: list[str] = []

    def expect(self, condition: bool, message: str):
        self.checks += 1
        if not condition:
            self.failures.append(message)

    def to_json(self) -> dict:
        return {"name": self.name, "ok": not self.failures,
                "checks": self.checks, "failures": self.failures}


def suite_exact(trials: int = 40) -> SuiteResult:
    rng = random.Random(101)
    out = SuiteResult("exact_linear_algebra")
    for t in range(trials):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        m = _rand_matrix(rng, rows, cols)
        res = rref(m)
        out.expect(rref(res.reduced).reduced == res.reduced,
                   f"trial {t}: echelon form not idempotent")
        basis = nullspace_basis(m)
        out.expect(len(basis) == cols - res.rank,
                   f"trial {t}: kernel size mismatch")
        for v in basis:
            out.expect(all(x == 0 for x in m.matvec(v)),
                       f"trial {t}: kernel vector not annihilated")
        x = tuple(_rand_fraction(rng) for _ in range(cols))
        b = m.matvec(x)
        got = solve(m, b)
        out.expect(got is not None and m.matvec(got) == b,
                   f"trial {t}: solve failed on a consistent system")
        a = _rand_fraction(rng, 50)
        c = _rand_fraction(rng, 50)
        out.expect((a + c) - c == a, f"trial {t}: arithmetic not exact")
    return out


def _fixture_complexes():
    """Valid fixture complexes keyed by a stable label."""
    a3 = fixtures.assoc3(1, 2)
    b2 = fixtures.assoc2()
    phi = fixtures.phi_assoc()
    l4a = fixtures.lie4a(1, 1, 1, 1)
    g1 = fixtures.g1(2, 3)
    g1_id = HomMorphism(g1, g1, Matrix.identity(3))
    return [
        ("hom_self:a3", ModuleComplex(a3)),
        ("hom_self:b2", ModuleComplex(b2)),
        ("lie_self:l4a", ModuleComplex(l4a)),
        ("lie_self:g1(2,3)", ModuleComplex(g1)),
        ("morphism_hom:phi_assoc", MorphismComplex(phi, "hom")),
        ("morphism_lie:id_g1", MorphismComplex(g1_id, "lie")),
    ]


def suite_delta_squared(random_per_flavor: int = 25) -> SuiteResult:
    out = SuiteResult("delta_squared")
    for label, complex_obj in _fixture_complexes():
        for n in (1, 2):
            for k, f in enumerate(complex_obj.bound_space(n).basis):
                out.expect(complex_obj.delta(complex_obj.delta(f)).is_zero(),
                           f"{label}: delta^2 != 0 at degree {n}, basis {k}")
    rng = random.Random(202)
    for kind in (ASSOCIATIVE, LIE):
        for t in range(random_per_flavor):
            A = random_valid_hom_algebra(rng, kind)
            out.expect(validate(A).is_valid,
                       f"random {kind} algebra {t} is not valid")
            complex_obj = ModuleComplex(A)
            for n in (1, 2):
                for k, f in enumerate(complex_obj.bound_space(n).basis):
                    out.expect(
                        complex_obj.delta(complex_obj.delta(f)).is_zero(),
                        f"random {kind} {t}: delta^2 != 0 at degree {n}")
    return out


def suite_bracket_detection(trials: int = 50) -> SuiteResult:
    out = SuiteResult("bracket_detection")
    rng = random.Random(303)
    for t in range(trials):
        n = 2
        mul = [[[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                for _ in range(n)] for _ in range(n)]
        A = HomAlgebra("rand_assoc", ASSOCIATIVE, n, mul, Matrix.identity(n))
        m = _mul_as_map(A)
        out.expect(gerstenhaber_bracket(A, m, m).is_zero()
                   == validate(A).is_valid,
                   f"trial {t}: bracket does not detect twisted associativity")
    for t in range(trials):
        n = rng.choice((2, 3))
        mul = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    c = Fraction(rng.randint(-2, 2))
                    mul[i][j][k] = c
                    mul[j][i][k] = -c
        L = HomAlgebra("rand_lie", LIE, n, mul, Matrix.identity(n))
        b = _mul_as_map(L)
        out.expect(nr_bracket(L, b, b).is_zero() == validate(L).is_valid,
                   f"trial {t}: alternating bracket does not detect the "
                   "twisted Jacobi identity")
    # genuinely twisted structure maps on the valid side of the equivalence
    for t in range(10):
        A = random_valid_hom_algebra(rng, ASSOCIATIVE)
        m = _mul_as_map(A)
        out.expect(gerstenhaber_bracket(A, m, m).is_zero(),
                   f"twisted trial {t}: bracket nonzero on a valid algebra")
        L = random_valid_hom_algebra(rng, LIE)
        b = _mul_as_map(L)
        out.expect(nr_bracket(L, b, b).is_zero(),
                   f"twisted trial {t}: alternating bracket nonzero on a "
                   "valid algebra")
    return out


def suite_yau_twist(trials: int = 20) -> SuiteResult:
    out = SuiteResult("yau_twist")
    rng = random.Random(404)
    for t in range(trials):
        kind = ASSOCIATIVE if t % 2 == 0 else LIE
        A = random_valid_hom_algebra(rng, kind)
        out.expect(validate(A).is_valid,
                   f"trial {t}: twisted {kind} algebra is invalid")
    return out


def suite_face_operators(trials: int = 100) -> SuiteResult:
    out = SuiteResult("face_operators")
    rng = random.Random(505)
    a3 = fixtures.assoc3(1, 2)
    phi = fixtures.phi_assoc()
    setups = [("self", ModuleComplex(a3, self_bimodule(a3))),
              ("adjoint", ModuleComplex(a3, adjoint_bimodule(phi)))]
    for t in range(trials):
        label, complex_obj = setups[t % len(setups)]
        A, M = complex_obj.algebra, complex_obj.module
        n = rng.choice((1, 2))
        space = complex_obj.bound_space(n)
        f = space.combine([Fraction(rng.randint(-2, 2))
                           for _ in range(space.dim)])
        total = MultilinearMap.zero(n + 1, A.dim, M.carrier_dim)
        for i in range(n + 1):
            face = d_component(A, M, i, f)
            total = total + (face if (i + 1) % 2 == 0 else face.scale(-1))
        out.expect(total == complex_obj.delta(f),
                   f"trial {t} ({label}): signed face sum != coboundary")
        out.expect(d_component(A, M, n, f).is_zero(),
                   f"trial {t} ({label}): face {n} nonzero on arity {n}")
        for i in range(n + 1):
            for j in range(i):
                lhs = d_component(A, M, i, d_component(A, M, j, f))
                rhs = d_component(A, M, j, d_component(A, M, i - 1, f))
                out.expect(lhs == rhs,
                           f"trial {t} ({label}): face relation ({i},{j})")
    return out


def suite_cochain_spaces(trials: int = 10) -> SuiteResult:
    out = SuiteResult("cochain_spaces")
    rng = random.Random(606)
    a3 = fixtures.assoc3(1, 2)
    l4a = fixtures.lie4a(1, 1, 1, 1)
    for k in (1, 2, 3):
        s1 = hom_cochain_basis(a3, 3, a3.alpha, k)
        s2 = hom_cochain_basis(a3, 3, a3.alpha, k)
        out.expect(s1.basis == s2.basis, f"hom basis at arity {k} not "
                   "deterministic")
        for f in s1.basis:
            out.expect(is_compatible(f, a3.alpha, a3.alpha),
                       f"hom basis element at arity {k} incompatible")
    for k in (1, 2, 3):
        s = lie_cochain_basis(l4a, 4, l4a.alpha, k)
        for f in s.basis:
            out.expect(is_alternating(f), f"lie basis at arity {k} "
                       "not alternating")
            out.expect(is_compatible(f, l4a.alpha, l4a.alpha),
                       f"lie basis at arity {k} incompatible")
    for t in range(trials):
        size = 3 ** 2 * 3
        f = MultilinearMap(2, 3, 3,
                           tuple(Fraction(rng.randint(-2, 2))
                                 for _ in range(size)))
        g = alternator(f)
        out.expect(alternator(g) == g, f"trial {t}: alternator not idempotent")
        out.expect(is_alternating(g), f"trial {t}: alternator output not "
                   "alternating")
    return out


def suite_deformations() -> SuiteResult:
    out = SuiteResult("deformations")
    md = fixtures.mdef_2()
    theta, verdicts, _ = infinitesimal_report(md)
    out.expect(verdicts["source"], "mdef_2: source slot of the "
               "infinitesimal coboundary is nonzero")
    out.expect(verdicts["morphism"], "mdef_2: connecting slot of the "
               "infinitesimal coboundary is nonzero")
    out.expect(not verdicts["target"], "mdef_2: target slot unexpectedly "
               "vanished (the invalid companion should obstruct it)")
    ob = obstruction(md)
    image = md.complex.delta(ob)
    out.expect(image.comp_A.is_zero() and image.comp_AB.is_zero(),
               "mdef_2: obstruction is not a cocycle in the valid slots")

    # a trivial morphism deformation of the associative pair
    phi = fixtures.phi_assoc()
    from .deformation import FormalDeformation, MorphismDeformation
    trivial = MorphismDeformation.build(
        phi,
        FormalDeformation.from_terms(phi.source, 1, {}),
        FormalDeformation.from_terms(phi.target, 1, {}),
        {}, 1)
    rep = check_morphism_deformation(trivial)
    out.expect(rep.overall_ok, "trivial morphism deformation fails checks")
    theta = coefficient_cochain(trivial, 1)
    out.expect(trivial.complex.delta(theta).is_zero(),
               "trivial infinitesimal is not a cocycle")
    ob = obstruction(trivial)
    out.expect(ob.is_zero(), "trivial obstruction is nonzero")

    # equivalence transport on mdef_2
    N = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    psi = FormalAutomorphismPair(source=md.phi.source, target=md.phi.target,
                                 psi_a_terms=((1, N),), psi_b_terms=(),
                                 order=1)
    transported = apply_equivalence(md, psi)
    before = check_morphism_deformation(md)
    after = check_morphism_deformation(transported)
    for family in ("algebra_a", "algebra_b", "morphism_eq", "twist_eq"):
        out.expect(before.family_ok(family) == after.family_ok(family),
                   f"equivalence transport changed the {family} verdict")
    t_old = coefficient_cochain(md, 1)
    t_new = coefficient_cochain(transported, 1)
    from .cochain import MorphismCochain
    one = MorphismCochain(MultilinearMap.from_matrix(N),
                          MultilinearMap.zero(1, 3, 3),
                          MultilinearMap.constant(3, (0, 0, 0)))
    shift = md.complex.delta(one)
    out.expect(t_old.comp_A - t_new.comp_A == shift.comp_A
               and t_old.comp_B - t_new.comp_B == shift.comp_B
               and t_old.comp_AB - t_new.comp_AB == shift.comp_AB,
               "equivalence transport did not shift the infinitesimal by "
               "the predicted coboundary")
    return out


def run_selftest(fast: bool = False) -> dict:
    """Run every suite; deterministic output suitable for canonical JSON."""
    scale = (10, 5, 20, 5, 20, 4) if fast else (40, 25, 50, 20, 100, 10)
    suites = [
        suite_exact(scale[0]),
        suite_delta_squared(scale[1]),
        suite_bracket_detection(scale[2]),
        suite_yau_twist(scale[3]),
        suite_face_operators(scale[4]),
        suite_cochain_spaces(scale[5]),
        suite_deformations(),
    ]
    return {"ok": all(not s.failures for s in suites),
            "suites": [s.to_json() for s in suites]}
