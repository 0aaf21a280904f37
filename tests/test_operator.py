"""The compiled sparse coboundary operators against the dense formulas in
``helpers.py``, on seeded random cochains, plus the algebraic checks every
compiled operator must pass: delta squared vanishes and ranks agree with
fraction-free elimination."""

import cProfile
import pstats
import random
from fractions import Fraction
from math import lcm

import pytest

from helpers import (bareiss_rank, canonical_coords, column_rank, combine,
                     dense, dense_action, evaluate, lie_cochain_basis,
                     matrix_sum, multiply,
                     dense_coeffs, dense_d_component, dense_degree_zero_images,
                     dense_delta_hom, dense_delta_lie, dense_delta_morphism,
                     dense_derivation_D_assoc, dense_derivation_D_lie,
                     dense_map, dense_nullspace, dense_quotient,
                     dense_to_full, differential_matrix, operator_matrix,
                     row_apply)
from homcoh import cochain, fixtures, operator
from homcoh.algebra import ASSOCIATIVE, LIE, Action, HomAlgebra, yau_twist
from homcoh.cochain import (Coords, MorphismCochain, MultilinearMap,
                            alternator, compatibility_rows, is_compatible)
from homcoh.cohomology import (HomSelfComplex, LieSelfComplex,
                               ModuleComplex, MorphismComplex,
                               compute_cohomology, connecting_complex)
from homcoh.errors import UsageError
from homcoh.exact import (Matrix, SparseMatrix, dense_vector,
                          independent_subset, integral, intersection_basis,
                          lincomb, nullspace_basis, rref, solve,
                          sparse_vector)
from homcoh.deformation import FormalDeformation, solve_obstruction
from homcoh.operator import (apply_operator, hom_delta, hom_operator,
                             lie_operator)
from homcoh.rep import HomMorphism, Module, adjoint_module, self_module
from homcoh.selftest import _conjugate, _rand_invertible, random_valid_hom_algebra


def rand_map(rng, arity, sd, td):
    return dense_map(arity, sd, td, tuple(
        Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
        for _ in range(sd ** arity * td)))


def rand_alternating(rng, arity, sd, td):
    return alternator(rand_map(rng, arity, sd, td))


def non_skew_lie() -> HomAlgebra:
    """Lie-kind input whose stored bracket is not skew: its coboundaries of
    alternating cochains are not alternating."""
    mul = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    mul[0][1] = [0, 0, 1]
    mul[1][0] = [0, 0, 2]
    mul[2][2] = [1, 0, 0]
    return HomAlgebra("nonskew", LIE, 3, mul,
                      Matrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 1, 1]]))


def assoc_algebras():
    rng = random.Random(71)
    return [fixtures.assoc3(1, 2), fixtures.assoc2(), fixtures.dual_numbers(),
            fixtures.invalid_assoc2(),
            random_valid_hom_algebra(rng, ASSOCIATIVE),
            random_valid_hom_algebra(rng, ASSOCIATIVE)]


def lie_algebras():
    rng = random.Random(72)
    return [fixtures.lie4a(1, 1, 1, 1), fixtures.heisenberg(), fixtures.g2(),
            fixtures.g1(2, 3), fixtures.lie4b(2, 1, 1, 1, -1), non_skew_lie(),
            random_valid_hom_algebra(rng, LIE),
            random_valid_hom_algebra(rng, LIE)]


def mult(X):
    return lambda x, y: multiply(X, x, y)


def test_delta_hom_self_matches_dense_formula():
    rng = random.Random(1)
    for A in assoc_algebras():
        for k in (1, 2, 3):
            f = rand_map(rng, k, A.dim, A.dim)
            assert ModuleComplex(A).delta(f) == dense_delta_hom(
                A, mult(A), mult(A), A.dim, f), (A.name, k)


def test_delta_hom_bimodule_matches_dense_formula():
    rng = random.Random(2)
    phi = fixtures.phi_assoc()
    for M in (adjoint_module(phi), self_module(phi.source),
              self_module(fixtures.invalid_assoc2())):
        A = M.algebra
        for k in (1, 2, 3):
            f = rand_map(rng, k, A.dim, M.carrier_dim)
            d = M.carrier_dim
            assert ModuleComplex(A, M).delta(f) == dense_delta_hom(
                A, dense_action(M.left, d), dense_action(M.right, d), d, f)


def test_delta_lie_self_matches_dense_formula():
    rng = random.Random(3)
    for L in lie_algebras():
        for k in (1, 2, 3):
            f = rand_alternating(rng, k, L.dim, L.dim)
            assert ModuleComplex(L).delta(f) == dense_delta_lie(
                L, mult(L), L.dim, f), (L.name, k)


def test_delta_lie_module_matches_dense_formula():
    rng = random.Random(4)
    modules = [adjoint_module(fixtures.phi12_1()),
               adjoint_module(fixtures.phi12_2()),
               self_module(fixtures.lie4a(1, 1, 1, 1)),
               self_module(non_skew_lie())]
    for P in modules:
        L = P.algebra
        for k in (1, 2, 3):
            f = rand_alternating(rng, k, L.dim, P.carrier_dim)
            assert ModuleComplex(L, P).delta(f) == dense_delta_lie(
                L, dense_action(P.left, P.carrier_dim), P.carrier_dim, f)


@pytest.mark.parametrize("name, flavor", [
    ("phi_assoc", "hom"), ("phi12_1", "lie"), ("phi12_2", "lie"),
    ("id_g1", "lie")])
def test_delta_morphism_matches_dense_formula(name, flavor):
    rng = random.Random(5)
    if name == "id_g1":
        G = fixtures.g1(2, 3)
        phi = HomMorphism(G, G, Matrix.identity(3))
    else:
        phi = fixtures.builtin("morphism", name)
    A, B = phi.source, phi.target
    make = rand_map if flavor == "hom" else rand_alternating
    for n in (1, 2, 3):
        c = MorphismCochain(make(rng, n, A.dim, A.dim),
                            make(rng, n, B.dim, B.dim),
                            make(rng, n - 1, A.dim, B.dim))
        assert MorphismComplex(phi).delta(c) == dense_delta_morphism(phi, c)


def test_faces_and_derivations_match_dense_formulas():
    rng = random.Random(6)
    phi = fixtures.phi_assoc()
    for M in (self_module(phi.source), adjoint_module(phi)):
        A = M.algebra
        complex_obj = ModuleComplex(A, M)
        for k in (1, 2, 3):
            f = rand_map(rng, k, A.dim, M.carrier_dim)
            for i in range(k + 1):
                assert complex_obj.face(i, f) == dense_d_component(A, M, i, f)
    for A in assoc_algebras()[:3]:
        for k in (0, 1, 2, 3):
            f = rand_map(rng, k, A.dim, 2)
            op = hom_operator(A, 2, k, [(-1) ** (i + 1) for i in range(k)])
            assert apply_operator(op, f) == dense_derivation_D_assoc(A, f)
    for L in lie_algebras()[:4] + [non_skew_lie()]:
        for k in (0, 1, 2, 3):
            f = rand_map(rng, k, L.dim, 2)  # need not be alternating
            op = lie_operator(L, 2, k, reduced=False)
            assert apply_operator(op, f) == dense_derivation_D_lie(L, f)


def valid_complexes():
    rng = random.Random(7)
    phi = fixtures.phi_assoc()
    G = fixtures.g1(2, 3)
    out = [HomSelfComplex(fixtures.assoc3(1, 2)),
           HomSelfComplex(fixtures.assoc2()),
           ModuleComplex(phi.source, adjoint_module(phi)),
           LieSelfComplex(fixtures.lie4a(1, 1, 1, 1)),
           LieSelfComplex(G),
           ModuleComplex(G, self_module(G)),
           MorphismComplex(phi),
           MorphismComplex(HomMorphism(G, G, Matrix.identity(3)))]
    for kind in (ASSOCIATIVE, LIE, ASSOCIATIVE, LIE):
        A = random_valid_hom_algebra(rng, kind)
        out.append(HomSelfComplex(A) if kind == ASSOCIATIVE
                   else LieSelfComplex(A))
    return out


def test_delta_squared_vanishes_on_compiled_operators():
    for complex_obj in valid_complexes():
        for n in (1, 2):
            first, second = complex_obj.operator(n), complex_obj.operator(n + 1)
            assert first.target == second.source
            for v in complex_obj.bound_space(n).coords:
                assert not second.apply(first.apply(v)), \
                    (complex_obj.flavor, n)


def operator_kinds():
    """One complex per operator kind: (name, complex)."""
    phi = fixtures.phi_assoc()
    psi = fixtures.builtin("morphism", "phi12_1")
    return [("hom self", HomSelfComplex(fixtures.assoc3(1, 2))),
            ("bimodule", ModuleComplex(phi.source, adjoint_module(phi))),
            ("lie self", LieSelfComplex(fixtures.lie4a(1, 1, 1, 1))),
            ("lie module", ModuleComplex(psi.source, adjoint_module(psi))),
            ("non-skew", LieSelfComplex(non_skew_lie())),
            ("morphism hom", MorphismComplex(phi)),
            ("morphism lie", MorphismComplex(psi))]


def test_apply_matches_the_row_scan():
    rng = random.Random(43)
    for name, complex_obj in operator_kinds():
        for n in (1, 2, 3):
            op = complex_obj.operator(n)
            dim = op.source.dim
            units = [tuple(Fraction(int(i == j)) for i in range(dim))
                     for j in range(dim)]
            dense_vectors = [tuple(
                Fraction(rng.randint(-4, 4), rng.choice((1, 2, 5)))
                for _ in range(dim)) for _ in range(3)]
            for x in units + dense_vectors + [(Fraction(0),) * dim]:
                assert op.apply(sparse_vector(x)) == sparse_vector(
                    row_apply(op, x)), (name, n)
            m = operator_matrix(op, [sparse_vector(x) for x in dense_vectors])
            assert m == SparseMatrix.from_columns(
                [sparse_vector(row_apply(op, x)) for x in dense_vectors],
                len(op.data))
        if name == "non-skew":
            assert not op.target.reduced and op.source.reduced
    with pytest.raises(UsageError, match="coordinates"):
        op.apply({op.source.dim: Fraction(1)})


def bound_coords(complex_obj, n):
    """Basis coordinates of the space the cocycle equation is solved on,
    or None when that is the whole multilinear space."""
    return None if complex_obj.full_cocycles else \
        canonical_coords(complex_obj.bound_space(n))


def test_cocycle_basis_is_built_on_first_read():
    for name, complex_obj in operator_kinds():
        summary = compute_cohomology(complex_obj, [1, 2])
        for n in (1, 2):
            op, coords = complex_obj.operator(n), bound_coords(complex_obj, n)
            if coords is None:
                z = nullspace_basis(operator_matrix(op))
            else:
                z = [lincomb(k, coords)
                     for k in nullspace_basis(operator_matrix(op, coords))]
            eager = tuple(op.source.to_full(v) for v in z)
            rec = summary.record(n)
            assert "basis" not in vars(rec.cocycles)
            assert rec.cocycle_basis == eager, (name, n)
            assert rec.cocycle_basis is rec.cocycle_basis
            assert list(rec.representatives) == [
                f for f in eager if f in rec.representatives]


def test_operator_ranks_agree_with_fraction_free_elimination():
    complexes = valid_complexes() + [LieSelfComplex(fixtures.g2()),
                                     LieSelfComplex(non_skew_lie()),
                                     HomSelfComplex(fixtures.invalid_assoc2())]
    for complex_obj in complexes:
        summary = compute_cohomology(complex_obj, [1, 2])
        for n in (1, 2):
            op = complex_obj.operator(n)
            coords = bound_coords(complex_obj, n)
            m = operator_matrix(op, coords)
            rank = bareiss_rank(dense(m))
            assert rank == rref(m).rank
            rec = summary.record(n)
            assert rank == rec.dim_cochains - rec.dim_cocycles


def lie_kind_complexes():
    """Lie-kind complexes whose compatibility rows do not vanish: algebras
    with non-diagonal twists (a seeded change of basis), a Lie module
    complex and morphism complexes.  Each entry makes a fresh complex."""
    rng = random.Random(74)
    algebras = [_conjugate(L, _rand_invertible(rng, L.dim))
                for L in (fixtures.g1(2, 3), fixtures.g2(),
                          fixtures.lie4a(1, 2, 1, 1),
                          fixtures.lie4b(2, 1, 1, 1, -1))]
    algebras.append(random_valid_hom_algebra(rng, LIE))
    psi = fixtures.builtin("morphism", "phi12_1")
    return ([lambda L=L: LieSelfComplex(L) for L in algebras]
            + [lambda: connecting_complex(psi),
               lambda: MorphismComplex(psi),
               lambda: MorphismComplex(fixtures.phi12_2())])


def test_stacked_cocycles_match_the_restricted_kernel():
    """The cocycles of one stacked elimination are the kernel of the
    operator on the compatible basis, mapped back, vector by vector."""
    restricted = 0
    for make in lie_kind_complexes():
        summary = compute_cohomology(make(), [1, 2, 3])
        for n in (1, 2, 3):
            complex_obj = make()
            rec = compute_cohomology(complex_obj, [n]).record(n)
            op, coords = complex_obj.operator(n), bound_coords(complex_obj, n)
            z = [lincomb(k, coords)
                 for k in nullspace_basis(operator_matrix(op, coords))]
            for r in (rec, summary.record(n)):
                assert r.dim_cochains == len(coords)
                assert all(type(x) is int for v in r.cocycles.coords
                           for x in v.values())
                assert canonical_coords(r.cocycles) == tuple(z)
            restricted += len(coords) < op.source.dim and bool(z)
    assert restricted >= 10
    twists = [make().algebra.alpha for make in lie_kind_complexes()[:5]]
    assert all(any(A.at(i, j) for i in range(A.rows) for j in range(A.cols)
                   if i != j) for A in twists)


def dense_dims(space_n, space_prev, delta):
    """(dim C, dim Z, dim B) of one degree, computed on full tensors with
    the dense coboundary."""
    images = [dense_coeffs(delta(f)) for f in space_n.basis]
    kernel = nullspace_basis(Matrix.from_columns(images)) if images else []
    z = [sparse_vector(dense_coeffs(combine(space_n, k))) for k in kernel]
    b_all = [sparse_vector(dense_coeffs(delta(g))) for g in space_prev.basis]
    b = [b_all[i] for i in independent_subset(b_all)]
    if b and column_rank(b + z) != len(z):
        b = intersection_basis(b, z)
    return space_n.dim, len(z), len(b)


def test_non_skew_bracket_keeps_full_images():
    L = non_skew_lie()
    f = rand_alternating(random.Random(8), 2, 3, 3)
    image = ModuleComplex(L).delta(f)
    assert image == dense_delta_lie(L, mult(L), 3, f)
    summary = compute_cohomology(LieSelfComplex(L), [2, 3])
    delta = lambda g: dense_delta_lie(L, mult(L), 3, g)
    for n in (2, 3):
        rec = summary.record(n)
        expected = dense_dims(lie_cochain_basis(L, 3, L.alpha, n),
                              lie_cochain_basis(L, 3, L.alpha, n - 1), delta)
        assert (rec.dim_cochains, rec.dim_cocycles,
                rec.dim_coboundaries) == expected
    assert any("escape" in w for w in summary.warnings)


def test_non_alternating_input_is_rejected():
    heis = fixtures.heisenberg()
    bad = MultilinearMap.from_values(2, 3, 3, {(0, 1): (0, 0, 1)})
    with pytest.raises(UsageError):
        ModuleComplex(heis).delta(bad)
    with pytest.raises(UsageError):
        ModuleComplex(heis, self_module(heis)).delta(bad)
    with pytest.raises(UsageError):
        LieSelfComplex(heis).delta(bad)
    G = fixtures.g1(2, 3)
    c = MorphismCochain(bad, MultilinearMap.zero(2, 3, 3),
                        MultilinearMap.zero(1, 3, 3))
    with pytest.raises(UsageError):
        MorphismComplex(HomMorphism(G, G, Matrix.identity(3))).delta(c)


def test_non_alternating_target_is_not_a_coboundary():
    L = fixtures.heisenberg()
    space = lie_cochain_basis(L, 3, L.alpha, 2)
    d = FormalDeformation.from_terms(L, 1, {})  # its complex: L in itself
    target = ModuleComplex(L).delta(space.basis[0])
    assert solve_obstruction(d, target) is not None
    skewed = dense_map(3, 3, 3, dense_coeffs(target)[:-1] + (Fraction(1),))
    assert solve_obstruction(d, skewed) is None


def test_dimensions_do_not_depend_on_the_basis():
    rng = random.Random(9)
    for kind in (ASSOCIATIVE, LIE, ASSOCIATIVE, LIE):
        A = random_valid_hom_algebra(rng, kind)
        B = _conjugate(A, _rand_invertible(rng, A.dim))
        make = HomSelfComplex if kind == ASSOCIATIVE else LieSelfComplex
        dims = [[(r.dim_cocycles, r.dim_coboundaries, r.dim_cohomology)
                 for r in compute_cohomology(make(X), [1, 2, 3]).records]
                for X in (A, B)]
        assert dims[0] == dims[1]


# Constants with denominators: the integer rows of a compiled operator sit
# over one denominator ``den``, which apply, solve and the morphism
# assembly must all respect.

def denominator_complexes():
    """Complexes whose constants have several denominators and whose twists
    are not the identity: g1(2, 1/2), and g1(2, 1/2) and assoc3 rewritten
    in a basis whose inverse is over 3, with the morphism into that basis."""
    P = Matrix.from_rows([[1, 1, 0], [0, 2, 1], [1, 0, 1]])
    P_inv = Matrix.from_rows([[Fraction(x, 3) for x in row] for row in
                              ([2, -1, 1], [1, 1, -1], [-2, 1, 2])])
    assert P @ P_inv == Matrix.identity(3)
    out = [ModuleComplex(fixtures.g1(2, Fraction(1, 2)))]
    for X in (fixtures.g1(2, Fraction(1, 2)), fixtures.assoc3(1, 2)):
        Y = _conjugate(X, P)
        out += [ModuleComplex(Y), MorphismComplex(HomMorphism(X, Y, P_inv))]
    return out


def dense_coboundary(complex_obj):
    """The dense formula of a complex's coboundary, on full cochains."""
    if isinstance(complex_obj, MorphismComplex):
        return lambda c: dense_delta_morphism(complex_obj.phi, c)
    X = complex_obj.algebra
    if X.kind == ASSOCIATIVE:
        return lambda f: dense_delta_hom(X, mult(X), mult(X), X.dim, f)
    return lambda f: dense_delta_lie(X, mult(X), X.dim, f)


def test_operators_with_denominators_match_the_differential_matrix():
    rng = random.Random(91)
    for complex_obj in denominator_complexes():
        for n in (1, 2):
            op, second = complex_obj.operator(n), complex_obj.operator(n + 1)
            space, image_space = (complex_obj.bound_space(n),
                                  complex_obj.bound_space(n + 1))
            matrix = differential_matrix(space, image_space,
                                         dense_coboundary(complex_obj))
            coeffs = {j: Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 7)))
                      for j in range(space.dim)}
            x = lincomb(coeffs, canonical_coords(space))
            assert len({v.denominator for v in x.values()}) > 1
            image = combine(image_space, sparse_vector(
                matrix.matvec(dense_vector(coeffs, space.dim))))
            assert apply_operator(op, combine(space, coeffs)) == image
            for j, f in enumerate(space.basis):
                assert apply_operator(op, f) == combine(
                    image_space, sparse_vector(matrix.column(j))), \
                    (complex_obj.flavor, n)
            assert not second.apply(op.apply(x)), (complex_obj.flavor, n)
            b = op.apply(x)
            assert op.apply(solve(operator_matrix(op), b)) == b
            assert solve(operator_matrix(op), b,
                         complex_obj.compatibility_echelon(n)) is not None


def fraction_calls(compile_all) -> set:
    """The names of the functions of ``fractions`` that compile_all calls."""
    profile = cProfile.Profile()
    profile.runcall(compile_all)
    return {name for (path, _, name) in pstats.Stats(profile).stats
            if path.endswith("fractions.py")}


def test_operators_hold_integer_rows_over_one_denominator():
    heis, a3 = fixtures.heisenberg(), fixtures.assoc3(1, 2)
    integral = [ModuleComplex(heis), ModuleComplex(a3),
                ModuleComplex(heis, self_module(heis)),
                MorphismComplex(fixtures.phi_assoc())]
    for complex_obj in integral + denominator_complexes():
        for n in (1, 2, 3):
            op = complex_obj.operator(n)
            # a sparse matrix with the coordinates of its columns and rows
            assert type(op) is SparseMatrix
            assert (op.rows, op.cols) == (len(op.data), op.source.dim)
            assert op.rows == op.target.dim
            assert all(type(c) is int and c for row in op.data
                       for c in row.values())
            if complex_obj in integral:
                assert op.den == 1, (complex_obj.flavor, n)
            elif n > 1:  # a bracket term has n - 1 factors of the twist
                assert op.den > 1, (complex_obj.flavor, n)
    # compiling from integer constants makes no Fraction at all
    fresh = [ModuleComplex(fixtures.heisenberg()),
             ModuleComplex(fixtures.assoc3(1, 2))]
    compile_all = lambda: [c.operator(n) for c in fresh for n in (1, 2, 3)]
    assert fraction_calls(compile_all) <= {"numerator", "denominator",
                                           "__bool__"}


def test_values_leave_the_integer_layer_as_fractions():
    complexes = [ModuleComplex(fixtures.heisenberg()),
                 ModuleComplex(fixtures.assoc3(1, 2)),
                 MorphismComplex(fixtures.phi_assoc())]
    for complex_obj in complexes + denominator_complexes():
        summary = compute_cohomology(complex_obj, [1, 2])
        for n in (1, 2):
            op = complex_obj.operator(n)
            for x in complex_obj.bound_space(n).coords + ({0: 1},):
                assert all(type(v) is Fraction for v in op.apply(x).values())
            rec = summary.record(n)
            for f in rec.representatives + rec.cocycle_basis:
                parts = ((f.comp_A, f.comp_B, f.comp_AB)
                         if isinstance(f, MorphismCochain) else (f,))
                assert all(type(v) is Fraction
                           for m in parts for v in dense_coeffs(m))


def test_coboundaries_compile_at_arity_zero():
    """n = 0 compiles with alpha^0 (alpha^-1 once gave a float
    denominator) and matches the dense formulas on 0-cochains."""
    rng = random.Random(9)
    for X in assoc_algebras() + lie_algebras():
        M = self_module(X)
        op = (hom_delta(X, M.left, M.right, X.dim, 0)
              if X.kind == ASSOCIATIVE else lie_operator(X, X.dim, 0, M.left))
        f = MultilinearMap.constant(X.dim, [Fraction(rng.randint(-3, 3), 2)
                                            for _ in range(X.dim)])
        dense_delta = (dense_delta_hom(X, mult(X), mult(X), X.dim, f)
                       if X.kind == ASSOCIATIVE else
                       dense_delta_lie(X, mult(X), X.dim, f))
        assert apply_operator(op, f) == dense_delta, X.name


def halved(X: HomAlgebra) -> HomAlgebra:
    """X with its product halved: integer constants over denominator 2."""
    mul = [[[Fraction(c) / 2 for c in v] for v in row] for row in X.mul]
    return HomAlgebra(f"{X.name}/2", X.kind, X.dim, mul, X.alpha)


def test_degree_zero_images_match_the_dense_formula():
    """The compiled arity-0 coboundary of the 0-cochains that beta fixes,
    against the written-out loop, on self and adjoint modules of both
    kinds, actions with denominators among them."""
    modules = [self_module(fixtures.assoc3(1, 1)),
               self_module(fixtures.assoc2()),
               self_module(halved(fixtures.assoc3(1, 1))),
               adjoint_module(fixtures.phi_assoc()),
               self_module(fixtures.heisenberg()),
               self_module(halved(fixtures.heisenberg())),
               self_module(fixtures.lie4a(1, 1, 1, 1)),
               adjoint_module(fixtures.phi12_1()), self_module(non_skew_lie())]
    counts, dens = [], []
    for M in modules:
        complex_obj = ModuleComplex(M.algebra, M)
        op, images = complex_obj.operator(0), complex_obj.degree_zero_images()
        fixed = nullspace_basis(
            matrix_sum(M.beta, Matrix.identity(M.carrier_dim), -1))
        expected = dense_degree_zero_images(M)
        assert len(images) == len(fixed) == len(expected)
        for m, image, want in zip(fixed, images, expected):
            den = op.den * lcm(*(x.denominator for x in m.values()))
            assert op.target.to_full({k: Fraction(v, den)
                                      for k, v in image.items()}) == want
        counts.append(len(images))
        dens.append(op.den)
    assert counts[1] == 1  # assoc2: beta fixes one line
    assert dens[2] == dens[5] == 2 and all(counts)


def sparse_algebra(name: str, kind: str, dim: int, entries: dict):
    """The algebra with identity twist whose nonzero products are
    {(i, j): {k: c}}."""
    mul = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), v in entries.items():
        for k, c in v.items():
            mul[i][j][k] = c
    return HomAlgebra(name, kind, dim, mul, Matrix.identity(dim))


def broken_jacobi_lie() -> HomAlgebra:
    """A skew bracket with identity twist that fails the Jacobi identity:
    its coboundaries escape the cocycles at degree 3."""
    return sparse_algebra("broken_jacobi", LIE, 4, {
        (0, 1): {2: 1}, (1, 0): {2: -1}, (1, 2): {3: 1}, (2, 1): {3: -1},
        (0, 2): {0: 1}, (2, 0): {0: -1}})


def test_representatives_match_the_dense_greedy_quotient():
    """dim B, the cocycle basis and the representatives against a greedy
    choice over [B | Z] on dense coefficient tuples: on the escape path
    (g2, invalid_assoc2 and three invalid inputs where B ∩ Z is neither 0
    nor B), on the non-skew path, at degree 1 with the arity-0
    coboundary, and on the path that reads B from the rows of the
    operator below, which has no compatibility row there (heisenberg,
    dual_numbers, and broken_jacobi, a skew bracket with identity twist
    that escapes)."""
    broken_assoc = sparse_algebra("broken_assoc", ASSOCIATIVE, 3, {
        (1, 0): {0: -1}, (2, 2): {1: 1}})
    broken_lie = sparse_algebra("broken_lie", LIE, 4, {  # not skew either
        (0, 2): {0: -1}, (1, 3): {0: -2}, (3, 1): {0: 2}})
    broken_jacobi = broken_jacobi_lie()
    rows_below = [(fixtures.heisenberg(), (2, 3)),
                  (fixtures.dual_numbers(), (2, 3)), (broken_jacobi, (2, 3))]
    cases = [(fixtures.g2(), (1, 2)), (fixtures.invalid_assoc2(), (1, 2, 3)),
             (non_skew_lie(), (1, 2, 3)), (broken_assoc, (1, 2)),
             (broken_lie, (2, 3))] + rows_below
    partial = 0
    for X, degrees in cases:
        assoc = X.kind == ASSOCIATIVE
        for n in degrees:
            complex_obj = ModuleComplex(X)
            summary = compute_cohomology(complex_obj, [n],
                                         include_degree_zero=True)
            rec, op = summary.record(n), complex_obj.operator(n)
            if any(X is Y for Y, _ in rows_below):
                assert complex_obj.compatibility_echelon(n - 1) == ()
                assert complex_obj.operator(n - 1).target == op.source
            rows = list(op.data) + ([] if assoc else compatibility_rows(
                True, X, X.dim, complex_obj.module.beta_rows, n))
            system = SparseMatrix(len(rows), op.source.dim, rows, op.den)
            z = tuple(op.source.to_full(sparse_vector(v))
                      for v in dense_nullspace(dense(system)))
            b = [dense_delta_hom(X, mult(X), mult(X), X.dim, g) if assoc
                 else dense_delta_lie(X, mult(X), X.dim, g)
                 for g in complex_obj.bound_space(n - 1).basis] if n > 1 \
                else dense_degree_zero_images(self_module(X))
            dim_b, reps = dense_quotient(b, z)
            assert rec.cocycle_basis == z, (X.name, n)
            assert (rec.dim_coboundaries, rec.representatives) == \
                (dim_b, tuple(reps)), (X.name, n)
            partial += 0 < dim_b and any("escape" in w
                                         for w in summary.warnings)
    assert partial >= 3


def test_the_escape_path_keeps_images_in_their_own_coordinates(monkeypatch):
    """broken_jacobi escapes at degree 3, where its coboundaries are the
    columns of the operator below, in the coordinates of the cocycles: so
    no vector is converted to a multilinear map and back (no
    ``Coords.project`` call)."""
    projected, real = [], Coords.project
    monkeypatch.setattr(Coords, "project", lambda self, m: projected.append(m)
                        or real(self, m))
    complex_obj = ModuleComplex(broken_jacobi_lie())
    summary = compute_cohomology(complex_obj, [3])
    assert complex_obj.operator(2).target == complex_obj.operator(3).source
    assert any("escape" in w for w in summary.warnings)
    assert summary.record(3).dim_coboundaries > 0
    assert projected == []


def heisenberg_lie(k: int) -> HomAlgebra:
    """The (2k+1)-dimensional Heisenberg Lie algebra [x_i, y_i] = z, with
    identity twist (basis x_1..x_k, y_1..y_k, z)."""
    n = 2 * k + 1
    mul = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(k):
        mul[i][k + i][n - 1], mul[k + i][i][n - 1] = 1, -1
    return HomAlgebra(f"heis{n}", LIE, n, mul, Matrix.identity(n))


def shortcut_modules():
    """Modules on which each compiler shortcut fires: identity twists;
    heis7 Yau-twisted by diag(1, 2, 4, 4, 2, 1, 4), where some
    compatibility rows cancel and some stay; a diagonal twist with zeros
    (g1_0_1); a non-diagonal twist (l4a); and scalar twists with a
    non-diagonal beta (adjoint modules of both kinds)."""
    diag = [[int(i == j) * c for j, c in enumerate((1, 2, 4, 4, 2, 1, 4))]
            for i in range(7)]
    heis7 = yau_twist(heisenberg_lie(3), Matrix.from_rows(diag))
    into_l4a = HomMorphism(fixtures.g1(2, 2), fixtures.lie4a(1, 1, 1, 1),
                           Matrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0],
                                             [0, 0, 0]]))
    return [self_module(heisenberg_lie(2)), self_module(heis7),
            self_module(fixtures.g1(0, 1)),
            self_module(fixtures.lie4a(1, 1, 1, 1)),
            self_module(fixtures.dual_numbers()),
            self_module(fixtures.assoc3(1, 2)),
            adjoint_module(fixtures.phi_assoc()), adjoint_module(into_l4a)]


def compatible_dim(system, alpha: Matrix, beta: Matrix) -> int:
    """dim {f : beta∘f = f∘alpha^(tensor k)} over the cochains of system:
    its dimension less the rank of that defect, evaluated densely on each
    argument tuple of the system for each unit coordinate vector."""
    cols = [alpha.column(j) for j in range(alpha.cols)]
    defects = []
    for i in range(system.dim):
        f = dense_to_full(system, [Fraction(int(j == i))
                                   for j in range(system.dim)])
        defects.append([x - y for t in system.tuples for x, y in zip(
            beta.matvec(f.value_on_basis(t)),
            evaluate(f, [cols[j] for j in t]))])
    return system.dim - bareiss_rank(Matrix.from_rows(defects))


def test_compatibility_rows_have_the_compatible_maps_as_kernel():
    """The kernel of ``compatibility_rows`` is the set of maps
    ``is_compatible`` accepts, on every shortcut module up to arity 3 (2
    for heis7): each kernel vector is accepted, and there are as many as
    the dense defect leaves."""
    kept = {}
    for M in shortcut_modules():
        A, d = M.algebra, M.carrier_dim
        reduced = A.kind == LIE
        for k in (1, 2, 3) if A.dim < 7 else (1, 2):
            system = Coords(k, A.dim, d, reduced)
            rows = compatibility_rows(reduced, A, d, M.beta_rows, k)
            kernel = nullspace_basis(SparseMatrix(len(rows), system.dim,
                                                  tuple(rows)))
            assert all(is_compatible(system.to_full(v), A.alpha, M.beta)
                       for v in kernel), (A.name, k)
            assert len(kernel) == compatible_dim(system, A.alpha, M.beta)
            kept[A.name, d, k] = (len(rows), system.dim)
    assert kept["heis5", 5, 1] == (0, 25) and kept["heis5", 5, 3] == (0, 50)
    assert 0 < kept["heis7_twisted", 7, 2][0] < 147  # some rows cancel


def random_module(rng, kind: str) -> Module:
    """A module of random constants over a random algebra of the given
    kind: a twist that is not diagonal, for the Lie kind a bracket that is
    skew only half the time, and actions of small values (three in eight
    of them zero), mirrored on the right a third of the time, so that
    terms cancel."""
    n, d = rng.randint(2, 3), rng.randint(1, 3)
    value = lambda: rng.choice((0, 0, 0, 1, -1, 1, 2, Fraction(1, 2)))
    mul = [[[value() for _ in range(n)] for _ in range(n)] for _ in range(n)]
    if kind == LIE and rng.random() < 0.5:
        for i in range(n):
            mul[i][i] = [0] * n
            for j in range(i):
                mul[i][j] = [-x for x in mul[j][i]]
    alpha = [[value() for _ in range(n)] for _ in range(n)]
    alpha[1][0] = alpha[1][0] or 1
    A = HomAlgebra("random", kind, n, mul, Matrix.from_rows(alpha))

    def action(key):
        return integral({key(a, q): v for a in range(n) for q in range(d)
                         if (v := {r: x for r in range(d)
                                   if (x := value())})})

    left = action(lambda a, q: (a, q))
    right = None if kind == LIE else (
        ({(q, a): v for (a, q), v in left[0].items()}, left[1])
        if rng.random() < 1 / 3 else action(lambda a, q: (q, a)))
    return Module(A, d, Matrix.identity(d), left, right)


def test_compiled_operators_match_the_dense_formulas_where_shortcuts_fire():
    """``lie_operator`` and ``hom_operator`` (through each module
    complex's coboundary) against the dense formulas on the shortcut
    modules, up to arity 2: zero brackets and products, shared remaining
    tuples, and actions that reach only some output coordinates; and on
    seeded random modules of both kinds, up to arity 3 (2 in dimension
    3), with non-diagonal twists, brackets that are not skew (images in
    full coordinates) and actions whose terms cancel.  No compiled row
    holds a zero entry."""
    rng = random.Random(19)
    modules = shortcut_modules() + [
        random_module(rng, kind) for kind in (ASSOCIATIVE, LIE) * 20]
    full = 0
    for M in modules:
        A, d = M.algebra, M.carrier_dim
        complex_obj = ModuleComplex(A, M)
        for k in (1, 2, 3) if (A.name, A.dim) == ("random", 2) else (1, 2):
            if A.kind == LIE:
                f = rand_alternating(rng, k, A.dim, d)
                want = dense_delta_lie(A, dense_action(M.left, d), d, f)
            else:
                f = rand_map(rng, k, A.dim, d)
                want = dense_delta_hom(A, dense_action(M.left, d),
                                       dense_action(M.right, d), d, f)
            assert complex_obj.delta(f) == want, (A.name, d, k)
            op = complex_obj.operator(k)
            assert all(all(row.values()) for row in op.data), (A.name, d, k)
            full += A.kind == LIE and not op.target.reduced
    assert full > 10


def count_expansions(monkeypatch) -> list:
    """The argument lists of every ``expand_product`` call that the
    compilers and ``compatibility_rows`` make from now on."""
    calls, real = [], cochain.expand_product

    def counted(args):
        calls.append(args)
        return real(args)

    for module in (cochain, operator):
        monkeypatch.setattr(module, "expand_product", counted)
    return calls


def test_heisenberg5_compiles_from_its_nonzero_constants(monkeypatch):
    """Under the identity twist every compatibility row cancels, so none is
    built and nothing is expanded; ``lie_operator`` at n = 2 expands alpha
    at most once per distinct remaining tuple of a nonzero bracket (5 of
    them, against 30 pairs of a target tuple and two of its places)."""
    H = heisenberg_lie(2)
    calls = count_expansions(monkeypatch)
    for k in (1, 2, 3):
        assert compatibility_rows(True, H, 5,
                                  self_module(H).beta_rows, k) == []
    assert calls == []
    (mul, _), places = H.integral[1], [(0, 1), (0, 2), (1, 2)]
    rests = {tuple(b for p, b in enumerate(t) if p not in (i, j))
             for t in Coords(3, 5, 5, True).tuples for i, j in places
             if mul.get((t[i], t[j]))}
    op = lie_operator(H, 5, 2, self_module(H).left)
    assert len(rests) == 5 and 0 < len(calls) <= len(rests)
    assert sum(map(len, op.data)) == 44


def test_heisenberg5_sorts_each_out_of_order_landing_once(monkeypatch):
    """From empty landing tables, compiling delta_1, delta_2 and delta_3 of
    heis5 in itself sorts only argument tuples led by z ([x_i, y_i] = z is
    inserted before the remaining increasing arguments), each once.  A
    second compile, on a fresh complex of the same shapes, reads every
    landing from the tables: it sorts nothing and locates nothing."""
    H = heisenberg_lie(2)
    sorted_tuples, located = [], []
    real_sort, real_locate = cochain._sort_sign, Coords.locate
    monkeypatch.setattr(cochain, "_sort_sign",
                        lambda t: sorted_tuples.append(t) or real_sort(t))
    monkeypatch.setattr(Coords, "locate", lambda self, t: located.append(t)
                        or real_locate(self, t))
    cochain.coords.cache_clear()
    for first in (True, False):
        sorted_tuples.clear()
        located.clear()
        complex_obj = ModuleComplex(H)
        for n in (1, 2, 3):
            complex_obj.operator(n)
        if first:
            assert sorted_tuples
            assert all(t[0] == 4 and list(t[1:]) == sorted(t[1:])
                       for t in sorted_tuples)
            assert len(set(sorted_tuples)) == len(sorted_tuples)
        else:
            assert sorted_tuples == located == []


def table_algebras() -> list[HomAlgebra]:
    """Every built-in algebra (l4a has a twist that is not scalar), heis5,
    heis7, and a bracket that is not skew (reduced source, full target)."""
    return [make() for make in fixtures.BUILTIN_FIXTURES.values()] + \
        [heisenberg_lie(2), heisenberg_lie(3), non_skew_lie()]


def test_landing_tables_compile_the_dense_coboundaries():
    """Each coboundary of degree 1..3 of each table algebra in itself,
    compiled from landing tables filled from empty, agrees with the dense
    formula on a seeded random cochain."""
    rng = random.Random(35)
    shapes = set()
    for X in table_algebras():
        cochain.coords.cache_clear()
        complex_obj = ModuleComplex(X)
        for k in (1, 2, 3):
            op = complex_obj.operator(k)
            shapes.add((op.source.reduced, op.target.reduced,
                        len(X.scalar_twist) == X.dim))
            if X.kind == LIE:
                f = rand_alternating(rng, k, X.dim, X.dim)
                want = dense_delta_lie(X, mult(X), X.dim, f)
            else:
                f = rand_map(rng, k, X.dim, X.dim)
                want = dense_delta_hom(X, mult(X), mult(X), X.dim, f)
            assert apply_operator(op, f) == want, (X.name, k)
    assert {(True, False, False), (True, True, False), (True, True, True),
            (False, False, True)} <= shapes


def test_compile_order_does_not_change_an_operator():
    """delta_1, delta_2, delta_3 compiled upwards and downwards, each from
    empty landing tables, are equal matrices."""
    for X in table_algebras():
        ops = []
        for order in ((1, 2, 3), (3, 2, 1)):
            cochain.coords.cache_clear()
            complex_obj = ModuleComplex(X)
            ops.append({n: complex_obj.operator(n) for n in order})
        assert ops[0] == ops[1], X.name


# Coords.locate calls of a cold compile of delta_1..delta_3 in itself, as
# the compiler that located the tuple of every term made them
TERM_BY_TERM_LOCATES = {"heis5": 70, "assoc3(a=1,b=2)": 472}


def test_a_cold_compile_locates_no_more_than_term_by_term(monkeypatch):
    """Filling the landing tables from empty locates no more tuples than
    locating the tuple of every term did: the faces of a shape are read
    from its index, and each insertion is located once."""
    located, real = [], Coords.locate
    monkeypatch.setattr(Coords, "locate", lambda self, t: located.append(t)
                        or real(self, t))
    counts = {}
    for X in (heisenberg_lie(2), fixtures.assoc3(1, 2)):
        cochain.coords.cache_clear()
        located.clear()
        complex_obj = ModuleComplex(X)
        for n in (1, 2, 3):
            complex_obj.operator(n)
        counts[X.name] = len(located)
    assert all(counts[name] <= pinned
               for name, pinned in TERM_BY_TERM_LOCATES.items()), counts


def test_a_kept_action_table_is_read_only_through_its_own_twist():
    """An action keeps one table per exponent and side, for the twist power
    it was built from: compiled through another algebra's twist, the
    action builds the table again, so every operator equals the one
    compiled from a fresh action."""
    A = fixtures.lie4a(1, 1, 1, 1)
    B = HomAlgebra("plain", LIE, A.dim, A.mul, Matrix.identity(A.dim))
    kept = A.self_action
    for X in (A, B, A):
        for n in (1, 2, 3):
            fresh = Action(tuple(kept))
            assert lie_operator(X, 4, n, kept).data == \
                lie_operator(X, 4, n, fresh).data, (X.name, n)
    assert Action(kept) is kept
    assert kept.table(A, 1, 4) == kept.table(A, 1, 4)
    assert kept.table(A, 1, 4)[0] is kept.table(A, 1, 4)[0]
