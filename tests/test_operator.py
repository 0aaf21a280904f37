"""The compiled sparse coboundary operators against the dense formulas in
``helpers.py``, on seeded random cochains, plus the algebraic checks every
compiled operator must pass: delta squared vanishes and ranks agree with
fraction-free elimination."""

import random
from fractions import Fraction

import pytest

from helpers import (bareiss_rank, dense, dense_d_component, dense_delta_hom,
                     dense_delta_lie, dense_delta_morphism,
                     dense_derivation_D_assoc, dense_derivation_D_lie,
                     row_apply)
from homcoh import fixtures
from homcoh.algebra import ASSOCIATIVE, LIE, HomAlgebra, multiply
from homcoh.bracket import derivation_D_assoc, derivation_D_lie
from homcoh.cochain import (MorphismCochain, MultilinearMap, alternator,
                            lie_cochain_basis)
from homcoh.cohomology import (HomSelfComplex, LieSelfComplex,
                               ModuleComplex, MorphismComplex,
                               compute_cohomology,
                               d_component, delta_hom_bimodule,
                               delta_hom_self, delta_lie_module,
                               delta_lie_self, delta_morphism)
from homcoh.errors import UsageError
from homcoh.exact import (Matrix, SparseMatrix, column_rank,
                          independent_subset, intersection_basis, lincomb,
                          nullspace_basis, rref)
from homcoh.operator import lie_operator, solve_coboundary
from homcoh.rep import (HomMorphism, adjoint_bimodule, lie_adjoint_module,
                        self_bimodule, self_lie_module)
from homcoh.selftest import _conjugate, _rand_invertible, random_valid_hom_algebra


def rand_map(rng, arity, sd, td):
    return MultilinearMap(arity, sd, td, tuple(
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
            assert delta_hom_self(A, f) == dense_delta_hom(
                A, mult(A), mult(A), A.dim, f), (A.name, k)


def test_delta_hom_bimodule_matches_dense_formula():
    rng = random.Random(2)
    phi = fixtures.phi_assoc()
    for M in (adjoint_bimodule(phi), self_bimodule(phi.source),
              self_bimodule(fixtures.invalid_assoc2())):
        A = M.algebra
        for k in (1, 2, 3):
            f = rand_map(rng, k, A.dim, M.carrier_dim)
            assert delta_hom_bimodule(A, M, f) == dense_delta_hom(
                A, M.left, M.right, M.carrier_dim, f)


def test_delta_lie_self_matches_dense_formula():
    rng = random.Random(3)
    for L in lie_algebras():
        for k in (1, 2, 3):
            f = rand_alternating(rng, k, L.dim, L.dim)
            assert delta_lie_self(L, f) == dense_delta_lie(
                L, mult(L), L.dim, f), (L.name, k)


def test_delta_lie_module_matches_dense_formula():
    rng = random.Random(4)
    modules = [lie_adjoint_module(fixtures.phi12_1(), strict=False),
               lie_adjoint_module(fixtures.phi12_2(), strict=False),
               self_lie_module(fixtures.lie4a(1, 1, 1, 1)),
               self_lie_module(non_skew_lie())]
    for P in modules:
        L = P.algebra
        for k in (1, 2, 3):
            f = rand_alternating(rng, k, L.dim, P.carrier_dim)
            assert delta_lie_module(L, P, f) == dense_delta_lie(
                L, P.act, P.carrier_dim, f)


@pytest.mark.parametrize("name, flavor", [
    ("phi_assoc", "hom"), ("phi12_1", "lie"), ("phi12_2", "lie"),
    ("id_g1", "lie")])
def test_delta_morphism_matches_dense_formula(name, flavor):
    rng = random.Random(5)
    if name == "id_g1":
        G = fixtures.g1(2, 3)
        phi = HomMorphism(G, G, Matrix.identity(3))
    else:
        phi = fixtures.builtin_morphism(name)
    A, B = phi.source, phi.target
    make = rand_map if flavor == "hom" else rand_alternating
    for n in (1, 2, 3):
        c = MorphismCochain(make(rng, n, A.dim, A.dim),
                            make(rng, n, B.dim, B.dim),
                            make(rng, n - 1, A.dim, B.dim))
        assert delta_morphism(phi, c, flavor) == dense_delta_morphism(
            phi, c, flavor)


def test_faces_and_derivations_match_dense_formulas():
    rng = random.Random(6)
    phi = fixtures.phi_assoc()
    for M in (self_bimodule(phi.source), adjoint_bimodule(phi)):
        A = M.algebra
        for k in (1, 2, 3):
            f = rand_map(rng, k, A.dim, M.carrier_dim)
            for i in range(k + 1):
                assert d_component(A, M, i, f) == dense_d_component(A, M, i, f)
    for A in assoc_algebras()[:3]:
        for k in (0, 1, 2, 3):
            f = rand_map(rng, k, A.dim, 2)
            assert derivation_D_assoc(A, f) == dense_derivation_D_assoc(A, f)
    for L in lie_algebras()[:4] + [non_skew_lie()]:
        for k in (0, 1, 2, 3):
            f = rand_map(rng, k, L.dim, 2)  # need not be alternating
            assert derivation_D_lie(L, f) == dense_derivation_D_lie(L, f)


def valid_complexes():
    rng = random.Random(7)
    phi = fixtures.phi_assoc()
    G = fixtures.g1(2, 3)
    out = [HomSelfComplex(fixtures.assoc3(1, 2)),
           HomSelfComplex(fixtures.assoc2()),
           ModuleComplex(phi.source, adjoint_bimodule(phi)),
           LieSelfComplex(fixtures.lie4a(1, 1, 1, 1)),
           LieSelfComplex(G),
           ModuleComplex(G, self_lie_module(G)),
           MorphismComplex(phi, "hom"),
           MorphismComplex(HomMorphism(G, G, Matrix.identity(3)), "lie")]
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
                assert not any(second.apply(first.apply(v))), \
                    (complex_obj.flavor, n)


def operator_kinds():
    """One complex per operator kind: (name, complex)."""
    phi, psi = fixtures.phi_assoc(), fixtures.builtin_morphism("phi12_1")
    return [("hom self", HomSelfComplex(fixtures.assoc3(1, 2))),
            ("bimodule", ModuleComplex(phi.source, adjoint_bimodule(phi))),
            ("lie self", LieSelfComplex(fixtures.lie4a(1, 1, 1, 1))),
            ("lie module", ModuleComplex(
                psi.source, lie_adjoint_module(psi, strict=False))),
            ("non-skew", LieSelfComplex(non_skew_lie())),
            ("morphism hom", MorphismComplex(phi, "hom")),
            ("morphism lie", MorphismComplex(psi, "lie"))]


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
                assert op.apply(x) == row_apply(op, x), (name, n)
            m = op.sparse_matrix(dense_vectors)
            assert m == SparseMatrix.from_columns(
                [row_apply(op, x) for x in dense_vectors], len(op.rows))
        if name == "non-skew":
            assert not op.target.reduced and op.source.reduced
    with pytest.raises(UsageError, match="coordinates"):
        op.apply((Fraction(1),) * (op.source.dim + 1))


def test_cocycle_basis_is_built_on_first_read():
    for name, complex_obj in operator_kinds():
        summary = compute_cohomology(complex_obj, [1, 2])
        for n in (1, 2):
            op, coords = complex_obj.operator(n), complex_obj.cocycle_coords(n)
            if coords is None:
                z = nullspace_basis(op.sparse_matrix())
            else:
                z = [lincomb(k, coords, op.source.dim)
                     for k in nullspace_basis(op.sparse_matrix(coords))]
            eager = tuple(op.source.to_full(v) for v in z)
            rec = summary.record(n)
            assert "cocycle_basis" not in vars(rec)
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
            coords = complex_obj.cocycle_coords(n)
            m = op.sparse_matrix(coords)
            rank = bareiss_rank(dense(m))
            assert rank == rref(m).rank
            rec = summary.record(n)
            assert rank == rec.dim_cochains - rec.dim_cocycles


def dense_dims(space_n, space_prev, delta):
    """(dim C, dim Z, dim B) of one degree, computed on full tensors with
    the dense coboundary."""
    images = [delta(f).coeffs for f in space_n.basis]
    kernel = nullspace_basis(Matrix.from_columns(images)) if images else []
    z = [space_n.combine(k).coeffs for k in kernel]
    b_all = [delta(g).coeffs for g in space_prev.basis]
    b = [b_all[i] for i in independent_subset(b_all)]
    if b and column_rank(b + z) != len(z):
        b = intersection_basis(b, z)
    return space_n.dim, len(z), len(b)


def test_non_skew_bracket_keeps_full_images():
    L = non_skew_lie()
    f = rand_alternating(random.Random(8), 2, 3, 3)
    image = delta_lie_self(L, f)
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
        delta_lie_self(heis, bad)
    with pytest.raises(UsageError):
        delta_lie_module(heis, self_lie_module(heis), bad)
    with pytest.raises(UsageError):
        LieSelfComplex(heis).delta(bad)
    G = fixtures.g1(2, 3)
    c = MorphismCochain(bad, MultilinearMap.zero(2, 3, 3),
                        MultilinearMap.zero(1, 3, 3))
    with pytest.raises(UsageError):
        delta_morphism(HomMorphism(G, G, Matrix.identity(3)), c, "lie")


def test_non_alternating_target_is_not_a_coboundary():
    L = fixtures.heisenberg()
    space = lie_cochain_basis(L, 3, L.alpha, 2)
    op = lie_operator(L, 3, 2, L.mul)
    target = delta_lie_self(L, space.basis[0])
    assert solve_coboundary(op, space.coords, target) is not None
    skewed = MultilinearMap(3, 3, 3, target.coeffs[:-1] + (Fraction(1),))
    assert solve_coboundary(op, space.coords, skewed) is None


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
