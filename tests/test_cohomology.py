import contextlib
import hashlib
import io
import json
import random
import sys
import tracemalloc
from fractions import Fraction
from functools import cached_property
from itertools import product

import pytest

from helpers import (ImageOutsideCodomain, basis_vector, coboundary_vectors,
                     combine, compatible_morphism_complex, compatible_parts,
                     dense_coeffs, dense_map, differential_matrix, evaluate,
                     exact_sequence_dimension, hom_cochain_basis, in_span,
                     lie_cochain_basis, matrix_is_zero, multiply, span_rank)
from homcoh import (algebra, cli, cochain, cohomology, exact, fixtures,
                    operator)
from homcoh.algebra import ASSOCIATIVE, LIE, HomAlgebra, yau_twist
from homcoh.cochain import (Coords, MorphismCochain, MultilinearMap,
                            is_alternating, is_compatible)
from homcoh.cohomology import (HomSelfComplex, ModuleComplex,
                               MorphismComplex, compute_cohomology,
                               connecting_complex, self_cohomology)
from homcoh.deformation import extend_deformation
from homcoh.errors import ArityLimitError, UsageError
from homcoh.files import cochain_to_json
from homcoh.exact import (Echelon, Matrix, SparseMatrix, echelon,
                          integer_kernel, pivot_columns, sparse_vector)
from homcoh.rep import HomMorphism, adjoint_module, self_module
from homcoh.selftest import _assoc_family, _lie_family


def vec(*xs):
    return tuple(Fraction(x) for x in xs)


def rand_map(rng, arity, sd, td, span=2):
    size = sd ** arity * td
    return dense_map(arity, sd, td, tuple(Fraction(rng.randint(-span, span))
                                          for _ in range(size)))


def test_delta_hom_self_spot_values():
    A = fixtures.assoc3(1, 1)
    f = MultilinearMap.from_values(1, 3, 3, {(0,): vec(1, 0, 0)})
    df = ModuleComplex(A).delta(f)
    assert df.value_on_basis((0, 0)) == vec(1, 0, 0)
    assert df.value_on_basis((0, 1)) == vec(0, 1, 0)
    assert df.value_on_basis((2, 0)) == vec(0, 0, 1)
    assert df.value_on_basis((1, 1)) == vec(0, 0, 0)


def test_delta_hom_self_matches_displayed_coboundary_family(a3):
    # the full nine-value coboundary display for the three-dimensional
    # associative fixture, with twist-compatible f and b = 2
    rng = random.Random(60)
    b = Fraction(2)
    complex_obj = ModuleComplex(a3)
    for _ in range(5):
        x1, y1, x2, y2, z3 = (Fraction(rng.randint(-3, 3)) for _ in range(5))
        f = MultilinearMap.from_values(1, 3, 3, {
            (0,): (x1, y1, 0), (1,): (x2, y2, 0), (2,): (0, 0, z3)})
        df = complex_obj.delta(f)
        assert df.value_on_basis((0, 0)) == (x1, y1, 0)
        assert df.value_on_basis((0, 1)) == (0, x1 + y1, 0)
        assert df.value_on_basis((0, 2)) == (0, 0, b * (x1 + y1))
        assert df.value_on_basis((1, 0)) == (0, x1 + y1, 0)
        assert df.value_on_basis((1, 1)) == (-x2, 2 * x2 + y2, 0)
        assert df.value_on_basis((1, 2)) == (0, 0, b * (x2 + y2))
        assert df.value_on_basis((2, 0)) == (0, 0, b * x1)
        assert df.value_on_basis((2, 1)) == (0, 0, b * x2)
        assert df.value_on_basis((2, 2)) == (0, 0, 0)


def test_displayed_cocycle_family_spans_computed_cocycles(a3):
    # the four-parameter 2-cocycle family of the associative fixture,
    # instantiated at b = 2, must consist of cocycles lying in the span of
    # the computed cocycle basis, and the dimensions must agree
    rng = random.Random(65)
    b = Fraction(2)
    summary = self_cohomology(a3, [2])
    rec = summary.record(2)
    assert rec.dim_cocycles == 4
    z_cols = [sparse_vector(dense_coeffs(z)) for z in rec.cocycle_basis]
    complex_obj = ModuleComplex(a3)
    for _ in range(5):
        x1, x2, x3, x4 = (Fraction(rng.randint(-3, 3)) for _ in range(4))
        psi = MultilinearMap.from_values(2, 3, 3, {
            (0, 0): (x1, x2 / b - x1, 0),
            (1, 0): (0, x2 / b, 0),
            (2, 0): (0, 0, b * x1),
            (0, 1): (0, x2 / b, 0),
            (1, 1): (x3, x4, 0),
            (2, 1): (0, 0, -b * x3),
            (0, 2): (0, 0, x2),
            (1, 2): (0, 0, b * (x3 + x4)),
        })
        assert complex_obj.delta(psi).is_zero()
        assert in_span(z_cols, sparse_vector(dense_coeffs(psi))) is not None


def test_delta_hom_self_zero_and_rejects_arity_zero(a3):
    assert ModuleComplex(a3).delta(MultilinearMap.zero(2, 3, 3)).is_zero()
    with pytest.raises(UsageError):
        ModuleComplex(a3).delta(MultilinearMap.constant(3, vec(1, 0, 0)))


def test_delta_hom_self_degree_one_formula(b2):
    f = MultilinearMap.from_values(1, 2, 2, {(0,): vec(0, 1)})
    df = ModuleComplex(b2).delta(f)
    assert df.value_on_basis((0, 0)) == vec(0, 1)


def test_delta_bimodule_self_coincides(a3):
    rng = random.Random(61)
    bimodule = ModuleComplex(a3, self_module(a3))
    self_complex = ModuleComplex(a3)
    for _ in range(10):
        f = rand_map(rng, rng.choice([1, 2]), 3, 3)
        assert bimodule.delta(f) == self_complex.delta(f)


def test_delta_bimodule_adjoint_spot_value(phi):
    complex_obj = ModuleComplex(phi.source, adjoint_module(phi))
    f = MultilinearMap.from_values(1, 3, 2, {(0,): vec(1, 0)})
    df = complex_obj.delta(f)
    assert df.value_on_basis((0, 0)) == vec(1, -2)
    assert complex_obj.delta(MultilinearMap.zero(1, 3, 2)).is_zero()


def test_delta_lie_self_classical_value(heis):
    f = MultilinearMap.from_values(1, 3, 3, {(2,): vec(0, 0, 1)})
    df = ModuleComplex(heis).delta(f)
    assert df.value_on_basis((0, 1)) == vec(0, 0, -1)
    assert ModuleComplex(heis).delta(MultilinearMap.zero(2, 3, 3)).is_zero()


def test_delta_lie_self_kills_compatible_cocycle_family():
    G = fixtures.g1(2, 3)
    psi = MultilinearMap.from_values(
        2, 3, 3, {(0, 1): vec(0, 0, 1), (1, 0): vec(0, 0, -1)})
    assert ModuleComplex(G).delta(psi).is_zero()


def test_delta_lie_rejects_non_alternating(heis):
    bad = MultilinearMap.from_values(2, 3, 3, {(0, 1): vec(0, 0, 1)})
    with pytest.raises(UsageError):
        ModuleComplex(heis).delta(bad)


def test_delta_lie_module_specializes_to_self():
    G = fixtures.g1(2, 3)
    P = adjoint_module(HomMorphism(G, G, Matrix.identity(3)))
    rng = random.Random(62)
    from homcoh.cochain import alternator
    module, self_complex = ModuleComplex(G, P), ModuleComplex(G)
    for _ in range(8):
        f = alternator(rand_map(rng, 2, 3, 3))
        assert module.delta(f) == self_complex.delta(f)
    assert module.delta(MultilinearMap.zero(2, 3, 3)).is_zero()


def test_delta_lie_module_fixture_spot_value():
    phi2 = fixtures.phi12_2()
    P = adjoint_module(phi2)
    f = MultilinearMap.from_values(1, 3, 3, {(0,): vec(0, 1, 0)})
    df = ModuleComplex(phi2.source, P).delta(f)
    assert df.value_on_basis((0, 1)) == vec(0, 0, 0)


def test_delta_morphism_zero_and_commuting_cocycles(phi):
    zero = MorphismCochain(MultilinearMap.zero(1, 3, 3),
                           MultilinearMap.zero(1, 2, 2),
                           MultilinearMap.constant(3, vec(0, 0)))
    assert MorphismComplex(phi).delta(zero).is_zero()


def test_delta_morphism_kills_commuting_cocycle_pair(phi):
    # a source 1-cocycle whose push-forward along phi is matched by the
    # zero target cocycle: every slot of the coupled coboundary vanishes
    f = MultilinearMap.from_values(1, 3, 3, {(2,): vec(0, 0, 1)})
    assert ModuleComplex(phi.source).delta(f).is_zero()
    for j in range(3):
        assert phi.apply(f.value_on_basis((j,))) == vec(0, 0)
    c = MorphismCochain(f, MultilinearMap.zero(1, 2, 2),
                        MultilinearMap.constant(3, vec(0, 0)))
    assert MorphismComplex(phi).delta(c).is_zero()


def test_delta_hom_self_degree_one_hand_formula():
    rng = random.Random(64)
    for A in (fixtures.assoc3(1, 2), fixtures.assoc3(1, 1),
              fixtures.assoc2(), fixtures.dual_numbers()):
        f = rand_map(rng, 1, A.dim, A.dim)
        df = ModuleComplex(A).delta(f)
        for t in product(range(A.dim), repeat=2):
            x, y = (basis_vector(A.dim, i) for i in t)
            expect = tuple(
                p - q + r for p, q, r in zip(
                    multiply(A, x, evaluate(f, [y])),
                    evaluate(f, [multiply(A, x, y)]),
                    multiply(A, evaluate(f, [x]), y)))
            assert df.value_on_basis(t) == expect


def test_delta_morphism_identity_pair(phi):
    ident = MorphismCochain(
        MultilinearMap.from_matrix(Matrix.identity(3)),
        MultilinearMap.from_matrix(Matrix.identity(2)),
        MultilinearMap.constant(3, vec(0, 0)))
    image = MorphismComplex(phi).delta(ident)
    assert image.comp_AB.is_zero()
    A = phi.source
    for t in product(range(3), repeat=2):
        x, y = (basis_vector(3, i) for i in t)
        assert image.comp_A.value_on_basis(t) == multiply(A, x, y)


def test_face_operator_examples(a3):
    complex_obj = ModuleComplex(a3, self_module(a3))
    rng = random.Random(63)
    space = hom_cochain_basis(a3, 3, a3.alpha, 2)
    f = combine(space, sparse_vector([Fraction(rng.randint(-2, 2))
                                      for _ in range(space.dim)]))
    assert complex_obj.face(2, f).is_zero()
    total = MultilinearMap.zero(3, 3, 3)
    for i in range(3):
        face = complex_obj.face(i, f)
        total = total + (face if (i + 1) % 2 == 0 else face.scale(-1))
    assert total == complex_obj.delta(f)
    with pytest.raises(UsageError):
        complex_obj.face(5, f)


def test_each_face_is_compiled_once_per_index_and_arity(a3, monkeypatch):
    arities = []
    real = cohomology.hom_operator

    def counted(*args):
        arities.append(args[2])
        return real(*args)

    monkeypatch.setattr(cohomology, "hom_operator", counted)
    complex_obj = ModuleComplex(a3)
    rng = random.Random(66)
    for _ in range(3):
        for n in (1, 2):
            f = rand_map(rng, n, 3, 3)
            for i in range(n + 1):
                complex_obj.face(i, f)
    assert sorted(arities) == [1, 2, 2]  # face n of arity n is zero


def test_morphism_complex_checks_dimensions_before_compiling(phi,
                                                            monkeypatch):
    compiled = []

    def counting(name):
        real = getattr(cohomology, name)

        def counted(*args):
            compiled.append(name)
            return real(*args)
        return counted

    for name in ("hom_delta", "morphism_delta"):
        monkeypatch.setattr(cohomology, name, counting(name))
    complex_obj = MorphismComplex(phi)
    a, b = phi.source.dim, phi.target.dim
    good = (MultilinearMap.zero(1, a, a), MultilinearMap.zero(1, b, b),
            MultilinearMap.constant(a, (0,) * b))
    wrong = (MultilinearMap.zero(1, b, b), MultilinearMap.zero(1, a, a),
             MultilinearMap.constant(b, (0,) * a))
    for i, name in enumerate(("comp_A", "comp_B", "comp_AB")):
        parts = list(good)
        parts[i] = wrong[i]
        with pytest.raises(UsageError, match=f"{name} dimensions"):
            complex_obj.delta(MorphismCochain(*parts))
    assert compiled == []
    assert complex_obj.delta(MorphismCochain(*good)).is_zero()
    assert sorted(compiled) == ["hom_delta", "hom_delta", "morphism_delta"]


def test_module_complex_rejects_a_module_over_another_algebra(a3, b2, heis):
    with pytest.raises(UsageError, match="does not belong"):
        ModuleComplex(a3, self_module(b2))
    with pytest.raises(UsageError, match="does not belong"):
        ModuleComplex(heis, self_module(fixtures.g1(2, 3)))
    with pytest.raises(UsageError, match="does not belong"):
        ModuleComplex(a3, a3)
    twin = fixtures.assoc3(1, 2)  # equal to a3, built again
    assert twin is not a3
    assert ModuleComplex(a3, self_module(twin)).operator(1).data


def test_complexes_reject_cochains_of_another_kind(a3, phi, heis):
    c = MorphismCochain(MultilinearMap.zero(1, 3, 3),
                        MultilinearMap.zero(1, 2, 2),
                        MultilinearMap.constant(3, vec(0, 0)))
    with pytest.raises(UsageError, match="not MorphismCochain"):
        ModuleComplex(a3).delta(c)
    with pytest.raises(UsageError, match="not MorphismCochain"):
        ModuleComplex(a3).face(0, c)
    with pytest.raises(UsageError, match="not MultilinearMap"):
        MorphismComplex(phi).delta(MultilinearMap.zero(1, 3, 3))
    with pytest.raises(UsageError, match="do not match"):
        ModuleComplex(a3).delta(MultilinearMap.zero(1, 2, 2))
    with pytest.raises(UsageError, match="do not match"):
        ModuleComplex(phi.source, adjoint_module(phi)).face(
            0, MultilinearMap.zero(1, 3, 3))


def test_a_morphism_between_two_kinds_has_no_complex(a3, heis):
    """A morphism complex takes its kind from its algebras, which share
    one; a morphism between an associative-kind and a Lie-kind algebra is
    refused, from either end."""
    for phi in (HomMorphism(a3, heis, Matrix.identity(3)),
                HomMorphism(heis, a3, Matrix.identity(3))):
        with pytest.raises(UsageError, match="algebras of one kind"):
            MorphismComplex(phi)
    with pytest.raises(UsageError, match="associative-kind"):
        ModuleComplex(heis).face(0, MultilinearMap.zero(1, 3, 3))


def test_differential_matrix_zero_operator(a3):
    space1 = hom_cochain_basis(a3, 3, a3.alpha, 1)
    space2 = hom_cochain_basis(a3, 3, a3.alpha, 2)
    zero = lambda f: MultilinearMap.zero(2, 3, 3)
    assert matrix_is_zero(differential_matrix(space1, space2, zero))


def test_differential_matrix_square_vanishes(a3, l4a):
    s1 = hom_cochain_basis(a3, 3, a3.alpha, 1)
    s2 = hom_cochain_basis(a3, 3, a3.alpha, 2)
    s3 = hom_cochain_basis(a3, 3, a3.alpha, 3)
    delta = ModuleComplex(a3).delta
    d1 = differential_matrix(s1, s2, delta)
    d2 = differential_matrix(s2, s3, delta)
    assert matrix_is_zero(d2 @ d1)
    t1 = lie_cochain_basis(l4a, 4, l4a.alpha, 1)
    t2 = lie_cochain_basis(l4a, 4, l4a.alpha, 2)
    t3 = lie_cochain_basis(l4a, 4, l4a.alpha, 3)
    delta = ModuleComplex(l4a).delta
    e1 = differential_matrix(t1, t2, delta)
    e2 = differential_matrix(t2, t3, delta)
    assert matrix_is_zero(e2 @ e1)


def test_differential_matrix_flags_invalid_algebra(g2):
    # the invalid companion algebra must be reported, not silently accepted:
    # either an image escapes the codomain basis or the square is nonzero
    s1 = lie_cochain_basis(g2, 3, g2.alpha, 1)
    s2 = lie_cochain_basis(g2, 3, g2.alpha, 2)
    s3 = lie_cochain_basis(g2, 3, g2.alpha, 3)
    delta = ModuleComplex(g2).delta
    try:
        d1 = differential_matrix(s1, s2, delta)
        d2 = differential_matrix(s2, s3, delta)
    except ImageOutsideCodomain:
        return
    assert not matrix_is_zero(d2 @ d1)


def test_compute_cohomology_fixture_dimensions(a3, b2, l4a):
    rec = self_cohomology(a3, [2]).record(2)
    assert rec.dim_cohomology == 0
    rec = self_cohomology(b2, [2]).record(2)
    assert (rec.dim_cocycles, rec.dim_coboundaries, rec.dim_cohomology) \
        == (3, 2, 1)
    rec = self_cohomology(l4a, [2]).record(2)
    assert rec.dim_cohomology == 0


def test_compute_cohomology_degraded_path_warns(g2):
    summary = self_cohomology(g2, [2])
    assert any("delta-squared" in w or "invalid" in w for w in summary.warnings)
    rec = summary.record(2)
    assert rec.dim_cohomology == rec.dim_cocycles - rec.dim_coboundaries


def test_representatives_are_cocycles_outside_coboundaries(b2):
    complex_obj = HomSelfComplex(b2)
    summary = compute_cohomology(complex_obj, [2])
    rec = summary.record(2)
    bound = [sparse_vector(dense_coeffs(complex_obj.delta(g)))
             for g in complex_obj.bound_space(1).basis]
    for rep in rec.representatives:
        assert complex_obj.delta(rep).is_zero()
        assert in_span(bound, sparse_vector(dense_coeffs(rep))) is None
    assert rec.dim_cohomology == len(rec.representatives)


def test_compatibility_closure_of_the_operator(a3, l4a):
    hom, lie = ModuleComplex(a3), ModuleComplex(l4a)
    for k in (1, 2):
        for f in hom_cochain_basis(a3, 3, a3.alpha, k).basis:
            df = hom.delta(f)
            assert is_compatible(df, a3.alpha, a3.alpha)
        for f in lie_cochain_basis(l4a, 4, l4a.alpha, k).basis:
            df = lie.delta(f)
            assert is_compatible(df, l4a.alpha, l4a.alpha)
            assert is_alternating(df)


def test_morphism_complex_product_formula_is_reported_not_assumed(phi):
    coupled = compute_cohomology(MorphismComplex(phi), [2]).record(2)
    ha = self_cohomology(phi.source, [2]).record(2).dim_cohomology
    hb = self_cohomology(phi.target, [2]).record(2).dim_cohomology
    hab = compute_cohomology(connecting_complex(phi), [1]).record(1)
    # both numbers are computed; the comparison is data, not an assertion
    assert isinstance(coupled.dim_cohomology, int)
    assert isinstance(ha + hb + hab.dim_cohomology, int)


def test_triviality_implication_on_fixture(phi):
    # when all three component groups vanish the coupled group vanishes too
    n = 2
    ha = self_cohomology(phi.source, [n]).record(n).dim_cohomology
    hb = self_cohomology(phi.target, [n]).record(n).dim_cohomology
    hab = compute_cohomology(connecting_complex(phi),
                             [n - 1]).record(n - 1).dim_cohomology
    coupled = compute_cohomology(MorphismComplex(phi), [n]).record(n)
    if ha == 0 and hb == 0 and hab == 0:
        assert coupled.dim_cohomology == 0


@pytest.mark.parametrize("degree", [2.7, "3", True, None])
def test_a_degree_that_is_not_an_integer_is_rejected(a3, degree):
    # int(2.7), int("3") and int(True) once read as degrees 2, 3 and 1
    with pytest.raises(UsageError, match=repr(degree).replace(".", r"\.")):
        self_cohomology(a3, [1, degree])


def test_the_arity_zero_coboundary_needs_a_module_complex(phi):
    # a morphism complex once ignored include_degree_zero
    for n in (1, 2):
        with pytest.raises(UsageError, match="arity-0"):
            compute_cohomology(MorphismComplex(phi), [n],
                               include_degree_zero=True)


def test_degree_zero_mode_off_by_default_and_available(a3):
    base = self_cohomology(a3, [1]).record(1)
    assert base.dim_coboundaries == 0
    with_zero = compute_cohomology(HomSelfComplex(a3), [1],
                                   include_degree_zero=True).record(1)
    assert with_zero.dim_coboundaries >= 0
    assert with_zero.dim_cohomology <= base.dim_cohomology


def test_coupled_morphism_square_zero_on_compatible_triples():
    G = fixtures.g1(2, 3)
    complex_obj = MorphismComplex(HomMorphism(G, G, Matrix.identity(3)))
    for n in (1, 2):
        for c in complex_obj.bound_space(n).basis:
            assert complex_obj.delta(complex_obj.delta(c)).is_zero()


def test_bimodule_complex_summary(phi):
    summary = compute_cohomology(
        ModuleComplex(phi.source, adjoint_module(phi)), [1, 2])
    for rec in summary.records:
        assert rec.dim_coboundaries <= rec.dim_cocycles <= rec.dim_cochains


def test_module_complex_in_the_self_module_is_the_self_complex():
    for A in (fixtures.assoc3(1, 2), fixtures.assoc2(),
              fixtures.invalid_assoc2(), fixtures.lie4a(1, 1, 1, 1),
              fixtures.g1(2, 3), fixtures.g2(), fixtures.heisenberg()):
        own, given = ModuleComplex(A), ModuleComplex(A, self_module(A))
        for n in (1, 2, 3):
            ops = own.operator(n), given.operator(n)
            assert ops[0].source == ops[1].source
            assert ops[0].target == ops[1].target
            assert ops[0].data == ops[1].data
            assert own.bound_space(n) == given.bound_space(n)
        for degree0 in (False, True):
            assert compute_cohomology(
                own, [1, 2, 3], include_degree_zero=degree0).records == \
                compute_cohomology(
                    given, [1, 2, 3], include_degree_zero=degree0).records


def test_module_complex_rejects_a_module_of_the_other_kind():
    phi, G = fixtures.phi_assoc(), fixtures.g1(2, 3)
    with pytest.raises(UsageError):
        ModuleComplex(G, adjoint_module(phi))
    with pytest.raises(UsageError):
        ModuleComplex(phi.source, self_module(G))


def test_morphism_operator_compiles_each_component_once(monkeypatch):
    compiled = []
    for name in ("hom_delta", "lie_operator"):
        def counting(*args, _real=getattr(cohomology, name)):
            compiled.append(args)
            return _real(*args)
        monkeypatch.setattr(cohomology, name, counting)
    G = fixtures.g1(2, 3)
    for phi in (fixtures.phi_assoc(), fixtures.phi12_2(),
                HomMorphism(G, G, Matrix.identity(3))):
        compiled.clear()
        coupled = MorphismComplex(phi)
        for n in (1, 2):
            coupled.operator(n)
        # both ends at degrees 1 and 2, the connecting module at degree 1
        assert len(compiled) == 5
        for complex_obj in (coupled, coupled.source, coupled.target):
            compute_cohomology(complex_obj, [1, 2])
        compute_cohomology(coupled.connecting, [1])
        assert len(compiled) == 5


def heisenberg5() -> HomAlgebra:
    """[x1, y1] = [x2, y2] = z, identity twist."""
    mul = [[[0] * 5 for _ in range(5)] for _ in range(5)]
    for x, y in ((0, 2), (1, 3)):
        mul[x][y][4], mul[y][x][4] = 1, -1
    return HomAlgebra(name="heisenberg5", kind=LIE, dim=5, mul=mul,
                      alpha=Matrix.identity(5),
                      basis_names=("x1", "x2", "y1", "y2", "z"))


def test_heisenberg5_dimensions_and_representatives():
    H = heisenberg5()
    expected = {
        2: ((50, 30, 10, 20), "95a447cfa1e9c3c2201663b91314b312"
                              "5ccc4294d0499e5996ecb2730e6393ef"),
        3: ((50, 41, 20, 21), "d84a65ee6406185215eb41c44d50b18a"
                              "da5b8d8c4a798e88d162ec9f7b1b3f81")}
    for n, (dims, digest) in expected.items():
        rec = compute_cohomology(ModuleComplex(H), [n]).record(n)
        assert (rec.dim_cochains, rec.dim_cocycles, rec.dim_coboundaries,
                rec.dim_cohomology) == dims
        reps = [cochain_to_json(r, H.basis_names)
                for r in rec.representatives]
        text = json.dumps(reps, sort_keys=True)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_full_tensors_are_built_only_for_representatives(monkeypatch):
    calls = []
    to_full = Coords.to_full

    def counted(self, x):
        calls.append(self)
        return to_full(self, x)

    monkeypatch.setattr(Coords, "to_full", counted)
    rec = compute_cohomology(ModuleComplex(heisenberg5()), [3]).record(3)
    assert (rec.dim_cocycles, rec.dim_cohomology) == (41, 21)
    assert calls == []
    assert len(rec.representatives) == 21
    assert len(calls) == 21
    assert len(rec.cocycle_basis) == 41
    assert len(calls) == 21 + 41


def test_top_degree_builds_no_basis_and_applies_no_operator(monkeypatch):
    """H^3 solves one stacked integer system for its cocycles and takes
    its coboundaries from the integer kernel of the degree-2
    compatibility rows: it builds no cochain space at all and applies no
    operator to make Fraction images."""
    built, applied = [], []
    real_space, real_apply = cochain.CochainSpace, SparseMatrix.apply

    def space(*args):
        built.append(args[0].arity)
        return real_space(*args)

    def apply(self, x):
        applied.append(x)
        return real_apply(self, x)

    monkeypatch.setattr(cochain, "CochainSpace", space)
    monkeypatch.setattr(SparseMatrix, "apply", apply)
    rec = compute_cohomology(ModuleComplex(heisenberg5()), [3]).record(3)
    assert (rec.dim_cochains, rec.dim_cocycles, rec.dim_coboundaries,
            rec.dim_cohomology) == (50, 41, 20, 21)
    assert built == []
    assert applied == []


def test_coboundaries_without_rows_below_are_read_from_the_rows(
        monkeypatch):
    """With no compatibility row one degree down (identity twist), H^2 and
    H^3 read the coboundaries from the rows of the operator below: no
    column view is built and no image is taken one at a time."""
    products, builds = [], []
    real_numerators = SparseMatrix.numerators
    real_columns = SparseMatrix.__dict__["columns"].func

    def numerators(self, x):
        products.append(x)
        return real_numerators(self, x)

    def columns(self):
        builds.append(self.cols)
        return real_columns(self)

    counted = cached_property(columns)
    counted.__set_name__(SparseMatrix, "columns")
    monkeypatch.setattr(SparseMatrix, "numerators", numerators)
    monkeypatch.setattr(SparseMatrix, "columns", counted)
    H = heisenberg5()
    for n, dims in ((2, (50, 30, 10, 20)), (3, (50, 41, 20, 21))):
        complex_obj = ModuleComplex(H)
        assert complex_obj.compatibility_echelon(n - 1) == ()
        rec = compute_cohomology(complex_obj, [n]).record(n)
        assert (rec.dim_cochains, rec.dim_cocycles, rec.dim_coboundaries,
                rec.dim_cohomology) == dims
    assert (len(products), len(builds)) == (0, 0)


def test_lie_report_builds_the_rows_of_each_degree_once(monkeypatch):
    """Degrees 1..3 of one report read each degree's compatibility rows
    from the complex's cache: the bound spaces are their kernels."""
    degrees = []
    real = cochain.compatibility_rows

    def counted(*args):
        degrees.append(args[4])
        return real(*args)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("homcoh.") and \
                getattr(module, "compatibility_rows", None) is real:
            monkeypatch.setattr(module, "compatibility_rows", counted)
    compute_cohomology(ModuleComplex(fixtures.lie4a(1, 1, 1, 1)), [1, 2, 3])
    assert degrees == [1, 2, 3]


@pytest.mark.parametrize("limit, degree", [(1, 2), (2, 3)])
def test_arity_guard_fires_before_any_compile(monkeypatch, limit, degree):
    compiled = []

    def counted(name, real):
        def wrapper(*args, **kw):
            compiled.append(name)
            return real(*args, **kw)
        return wrapper

    for name in ("hom_operator", "hom_delta", "lie_operator",
                 "morphism_delta"):
        real = getattr(operator, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("homcoh.") and \
                    getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted(name, real))
    phi = fixtures.phi_assoc()
    psi = fixtures.builtin("morphism", "phi12_1")
    monkeypatch.setenv("HOMCOH_MAX_ARITY", str(limit))
    for complex_obj in (connecting_complex(psi),
                        ModuleComplex(phi.source, adjoint_module(phi)),
                        MorphismComplex(phi),
                        MorphismComplex(psi)):
        with pytest.raises(ArityLimitError):
            compute_cohomology(complex_obj, [degree])
    assert compiled == []
    compute_cohomology(MorphismComplex(psi), [limit])
    assert "morphism_delta" in compiled


def heis(dim: int) -> HomAlgebra:
    """The Heisenberg Lie algebra [x_i, y_i] = z, identity twist."""
    k = (dim - 1) // 2
    mul = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(k):
        mul[i][k + i][dim - 1], mul[k + i][i][dim - 1] = 1, -1
    return HomAlgebra(name=f"heis{dim}", kind=LIE, dim=dim, mul=mul,
                      alpha=Matrix.identity(dim))


def test_representatives_hold_only_their_nonzero_entries():
    """heis7 H^4 keeps its 84 representatives as sparse maps: the dense
    tensors (7^4 * 7 coefficients each) alone would take over 10 MiB."""
    H = heis(7)
    tracemalloc.start()
    try:
        rec = compute_cohomology(ModuleComplex(H), [4]).record(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rec.dim_cochains, rec.dim_cocycles, rec.dim_coboundaries,
            rec.dim_cohomology) == (245, 189, 105, 84)
    assert peak < 4 * 2 ** 20


def ut(m: int) -> HomAlgebra:
    """The associative algebra of upper-triangular m x m matrices, basis
    E_ij (i <= j) with E_ij E_jl = E_il, identity twist."""
    units = [(i, j) for i in range(m) for j in range(i, m)]
    dim = len(units)
    mul = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for x, (i, j) in enumerate(units):
        for y, (k, l) in enumerate(units):
            if j == k:
                mul[x][y][units.index((i, l))] = 1
    return HomAlgebra(name=f"ut{m}", kind=ASSOCIATIVE, dim=dim, mul=mul,
                      alpha=Matrix.identity(dim))


def diagonal(values) -> Matrix:
    return Matrix.from_rows([[x if i == j else 0 for j in range(len(values))]
                             for i, x in enumerate(values)])


@pytest.mark.parametrize("X, degrees", [
    (heis(5), (1, 2, 3)), (yau_twist(heis(5), diagonal([1, 2, 2, 1, 2])),
                           (1, 2, 3)),
    (ut(2), (1, 2, 3)), (yau_twist(ut(2), diagonal([1, 2, 1])), (1, 2, 3)),
    (ut(3), (1, 2))], ids=lambda x: getattr(x, "name", None))
def test_a_morphism_complex_seeded_by_its_parts_eliminates_as_from_scratch(
        X, degrees):
    """On the identity morphism of X, the coupled compatibility echelon
    (the parts' echelons side by side) and the coupled system echelon
    (continued from the parts' echelons by the connecting rows only) have
    the pivots and canonical kernel of eliminating, from scratch, the
    parts' compatibility rows shifted into the coupled coordinates (and
    for the system, the coupled operator's rows)."""
    complex_obj = MorphismComplex(HomMorphism(X, X, Matrix.identity(X.dim)))
    for n in degrees:
        op = complex_obj.operator(n)
        parts = [cochain.compatibility_rows(
            not complex_obj.full_cocycles, part.algebra,
            part.module.carrier_dim, part.module.beta_rows, k)
            for part, k in ((complex_obj.source, n), (complex_obj.target, n),
                            (complex_obj.connecting, n - 1))]
        rows = [{start + k: c for k, c in row.items()}
                for start, part in zip(op.source.starts, parts)
                for row in part]
        system = list(op.data) + ([] if complex_obj.full_cocycles else rows)
        for seeded, whole in ((complex_obj.compatibility_echelon(n), rows),
                              (complex_obj.system_echelon(n), system)):
            assert isinstance(seeded, Echelon)
            assert [col for col, _ in seeded] == pivot_columns(whole)
            assert integer_kernel(seeded, op.source.dim) == \
                integer_kernel(echelon(whole), op.source.dim)


def _recorded_eliminations(monkeypatch) -> list:
    """Every non-empty row list fed to ``exact.echelon`` from now on; the
    rows are kept, so their ids stay unique."""
    fed, real = [], exact.echelon

    def recording(rows, *seed):
        rows = list(rows)
        if rows:
            fed.append(rows)
        return real(rows, *seed)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("homcoh") and \
                getattr(module, "echelon", None) is real:
            monkeypatch.setattr(module, "echelon", recording)
    return fed


def _fed_again(fed: list) -> int:
    """The number of rows fed to more than one elimination."""
    calls = {}
    for i, rows in enumerate(fed):
        for row in rows:
            calls.setdefault(id(row), set()).add(i)
    return sum(len(c) > 1 for c in calls.values())


def _run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def test_a_report_eliminates_no_row_twice(monkeypatch):
    """cohomology l4a --degree 1..3 eliminates each degree's compatibility
    rows once: dim C, the stacked cocycle system and the coboundaries one
    degree up all read that echelon."""
    fed = _recorded_eliminations(monkeypatch)
    assert _run(["cohomology", "l4a", "--degree", "1..3"]) == 0
    assert fed and _fed_again(fed) == 0


@pytest.mark.parametrize("steps", [1, 5])
def test_an_extension_eliminates_its_compatibility_rows_once(monkeypatch,
                                                             steps):
    """Extending mdef_2 by one order or by five feeds the 15 degree-2
    compatibility rows of its complex to ``exact.echelon`` once, and no row
    of their echelon: every obstruction solve continues from it."""
    fed, made = _recorded_eliminations(monkeypatch), []
    real = cochain.compatibility_rows

    def kept(*args):
        made.extend(rows := real(*args))
        return rows

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("homcoh.") and \
                getattr(module, "compatibility_rows", None) is real:
            monkeypatch.setattr(module, "compatibility_rows", kept)
    d = fixtures.mdef_2()
    extended = extend_deformation(d, d.order + steps)
    assert extended.order == d.order + steps
    assert extended.complex is d.complex and len(made) == 15
    rows = {id(row) for row in made} | {
        id(row) for _, row in d.complex.compatibility_echelon(2)}
    assert sum(id(row) in rows for batch in fed for row in batch) == 15


def test_the_coupled_system_is_fed_only_the_connecting_rows(monkeypatch):
    """morphism-cohomology phi12_2 --degree 1..2 eliminates each part once:
    the coupled system continues from the parts' echelons and is fed no
    row of the source or target coboundary."""
    fed, built = _recorded_eliminations(monkeypatch), []

    def complex_of(*args):
        built.append(MorphismComplex(*args))
        return built[-1]

    monkeypatch.setattr(cli, "MorphismComplex", complex_of)
    assert _run(["morphism-cohomology", "phi12_2", "--degree", "1..2"]) == 0
    assert _fed_again(fed) == 0
    (coupled,) = built
    fed_ids = {id(row) for rows in fed for row in rows}
    for n in (1, 2):
        op = coupled.operator(n)
        own = coupled.source.operator(n).rows + \
            coupled.target.operator(n).rows
        assert fed_ids.isdisjoint(id(row) for row in op.data[:own])
        assert any(rows == list(op.data[own:]) for rows in fed)


def test_complexes_over_one_algebra_share_its_constants_and_nothing_else(
        monkeypatch):
    """Two complexes of l4a in itself, each computing H^2 and H^3, build
    each power of the twist once (alpha^1 and alpha^2 are one product by
    alpha each), read one action table per exponent, the structure rows of
    l4a and one coordinate system per shape.  Each complex still compiles
    its own degrees and feeds its own rows to ``exact.echelon``."""
    A = fixtures.builtin("algebra", "l4a")
    (alpha, _), _ = A.integral
    products, compiled = [], []
    real_after, real_compile = algebra._after, operator._compile

    def after(acc, m, mu, c=1):
        if m is alpha:
            products.append(mu)
        return real_after(acc, m, mu, c)

    def compile_(X, d, n, reduced, merges, acts):
        compiled.append((n, [table for _, _, (table, _) in acts]))
        return real_compile(X, d, n, reduced, merges, acts)

    monkeypatch.setattr(algebra, "_after", after)
    monkeypatch.setattr(operator, "_compile", compile_)
    fed = _recorded_eliminations(monkeypatch)
    own, other = complexes = [ModuleComplex(A), ModuleComplex(A)]
    dims = [[(r.dim_cochains, r.dim_cocycles, r.dim_coboundaries)
             for r in compute_cohomology(c, [2, 3]).records]
            for c in complexes]
    assert dims[0] == dims[1]

    # built once: the constants of l4a
    assert len(products) == 2
    tables = {}
    for n, acts in compiled:
        tables.setdefault(n, set()).update(map(id, acts))
    assert sorted(tables) == [1, 2, 3]
    assert all(len(ids) == 1 for ids in tables.values())
    assert own.module.beta_rows is other.module.beta_rows
    assert all(own.operator(n).source is other.operator(n).source
               for n in (1, 2, 3))

    # never shared: each complex compiles and eliminates its own degrees
    assert sorted(n for n, _ in compiled) == [1, 1, 2, 2, 3, 3]
    fed_ids = [{id(row) for row in rows} for rows in fed]
    for n in (2, 3):
        assert own.operator(n) is not other.operator(n)
        assert own.system_echelon(n) is not other.system_echelon(n)
        assert own.compatibility_echelon(n) is not \
            other.compatibility_echelon(n)
        for c in complexes:
            rows = {id(row) for row in c.operator(n).data}
            assert rows and rows in fed_ids


def _yau_twisted_lie_morphism(seed: int) -> HomMorphism:
    """gamma as a morphism of the Yau twist of an ordinary Lie algebra
    along gamma, both drawn from the selftest's Lie family."""
    A, gamma = _lie_family(random.Random(seed))
    X = yau_twist(A, gamma)
    return HomMorphism(X, X, gamma)


def _heis3_in_heis5(twisted: bool) -> HomMorphism:
    """x, y, z -> x1, y1, z, between the Yau twists along diag(1, 2, 2)
    and diag(1, 2, 2, 1, 2) when ``twisted``."""
    small, big = heis(3), heis(5)
    if twisted:
        small = yau_twist(small, diagonal([1, 2, 2]))
        big = yau_twist(big, diagonal([1, 2, 2, 1, 2]))
    return HomMorphism(small, big, Matrix.from_columns(
        [basis_vector(5, 0), basis_vector(5, 2), basis_vector(5, 4)]))


@pytest.mark.parametrize("phi", [
    fixtures.phi12_1(), fixtures.phi12_2(),
    HomMorphism(fixtures.g1(2, 3), fixtures.g1(2, 3), Matrix.identity(3)),
    HomMorphism(heis(5), heis(5), Matrix.identity(5)),
    _heis3_in_heis5(False), _heis3_in_heis5(True),
    *(_yau_twisted_lie_morphism(seed) for seed in range(6))],
    ids=["phi12_1", "phi12_2", "id_g1", "id_heis5", "heis3_in_heis5",
         "heis3_in_heis5_twisted", *(f"yau_{seed}" for seed in range(6))])
def test_lie_morphism_cohomology_follows_the_exact_sequence(phi):
    """The coupled complex of phi: A -> B is the mapping cone of C(A) +
    C(B) -> C(A; B), so its dimensions follow from those of the parts and
    the ranks of the maps their cohomology induces (``helpers``), which
    share nothing with the coupled elimination."""
    coupled = MorphismComplex(phi)
    for n in (1, 2, 3):
        assert compute_cohomology(coupled, [n]).record(n).dim_cohomology \
            == exact_sequence_dimension(phi, n)


def _identity(X: HomAlgebra) -> HomMorphism:
    return HomMorphism(X, X, Matrix.identity(X.dim))


def _yau_twisted_assoc_morphism(seed: int) -> HomMorphism:
    """gamma as a morphism of the Yau twist of an ordinary associative
    algebra along gamma, both drawn from the selftest's family."""
    A, gamma = _assoc_family(random.Random(seed))
    X = yau_twist(A, gamma)
    return HomMorphism(X, X, gamma)


@pytest.mark.parametrize("phi, degrees", [
    (fixtures.phi_assoc(), (1, 2, 3)),
    (_identity(fixtures.assoc3(1, 2)), (1, 2, 3)),
    (_identity(fixtures.assoc2()), (1, 2, 3)),
    (_identity(fixtures.dual_numbers()), (1, 2, 3)),
    (_identity(ut(2)), (1, 2, 3)), (_identity(ut(3)), (1, 2)),
    *((_yau_twisted_assoc_morphism(seed), (1, 2, 3)) for seed in range(6))],
    ids=["phi_assoc", "id_a3", "id_b2", "id_dual_numbers", "id_ut2",
         "id_ut3", *(f"yau_{seed}" for seed in range(6))])
def test_hom_morphism_cohomology_follows_the_exact_sequence_when_compatible(
        phi, degrees):
    """The reported hom-kind H^n(phi) is Z(all maps) / B(compatible maps).
    On the compatible cocycles of every part the coupled complex is the
    mapping cone of its parts, and its dimensions follow from theirs
    (``helpers``).  Both conventions share B, and the compatible Z lies
    in the reported Z."""
    coupled = compatible_morphism_complex(phi)
    reported = MorphismComplex(phi)
    for n in degrees:
        record = compute_cohomology(coupled, [n]).record(n)
        assert record.dim_cohomology \
            == exact_sequence_dimension(phi, n, compatible_parts(phi))
        width = coupled.operator(n).source.dim
        assert reported.operator(n).source == coupled.operator(n).source
        b, b_reported = (coboundary_vectors(c, n) for c in (coupled, reported))
        assert span_rank(b, width) == span_rank(b_reported, width) \
            == span_rank(b + b_reported, width) == record.dim_coboundaries
        z = record.cocycles.coords
        z_reported = compute_cohomology(reported, [n]).record(n).cocycles.coords
        assert span_rank(z + z_reported, width) == len(z_reported)
