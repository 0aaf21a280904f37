import hashlib
import json
import random
from fractions import Fraction
from itertools import product

import pytest

from helpers import ImageOutsideCodomain, differential_matrix
from homcoh import cohomology, fixtures
from homcoh.algebra import ASSOCIATIVE, LIE, HomAlgebra, multiply
from homcoh.cochain import (Coords, MorphismCochain, MultilinearMap, hom_cochain_basis,
                            is_alternating, is_compatible, lie_cochain_basis)
from homcoh.cohomology import (HomSelfComplex, ModuleComplex,
                               MorphismComplex, compute_cohomology,
                               connecting_complex, d_component,
                               delta_hom_bimodule, delta_hom_self,
                               delta_lie_module, delta_lie_self,
                               delta_morphism, self_cohomology)
from homcoh.errors import UsageError
from homcoh.files import cochain_to_json
from homcoh.exact import Matrix, basis_vector, in_span
from homcoh.rep import (HomMorphism, adjoint_bimodule, lie_adjoint_module,
                        self_bimodule, self_lie_module)


def vec(*xs):
    return tuple(Fraction(x) for x in xs)


def rand_map(rng, arity, sd, td, span=2):
    size = sd ** arity * td
    return MultilinearMap(arity, sd, td,
                          tuple(Fraction(rng.randint(-span, span))
                                for _ in range(size)))


def test_delta_hom_self_spot_values():
    A = fixtures.assoc3(1, 1)
    f = MultilinearMap.from_values(1, 3, 3, {(0,): vec(1, 0, 0)})
    df = delta_hom_self(A, f)
    assert df.value_on_basis((0, 0)) == vec(1, 0, 0)
    assert df.value_on_basis((0, 1)) == vec(0, 1, 0)
    assert df.value_on_basis((2, 0)) == vec(0, 0, 1)
    assert df.value_on_basis((1, 1)) == vec(0, 0, 0)


def test_delta_hom_self_matches_displayed_coboundary_family(a3):
    # the full nine-value coboundary display for the three-dimensional
    # associative fixture, with twist-compatible f and b = 2
    rng = random.Random(60)
    b = Fraction(2)
    for _ in range(5):
        x1, y1, x2, y2, z3 = (Fraction(rng.randint(-3, 3)) for _ in range(5))
        f = MultilinearMap.from_values(1, 3, 3, {
            (0,): (x1, y1, 0), (1,): (x2, y2, 0), (2,): (0, 0, z3)})
        df = delta_hom_self(a3, f)
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
    z_cols = [z.coeffs for z in rec.cocycle_basis]
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
        assert delta_hom_self(a3, psi).is_zero()
        assert in_span(z_cols, psi.coeffs) is not None


def test_delta_hom_self_zero_and_rejects_arity_zero(a3):
    assert delta_hom_self(a3, MultilinearMap.zero(2, 3, 3)).is_zero()
    with pytest.raises(UsageError):
        delta_hom_self(a3, MultilinearMap.constant(3, vec(1, 0, 0)))


def test_delta_hom_self_degree_one_formula(b2):
    f = MultilinearMap.from_values(1, 2, 2, {(0,): vec(0, 1)})
    df = delta_hom_self(b2, f)
    assert df.value_on_basis((0, 0)) == vec(0, 1)


def test_delta_bimodule_self_coincides(a3):
    rng = random.Random(61)
    M = self_bimodule(a3)
    for _ in range(10):
        f = rand_map(rng, rng.choice([1, 2]), 3, 3)
        assert delta_hom_bimodule(a3, M, f) == delta_hom_self(a3, f)


def test_delta_bimodule_adjoint_spot_value(phi):
    M = adjoint_bimodule(phi)
    f = MultilinearMap.from_values(1, 3, 2, {(0,): vec(1, 0)})
    df = delta_hom_bimodule(phi.source, M, f)
    assert df.value_on_basis((0, 0)) == vec(1, -2)
    assert delta_hom_bimodule(phi.source, M,
                              MultilinearMap.zero(1, 3, 2)).is_zero()


def test_delta_lie_self_classical_value(heis):
    f = MultilinearMap.from_values(1, 3, 3, {(2,): vec(0, 0, 1)})
    df = delta_lie_self(heis, f)
    assert df.value_on_basis((0, 1)) == vec(0, 0, -1)
    assert delta_lie_self(heis, MultilinearMap.zero(2, 3, 3)).is_zero()


def test_delta_lie_self_kills_compatible_cocycle_family():
    G = fixtures.g1(2, 3)
    psi = MultilinearMap.from_values(
        2, 3, 3, {(0, 1): vec(0, 0, 1), (1, 0): vec(0, 0, -1)})
    assert delta_lie_self(G, psi).is_zero()


def test_delta_lie_rejects_non_alternating(heis):
    bad = MultilinearMap.from_values(2, 3, 3, {(0, 1): vec(0, 0, 1)})
    with pytest.raises(UsageError):
        delta_lie_self(heis, bad)


def test_delta_lie_module_specializes_to_self():
    G = fixtures.g1(2, 3)
    P = lie_adjoint_module(HomMorphism(G, G, Matrix.identity(3)))
    rng = random.Random(62)
    from homcoh.cochain import alternator
    for _ in range(8):
        f = alternator(rand_map(rng, 2, 3, 3))
        assert delta_lie_module(G, P, f) == delta_lie_self(G, f)
    assert delta_lie_module(G, P, MultilinearMap.zero(2, 3, 3)).is_zero()


def test_delta_lie_module_fixture_spot_value():
    phi2 = fixtures.phi12_2()
    P = lie_adjoint_module(phi2, strict=False)
    f = MultilinearMap.from_values(1, 3, 3, {(0,): vec(0, 1, 0)})
    df = delta_lie_module(phi2.source, P, f)
    assert df.value_on_basis((0, 1)) == vec(0, 0, 0)


def test_delta_morphism_zero_and_commuting_cocycles(phi):
    zero = MorphismCochain(MultilinearMap.zero(1, 3, 3),
                           MultilinearMap.zero(1, 2, 2),
                           MultilinearMap.constant(3, vec(0, 0)))
    assert delta_morphism(phi, zero, "hom").is_zero()


def test_delta_morphism_kills_commuting_cocycle_pair(phi):
    # a source 1-cocycle whose push-forward along phi is matched by the
    # zero target cocycle: every slot of the coupled coboundary vanishes
    f = MultilinearMap.from_values(1, 3, 3, {(2,): vec(0, 0, 1)})
    assert delta_hom_self(phi.source, f).is_zero()
    for j in range(3):
        assert phi.apply(f.value_on_basis((j,))) == vec(0, 0)
    c = MorphismCochain(f, MultilinearMap.zero(1, 2, 2),
                        MultilinearMap.constant(3, vec(0, 0)))
    assert delta_morphism(phi, c, "hom").is_zero()


def test_delta_hom_self_degree_one_hand_formula():
    rng = random.Random(64)
    for A in (fixtures.assoc3(1, 2), fixtures.assoc3(1, 1),
              fixtures.assoc2(), fixtures.dual_numbers()):
        f = rand_map(rng, 1, A.dim, A.dim)
        df = delta_hom_self(A, f)
        for t in product(range(A.dim), repeat=2):
            x, y = (basis_vector(A.dim, i) for i in t)
            expect = tuple(
                p - q + r for p, q, r in zip(
                    multiply(A, x, f.evaluate([y])),
                    f.evaluate([multiply(A, x, y)]),
                    multiply(A, f.evaluate([x]), y)))
            assert df.value_on_basis(t) == expect


def test_delta_morphism_identity_pair(phi):
    ident = MorphismCochain(
        MultilinearMap.from_matrix(Matrix.identity(3)),
        MultilinearMap.from_matrix(Matrix.identity(2)),
        MultilinearMap.constant(3, vec(0, 0)))
    image = delta_morphism(phi, ident, "hom")
    assert image.comp_AB.is_zero()
    A = phi.source
    for t in product(range(3), repeat=2):
        x, y = (basis_vector(3, i) for i in t)
        assert image.comp_A.value_on_basis(t) == multiply(A, x, y)


def test_face_operator_examples(a3):
    M = self_bimodule(a3)
    rng = random.Random(63)
    space = hom_cochain_basis(a3, 3, a3.alpha, 2)
    f = space.combine([Fraction(rng.randint(-2, 2)) for _ in range(space.dim)])
    assert d_component(a3, M, 2, f).is_zero()
    total = MultilinearMap.zero(3, 3, 3)
    for i in range(3):
        face = d_component(a3, M, i, f)
        total = total + (face if (i + 1) % 2 == 0 else face.scale(-1))
    assert total == delta_hom_bimodule(a3, M, f)
    with pytest.raises(UsageError):
        d_component(a3, M, 5, f)


def test_differential_matrix_zero_operator(a3):
    space1 = hom_cochain_basis(a3, 3, a3.alpha, 1)
    space2 = hom_cochain_basis(a3, 3, a3.alpha, 2)
    zero = lambda f: MultilinearMap.zero(2, 3, 3)
    assert differential_matrix(space1, space2, zero).is_zero()


def test_differential_matrix_square_vanishes(a3, l4a):
    s1 = hom_cochain_basis(a3, 3, a3.alpha, 1)
    s2 = hom_cochain_basis(a3, 3, a3.alpha, 2)
    s3 = hom_cochain_basis(a3, 3, a3.alpha, 3)
    d1 = differential_matrix(s1, s2, lambda f: delta_hom_self(a3, f))
    d2 = differential_matrix(s2, s3, lambda f: delta_hom_self(a3, f))
    assert (d2 @ d1).is_zero()
    t1 = lie_cochain_basis(l4a, 4, l4a.alpha, 1)
    t2 = lie_cochain_basis(l4a, 4, l4a.alpha, 2)
    t3 = lie_cochain_basis(l4a, 4, l4a.alpha, 3)
    e1 = differential_matrix(t1, t2, lambda f: delta_lie_self(l4a, f))
    e2 = differential_matrix(t2, t3, lambda f: delta_lie_self(l4a, f))
    assert (e2 @ e1).is_zero()


def test_differential_matrix_flags_invalid_algebra(g2):
    # the invalid companion algebra must be reported, not silently accepted:
    # either an image escapes the codomain basis or the square is nonzero
    s1 = lie_cochain_basis(g2, 3, g2.alpha, 1)
    s2 = lie_cochain_basis(g2, 3, g2.alpha, 2)
    s3 = lie_cochain_basis(g2, 3, g2.alpha, 3)
    try:
        d1 = differential_matrix(s1, s2, lambda f: delta_lie_self(g2, f))
        d2 = differential_matrix(s2, s3, lambda f: delta_lie_self(g2, f))
    except ImageOutsideCodomain:
        return
    assert not (d2 @ d1).is_zero()


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
    bound = [complex_obj.delta(g).coeffs
             for g in complex_obj.bound_space(1).basis]
    for rep in rec.representatives:
        assert complex_obj.delta(rep).is_zero()
        assert in_span(bound, rep.coeffs) is None
    assert rec.dim_cohomology == len(rec.representatives)


def test_compatibility_closure_of_the_operator(a3, l4a):
    for k in (1, 2):
        for f in hom_cochain_basis(a3, 3, a3.alpha, k).basis:
            df = delta_hom_self(a3, f)
            assert is_compatible(df, a3.alpha, a3.alpha)
        for f in lie_cochain_basis(l4a, 4, l4a.alpha, k).basis:
            df = delta_lie_self(l4a, f)
            assert is_compatible(df, l4a.alpha, l4a.alpha)
            assert is_alternating(df)


def test_morphism_complex_product_formula_is_reported_not_assumed(phi):
    coupled = compute_cohomology(MorphismComplex(phi, "hom"), [2]).record(2)
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
    coupled = compute_cohomology(MorphismComplex(phi, "hom"), [n]).record(n)
    if ha == 0 and hb == 0 and hab == 0:
        assert coupled.dim_cohomology == 0


def test_degree_zero_mode_off_by_default_and_available(a3):
    base = self_cohomology(a3, [1]).record(1)
    assert base.dim_coboundaries == 0
    with_zero = compute_cohomology(HomSelfComplex(a3), [1],
                                   include_degree_zero=True).record(1)
    assert with_zero.dim_coboundaries >= 0
    assert with_zero.dim_cohomology <= base.dim_cohomology


def test_coupled_morphism_square_zero_on_compatible_triples():
    G = fixtures.g1(2, 3)
    complex_obj = MorphismComplex(HomMorphism(G, G, Matrix.identity(3)), "lie")
    for n in (1, 2):
        for c in complex_obj.bound_space(n).basis:
            assert complex_obj.delta(complex_obj.delta(c)).is_zero()


def test_bimodule_complex_summary(phi):
    summary = compute_cohomology(
        ModuleComplex(phi.source, adjoint_bimodule(phi)), [1, 2])
    for rec in summary.records:
        assert rec.dim_coboundaries <= rec.dim_cocycles <= rec.dim_cochains


def test_module_complex_in_the_self_module_is_the_self_complex():
    for A in (fixtures.assoc3(1, 2), fixtures.assoc2(),
              fixtures.invalid_assoc2(), fixtures.lie4a(1, 1, 1, 1),
              fixtures.g1(2, 3), fixtures.g2(), fixtures.heisenberg()):
        module = (self_bimodule if A.kind == ASSOCIATIVE
                  else self_lie_module)(A)
        own, given = ModuleComplex(A), ModuleComplex(A, module)
        for n in (1, 2, 3):
            ops = own.operator(n), given.operator(n)
            assert ops[0].source == ops[1].source
            assert ops[0].target == ops[1].target
            assert ops[0].rows == ops[1].rows
            assert own.bound_space(n) == given.bound_space(n)
        for degree0 in (False, True):
            assert compute_cohomology(
                own, [1, 2, 3], include_degree_zero=degree0).records == \
                compute_cohomology(
                    given, [1, 2, 3], include_degree_zero=degree0).records


def test_module_complex_rejects_a_module_of_the_other_kind():
    phi, G = fixtures.phi_assoc(), fixtures.g1(2, 3)
    with pytest.raises(UsageError):
        ModuleComplex(G, adjoint_bimodule(phi))
    with pytest.raises(UsageError):
        ModuleComplex(phi.source, self_lie_module(G))


def test_morphism_operator_compiles_each_component_once(monkeypatch):
    compiled = []
    for name in ("hom_delta", "lie_operator"):
        def counting(*args, _real=getattr(cohomology, name)):
            compiled.append(args)
            return _real(*args)
        monkeypatch.setattr(cohomology, name, counting)
    G = fixtures.g1(2, 3)
    for phi, flavor in ((fixtures.phi_assoc(), "hom"),
                        (fixtures.phi12_2(), "lie"),
                        (HomMorphism(G, G, Matrix.identity(3)), "lie")):
        compiled.clear()
        coupled = MorphismComplex(phi, flavor)
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
    assert len(calls) == 21
    assert len(rec.cocycle_basis) == 41
    assert len(calls) == 21 + 41
