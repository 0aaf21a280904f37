from fractions import Fraction

import pytest

from helpers import (dense_algebra_order_defect, dense_connecting_obstruction,
                     dense_morphism_order_defect, dense_transported_mul)
from homcoh import algebra, bracket, deformation, fixtures
from homcoh.algebra import ASSOCIATIVE, LIE, HomAlgebra
from homcoh.bracket import (cup_product_assoc, gerstenhaber_bracket,
                            nr_bracket, overline_comp)
from homcoh.cochain import MorphismCochain, MultilinearMap
from homcoh.cohomology import delta_hom_self, delta_morphism
from homcoh.deformation import (FormalAutomorphismPair, FormalDeformation,
                                MorphismDeformation, algebra_obstruction,
                                apply_equivalence, check_algebra_deformation,
                                check_morphism_deformation, coefficient_cochain,
                                extend_deformation, infinitesimal,
                                infinitesimal_report, obstruction)
from homcoh.errors import ObstructionMismatch, UsageError
from homcoh.exact import Matrix


def vec(*xs):
    return tuple(Fraction(x) for x in xs)


def test_trivial_algebra_deformation_passes(a3):
    d = FormalDeformation.from_terms(a3, 1, {})
    assert check_algebra_deformation(d).overall_ok


def test_def_g1_passes_all_orders():
    report = check_algebra_deformation(fixtures.def_g1())
    assert report.overall_ok
    assert [r.order for r in report.orders] == [0, 1, 2]


def test_skewness_violation_reported():
    G = fixtures.g1(2, 0)
    bad = MultilinearMap.from_values(2, 3, 3, {(0, 2): vec(0, 1, 0)})
    d = FormalDeformation.from_terms(G, 1, {1: bad})
    report = check_algebra_deformation(d)
    assert not report.overall_ok
    rec = report.orders[1]
    assert not rec.algebra_a.ok
    assert rec.algebra_a.witness is not None


def test_mdef_2_verdicts():
    report = check_morphism_deformation(fixtures.mdef_2())
    assert report.family_ok("algebra_a")
    assert report.family_ok("morphism_eq")
    assert report.family_ok("twist_eq")
    assert not report.family_ok("algebra_b")


def test_corrupt_phi_term_fails_twist_equation():
    md = fixtures.mdef_2()
    corrupt = Matrix.from_columns([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    bad = MorphismDeformation.build(md.phi, md.def_a, md.def_b,
                                    {1: corrupt}, 1)
    report = check_morphism_deformation(bad)
    assert not report.family_ok("twist_eq")
    rec = report.orders[1]
    assert rec.twist_eq.witness[0] == "e1"


def test_family_orders_must_equal_the_deformation_order(phi):
    # order-3 families under an order-2 morphism deformation: obstruction
    # would read their order-3 terms as known and mix them with the
    # order-3 morphism equation
    A, B = phi.source, phi.target
    mu3 = MultilinearMap.from_values(2, A.dim, A.dim, {(0, 0): vec(1, 0, 0)})
    def_a = FormalDeformation.from_terms(A, 3, {3: mu3})
    def_b = FormalDeformation.from_terms(B, 3, {})
    with pytest.raises(UsageError, match=r"3 \(source\) and 3 \(target\)"
                                         r".* order 2"):
        MorphismDeformation.build(phi, def_a, def_b, {}, 2)
    flat_a, flat_b = (FormalDeformation.from_terms(X, 2, {}) for X in (A, B))
    with pytest.raises(UsageError, match=r"2 \(source\) and 3 \(target\)"):
        MorphismDeformation.build(phi, flat_a, def_b, {}, 2)
    same = MorphismDeformation.build(phi, flat_a, flat_b, {}, 2)
    assert same.def_a.order == same.def_b.order == same.order == 2


def test_infinitesimal_trivial_deformation(phi):
    trivial = MorphismDeformation.build(
        phi, FormalDeformation.from_terms(phi.source, 1, {}),
        FormalDeformation.from_terms(phi.target, 1, {}), {}, 1)
    theta = infinitesimal(trivial)
    assert theta.is_zero()


def test_infinitesimal_mdef_2_slotwise():
    theta, verdicts, warnings = infinitesimal_report(fixtures.mdef_2())
    assert verdicts["source"] and verdicts["morphism"]
    assert not verdicts["target"]
    assert warnings
    # the extraction returns exactly the degree-1 coefficients
    assert theta.comp_A == fixtures.def_g1().term(1)
    assert theta.comp_B == fixtures.def_g2().term(1)


def test_padded_leading_coefficient_is_again_a_cocycle():
    md = fixtures.mdef_2()
    padded = MorphismDeformation.build(
        md.phi,
        FormalDeformation.from_terms(md.phi.source, 2,
                                     {2: md.def_a.term(1)}),
        FormalDeformation.from_terms(md.phi.target, 2,
                                     {2: md.def_b.term(1)}),
        {2: md.phi_term(1)}, 2)
    theta2 = coefficient_cochain(padded, 2)
    image = delta_morphism(md.phi, theta2, "lie")
    assert image.comp_A.is_zero()
    assert image.comp_AB.is_zero()


def test_apply_equivalence_identity_pair_is_noop():
    md = fixtures.mdef_2()
    psi = FormalAutomorphismPair(source=md.phi.source, target=md.phi.target,
                                 psi_a_terms=(), psi_b_terms=(), order=1)
    out = apply_equivalence(md, psi)
    assert out.def_a.terms == md.def_a.terms
    assert out.def_b.terms == md.def_b.terms
    assert out.phi_terms == md.phi_terms


def test_apply_equivalence_shifts_infinitesimal_by_coboundary():
    md = fixtures.mdef_2()
    N = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    psi = FormalAutomorphismPair(source=md.phi.source, target=md.phi.target,
                                 psi_a_terms=((1, N),), psi_b_terms=(),
                                 order=1)
    out = apply_equivalence(md, psi)
    before = check_morphism_deformation(md)
    after = check_morphism_deformation(out)
    for family in ("algebra_a", "algebra_b", "morphism_eq", "twist_eq"):
        assert before.family_ok(family) == after.family_ok(family)
    t_old = coefficient_cochain(md, 1)
    t_new = coefficient_cochain(out, 1)
    one = MorphismCochain(MultilinearMap.from_matrix(N),
                          MultilinearMap.zero(1, 3, 3),
                          MultilinearMap.constant(3, vec(0, 0, 0)))
    shift = delta_morphism(md.phi, one, "lie")
    assert t_old.comp_A - t_new.comp_A == shift.comp_A
    assert t_old.comp_B - t_new.comp_B == shift.comp_B
    assert t_old.comp_AB - t_new.comp_AB == shift.comp_AB


def test_apply_equivalence_requires_twist_commuting_terms():
    md = fixtures.mdef_2()
    bad = Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(UsageError):
        FormalAutomorphismPair(source=md.phi.source, target=md.phi.target,
                               psi_a_terms=((1, bad),), psi_b_terms=(),
                               order=1)


def test_automorphism_pair_rejects_repeated_and_out_of_range_degrees():
    md = fixtures.mdef_2()
    a, b, c = (Matrix.identity(3).scale(k) for k in (1, 2, 3))
    for terms in (((1, a), (1, b)), ((1, a), (5, c)), ((0, a),)):
        for side in ("psi_a_terms", "psi_b_terms"):
            pair = {"psi_a_terms": (), "psi_b_terms": (), side: terms}
            with pytest.raises(UsageError):
                FormalAutomorphismPair(source=md.phi.source,
                                       target=md.phi.target, order=1, **pair)


def test_series_inverse_exact():
    md = fixtures.mdef_2()
    N = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    psi = FormalAutomorphismPair(source=md.phi.source, target=md.phi.target,
                                 psi_a_terms=((1, N),), psi_b_terms=(),
                                 order=3)
    inv = psi.inverse_terms("a", 3)
    # coefficient of each order of psi_t o psi_t^{-1} must vanish
    for s in range(1, 4):
        acc = Matrix.zero(3, 3)
        for i in range(s + 1):
            acc = acc + psi.term("a", i) @ inv[s - i]
        assert acc.is_zero()


def test_obstruction_trivial_is_zero(phi):
    trivial = MorphismDeformation.build(
        phi, FormalDeformation.from_terms(phi.source, 1, {}),
        FormalDeformation.from_terms(phi.target, 1, {}), {}, 1)
    assert obstruction(trivial).is_zero()


def test_trivial_deformation_extends_with_zero_term(phi):
    trivial = MorphismDeformation.build(
        phi, FormalDeformation.from_terms(phi.source, 1, {}),
        FormalDeformation.from_terms(phi.target, 1, {}), {}, 1)
    extended = extend_deformation(trivial)
    assert extended is not None
    assert extended.order == 2
    assert extended.def_a.term(2).is_zero()
    assert extended.def_b.term(2).is_zero()
    assert extended.phi_term(2).is_zero()


def test_obstruction_def_g1():
    ob = algebra_obstruction(fixtures.def_g1())
    assert ob.is_zero()  # only cross terms with the annihilated directions


def test_obstruction_mdef_2_is_cocycle_in_valid_slots():
    md = fixtures.mdef_2()
    ob = obstruction(md)
    image = delta_morphism(md.phi, ob, "lie")
    assert image.comp_A.is_zero()
    assert image.comp_AB.is_zero()


def test_rigid_extension_from_coboundary_term(a3):
    g = MultilinearMap.from_values(1, 3, 3, {(0,): vec(1, 0, 0)})
    mu1 = delta_hom_self(a3, g)
    d = FormalDeformation.from_terms(a3, 1, {1: mu1})
    assert check_algebra_deformation(d, up_to=1).overall_ok
    extended = extend_deformation(d)
    assert extended is not None
    assert extended.order == 2
    assert check_algebra_deformation(extended, up_to=2).overall_ok


def test_rigid_extension_second_coboundary_term(a3):
    g = MultilinearMap.from_values(1, 3, 3, {(1,): vec(1, 1, 0)})
    mu1 = delta_hom_self(a3, g)
    d = FormalDeformation.from_terms(a3, 1, {1: mu1})
    assert extend_deformation(d) is not None


def test_non_coboundary_obstruction_blocks_extension():
    # abelian base: anything skew deforms to order one, the coboundary
    # space is zero, and a bracket violating the Jacobi identity at order
    # two is a genuine obstruction
    n = 3
    mul = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    L = HomAlgebra("abelian3", LIE, n, mul, Matrix.identity(n))
    term = MultilinearMap.from_values(2, 3, 3, {
        (0, 1): vec(0, 0, 1), (1, 0): vec(0, 0, -1),
        (1, 2): vec(1, 0, 0), (2, 1): vec(-1, 0, 0),
        (0, 2): vec(1, 0, 0), (2, 0): vec(-1, 0, 0)})
    d = FormalDeformation.from_terms(L, 1, {1: term})
    assert check_algebra_deformation(d, up_to=1).overall_ok
    ob = algebra_obstruction(d)
    assert not ob.is_zero()
    assert extend_deformation(d) is None

    from homcoh.rep import HomMorphism
    ident = HomMorphism(L, L, Matrix.identity(3))
    md = MorphismDeformation.build(ident, d, d, {}, 1)
    assert extend_deformation(md) is None


def test_extend_morphism_deformation_of_mdef_2():
    md = fixtures.mdef_2()
    extended = extend_deformation(md)
    if extended is not None:
        assert extended.order == 2
        after = check_morphism_deformation(extended, up_to=2)
        assert after.family_ok("algebra_a")
        assert after.family_ok("morphism_eq")
        assert after.family_ok("twist_eq")
        # second-order obstruction of the extension is again a cocycle in
        # the slots whose underlying algebras are valid
        ob2 = obstruction(extended)
        image = delta_morphism(extended.phi, ob2, "lie")
        assert image.comp_A.is_zero()
        assert image.comp_AB.is_zero()


def _assoc_example():
    """Associative-kind deformation with nonzero terms at degrees 1 and 2:
    the trivial order-2 deformation of phi_assoc transported by
    psi_A = 1 + t alpha_A + t^2 alpha_A^2 and psi_B = 1 + t alpha_B.
    Returns (trivial deformation, pair, transported deformation)."""
    phi = fixtures.phi_assoc()
    A, B = phi.source, phi.target
    trivial = MorphismDeformation.build(
        phi, FormalDeformation.from_terms(A, 2, {}),
        FormalDeformation.from_terms(B, 2, {}), {}, 2)
    psi = FormalAutomorphismPair(
        source=A, target=B,
        psi_a_terms=((1, A.alpha), (2, A.alpha @ A.alpha)),
        psi_b_terms=((1, B.alpha),), order=2)
    return trivial, psi, apply_equivalence(trivial, psi)


def _mdef_2_extensions(up_to=4):
    chain = [fixtures.mdef_2()]
    while chain[-1].order < up_to:
        chain.append(extend_deformation(chain[-1]))
    return chain


def test_assoc_example_deformation():
    _, _, md = _assoc_example()
    assert [d for d, _ in md.def_a.terms] == [1]
    assert [d for d, _ in md.def_b.terms] == [1, 2]
    assert [d for d, _ in md.phi_terms] == [2]
    assert check_morphism_deformation(md, up_to=2).overall_ok
    assert not obstruction(md).is_zero()
    extended = extend_deformation(md)
    assert extended.order == 3
    assert check_morphism_deformation(extended, up_to=3).overall_ok


def _morphism_defect(md, s):
    """The sparse order-s morphism defect of md, as a map."""
    return MultilinearMap.from_sparse(
        2, md.phi.source.dim, md.phi.target.dim,
        deformation._morphism_order_defect(md, s))


def _algebra_defect(d, s):
    """The sparse order-s structure defect of d, as a map."""
    return MultilinearMap.from_sparse(
        3, d.base.dim, d.base.dim, deformation._algebra_order_defect(d, s))


def test_order_defects_match_dense_oracles():
    _, _, assoc = _assoc_example()
    for md in _mdef_2_extensions() + [assoc, extend_deformation(assoc)]:
        for s in range(3 * md.order + 2):
            assert _morphism_defect(md, s) == \
                dense_morphism_order_defect(md, s)
        for d in (md.def_a, md.def_b):
            for s in range(2 * d.order + 2):
                assert _algebra_defect(d, s) == \
                    dense_algebra_order_defect(d, s)


def test_connecting_obstruction_matches_dense_oracle():
    _, _, assoc = _assoc_example()
    for md in _mdef_2_extensions() + [assoc, extend_deformation(assoc)]:
        dense = dense_connecting_obstruction(md)
        direct = _morphism_defect(md, md.order + 1)
        assert direct.scale(-1) == dense
        sign = 1 if md.flavor == "hom" else -1
        assert obstruction(md).comp_AB == dense.scale(sign)
    # families whose own order exceeds the deformation's are rejected, so
    # no family term can reach the order-(N+1) slots as a known term
    with pytest.raises(UsageError, match="family orders 3"):
        MorphismDeformation.build(
            assoc.phi, assoc.def_a.with_term(3, assoc.def_a.term(1)),
            assoc.def_b.with_term(3, assoc.def_b.term(2)),
            dict(assoc.phi_terms), 2)


def test_apply_equivalence_matches_dense_oracle():
    md = _mdef_2_extensions(3)[-1]
    nil = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    pairs = [(md, FormalAutomorphismPair(
        source=md.phi.source, target=md.phi.target,
        psi_a_terms=((1, nil),), psi_b_terms=(), order=3))]
    trivial, psi, transported = _assoc_example()
    pairs += [(trivial, psi), (transported, psi)]
    for before, pair in pairs:
        out = apply_equivalence(before, pair)
        for s in range(1, before.order + 1):
            assert out.def_a.term(s) == dense_transported_mul(before, pair,
                                                              "a", s)
            assert out.def_b.term(s) == dense_transported_mul(before, pair,
                                                              "b", s)


def _bumped(fn):
    """fn with one unit value added at the all-zero argument tuple."""
    def wrapper(*args):
        out = fn(*args)
        bump = [0] * out.target_dim
        bump[0] = 1
        return out + MultilinearMap.from_values(
            out.arity, out.source_dim, out.target_dim,
            {(0,) * out.arity: bump})
    return wrapper


def _negated(fn):
    return lambda *args: fn(*args).scale(-1)


def _rigid_a3():
    a3 = fixtures.assoc3(1, 2)
    g = MultilinearMap.from_values(1, 3, 3, {(1,): vec(1, 1, 0)})
    return FormalDeformation.from_terms(a3, 1, {1: delta_hom_self(a3, g)})


@pytest.mark.parametrize("site", [
    "algebra_obstruction-associative", "algebra_obstruction-lie",
    "obstruction-hom", "obstruction-lie",
    "extend_deformation", "extend_algebra"])
def test_obstruction_mismatch_sites_raise_on_perturbed_displayed_side(
        monkeypatch, site):
    _, _, assoc = _assoc_example()
    rigid = _rigid_a3()
    cases = {
        "algebra_obstruction-associative": (
            "gerstenhaber_bracket", _bumped,
            lambda: algebra_obstruction(assoc.def_b)),
        "algebra_obstruction-lie": (
            "nr_bracket", _bumped,
            lambda: algebra_obstruction(fixtures.def_g1())),
        "obstruction-hom": ("_compose_matrix_bilinear", _bumped,
                            lambda: obstruction(assoc)),
        "obstruction-lie": ("_compose_matrix_bilinear", _bumped,
                            lambda: obstruction(fixtures.mdef_2())),
        # a sign slip in the obstruction the extension solves for, for a
        # morphism and for an algebra deformation
        "extend_deformation": ("obstruction", _negated,
                               lambda: extend_deformation(assoc)),
        "extend_algebra": ("algebra_obstruction", _negated,
                           lambda: extend_deformation(rigid)),
    }
    name, perturb, run = cases[site]
    run()
    monkeypatch.setattr(deformation, name,
                        perturb(getattr(deformation, name)))
    with pytest.raises(ObstructionMismatch):
        run()


def test_displayed_obstruction_side_does_not_use_the_kernel(monkeypatch):
    _, _, assoc = _assoc_example()
    md = fixtures.mdef_2()
    f = MultilinearMap.from_matrix(assoc.phi_term(2))

    def displayed():
        return [
            gerstenhaber_bracket(assoc.phi.target, assoc.def_b.term(1),
                                 assoc.def_b.term(2)),
            nr_bracket(md.phi.source, md.def_a.term(1), md.def_a.term(1)),
            overline_comp(assoc.phi, assoc.def_b.term(1), f),
            cup_product_assoc(assoc.phi, f, f),
            deformation._compose_matrix_bilinear(assoc.phi_term(2),
                                                 assoc.def_a.term(1)),
            deformation._mul_through(md.def_b.term(1), md.phi_term(1),
                                     md.phi.matrix)]

    before = displayed()
    assert any(not m.is_zero() for m in before)

    def refuse(*args):
        raise AssertionError("the displayed side called the kernel")
    for module in (algebra, bracket, deformation):
        for name in ("identity_defect", "product_defect", "twist_defect",
                     "skew_defect", "first_failure"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert displayed() == before


def test_extension_step_checks_the_extension_once(monkeypatch):
    _, _, assoc = _assoc_example()
    calls = []
    real = deformation.check_morphism_deformation

    def counted(*args, **kwargs):
        calls.append(kwargs.get("up_to"))
        return real(*args, **kwargs)

    monkeypatch.setattr(deformation, "check_morphism_deformation", counted)
    for md in (assoc, fixtures.mdef_2()):
        calls.clear()
        assert extend_deformation(md) is not None
        assert calls == [md.order + 1]


def _zero_product(name, kind, twist):
    """The zero product on a space with a diagonal twist."""
    n = len(twist)
    mul = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    return HomAlgebra(name, kind, n, mul, Matrix.from_rows(
        [[twist[i] if i == j else 0 for j in range(n)] for i in range(n)]))


def test_extension_over_an_empty_compatible_space():
    # no product of two twist eigenvalues is an eigenvalue, so the
    # twist-compatible bilinear cochains are all zero, and an obstruction
    # is a coboundary exactly when it vanishes
    for A in (_zero_product("ab2", LIE, (2, 3)),
              _zero_product("one", ASSOCIATIVE, (2,))):
        d = FormalDeformation.from_terms(A, 1, {})
        assert not d.complex.bound_space(2).coords
        for order in (2, 3):
            d = extend_deformation(d)
            assert (d.order, d.terms) == (order, ())
    L = _zero_product("ab3", LIE, (2, 3, 5))
    term = MultilinearMap.from_values(2, 3, 3, {
        (0, 1): vec(0, 0, 1), (1, 0): vec(0, 0, -1),
        (1, 2): vec(1, 0, 0), (2, 1): vec(-1, 0, 0),
        (0, 2): vec(1, 0, 0), (2, 0): vec(-1, 0, 0)})
    d = FormalDeformation.from_terms(L, 1, {1: term})
    assert not d.complex.bound_space(2).coords
    assert not algebra_obstruction(d).is_zero()
    assert extend_deformation(d) is None
