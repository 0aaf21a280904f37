import random
from fractions import Fraction
from itertools import permutations, product
from math import factorial

from helpers import (alpha_associator, basis_vector, combine, cup_bracket_lie,
                     dense_alternator, dense_comp_product,
                     dense_cup_product_assoc, dense_map, dense_overline_comp,
                     diamond, evaluate, multiply, zero_matrix)
from homcoh import fixtures
from homcoh.algebra import HomAlgebra, validate
from homcoh.bracket import (comp_product, cup_product_assoc,
                            gerstenhaber_bracket, nr_bracket, overline_comp)
from homcoh.cochain import (MultilinearMap, alternator, is_alternating,
                            permutation_sign)
from homcoh.cohomology import ModuleComplex
from homcoh.exact import Matrix, sparse_vector
from homcoh.operator import apply_operator, hom_operator, lie_operator
from homcoh.rep import HomMorphism


def vec(*xs):
    return tuple(Fraction(x) for x in xs)


def mul_map(A):
    values = {(i, j): A.mul[i][j] for i in range(A.dim) for j in range(A.dim)}
    return MultilinearMap.from_values(2, A.dim, A.dim, values)


def rand_map(rng, arity, sd, td, span=2):
    size = sd ** arity * td
    return dense_map(arity, sd, td, tuple(Fraction(rng.randint(-span, span))
                                          for _ in range(size)))


def test_comp_product_linear_insertion(a3):
    rng = random.Random(41)
    phi = rand_map(rng, 1, 3, 3)
    psi = rand_map(rng, 2, 3, 3)
    got = comp_product(a3, phi, psi)
    for t in product(range(3), repeat=2):
        args = [basis_vector(3, i) for i in t]
        expect = vec(0, 0, 0)
        for k in range(2):
            slots = list(args)
            slots[k] = evaluate(phi, [args[k]])
            term = evaluate(psi, slots)
            expect = tuple(a + b for a, b in zip(expect, term))
        assert got.value_on_basis(t) == expect


def test_sparse_products_match_dense_oracles(a3, l4a):
    """The insertion product, both graded brackets and the alternator
    against their dense forms, on twists whose powers are not the
    identity and not diagonal."""
    rng = random.Random(56)
    arities = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1))
    for A in (a3, fixtures.assoc2(), l4a, fixtures.g1(2, 3)):
        lie = A.kind == "lie"
        for pa, pb in arities:
            f = rand_map(rng, pa, A.dim, A.dim)
            g = rand_map(rng, pb, A.dim, A.dim)
            if lie:
                f, g = dense_alternator(f), dense_alternator(g)
            left = dense_comp_product(A, g, f)
            right = dense_comp_product(A, f, g)
            assert comp_product(A, f, g) == right, (A.name, pa, pb)
            assert comp_product(A, g, f) == left, (A.name, pb, pa)
            sign = (-1) ** ((pa - 1) * (pb - 1))
            assert gerstenhaber_bracket(A, f, g) == left - right.scale(sign)
            if lie:
                scale = Fraction(factorial(pa + pb - 1),
                                 factorial(pa) * factorial(pb))
                nr = dense_alternator(right) \
                    - dense_alternator(left).scale(sign)
                assert nr_bracket(A, f, g) == nr.scale(scale), \
                    (A.name, pa, pb)
        for k in (2, 3, 4):
            m = rand_map(rng, k, A.dim, 2)
            assert alternator(m) == dense_alternator(m), (A.name, k)


def test_morphism_products_match_dense_oracles():
    """The cup product, the insertion along a morphism and the pullback
    along it against their dense forms, on morphisms between algebras
    whose twists are not the identity, and on rational matrices."""
    rng = random.Random(57)
    phis = [fixtures.phi_assoc(), fixtures.phi12_1()]
    for phi in list(phis):
        rows = [[Fraction(rng.choice((0, rng.randint(-2, 2))),
                          rng.choice((1, 2, 3)))
                 for _ in range(phi.source.dim)]
                for _ in range(phi.target.dim)]
        phis.append(HomMorphism(phi.source, phi.target,
                                Matrix.from_rows(rows)))
    for phi in phis:
        n, m = phi.source.dim, phi.target.dim
        for p, q in ((0, 1), (1, 1), (1, 2), (2, 1), (2, 2)):
            f, g = rand_map(rng, p, n, m), rand_map(rng, q, n, m)
            assert cup_product_assoc(phi, f, g) == dense_cup_product_assoc(
                phi, f, g), (phi.source.name, p, q)
        for p, q in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3)):
            f, g = rand_map(rng, p, m, m), rand_map(rng, q, n, m)
            assert overline_comp(phi, f, g) == dense_overline_comp(
                phi, f, g), (phi.source.name, p, q)
        for k in (1, 2, 3):
            lam = rand_map(rng, k, m, 2)
            assert lam.pullback([MultilinearMap.from_matrix(phi.matrix)] * k) \
                == diamond(lam, phi)


def test_comp_product_zero_inputs(a3):
    rng = random.Random(42)
    psi = rand_map(rng, 2, 3, 3)
    zero = MultilinearMap.zero(2, 3, 3)
    assert comp_product(a3, zero, psi).is_zero()
    assert comp_product(a3, psi, zero).is_zero()


def test_comp_product_on_multiplication_detects_associator():
    dual = fixtures.dual_numbers()
    m = mul_map(dual)
    got = comp_product(dual, m, m)
    for t in product(range(2), repeat=3):
        x, y, z = (basis_vector(2, i) for i in t)
        expect = tuple(
            a - b for a, b in zip(
                multiply(dual, multiply(dual, x, y), z),
                multiply(dual, x, multiply(dual, y, z))))
        assert got.value_on_basis(t) == expect


def test_gerstenhaber_vanishes_on_valid_multiplication(a3):
    m = mul_map(a3)
    assert gerstenhaber_bracket(a3, m, m).is_zero()


def test_gerstenhaber_zero_argument(a3):
    rng = random.Random(43)
    psi = rand_map(rng, 2, 3, 3)
    zero = MultilinearMap.zero(2, 3, 3)
    assert gerstenhaber_bracket(a3, zero, psi).is_zero()


def test_gerstenhaber_graded_antisymmetry(a3):
    rng = random.Random(44)
    for _ in range(15):
        pa = rng.choice([1, 2, 3])
        pb = rng.choice([1, 2, 3])
        f = rand_map(rng, pa, 3, 3)
        g = rand_map(rng, pb, 3, 3)
        lhs = gerstenhaber_bracket(a3, f, g)
        rhs = gerstenhaber_bracket(a3, g, f)
        sign = (-1) ** ((pa - 1) * (pb - 1))
        assert lhs == rhs.scale(-sign)


def test_nr_bracket_detects_jacobi(heis):
    b = mul_map(heis)
    assert nr_bracket(heis, b, b).is_zero()
    G = fixtures.g1(2, 3)
    assert nr_bracket(G, mul_map(G), mul_map(G)).is_zero()


def test_nr_bracket_zero_argument(heis):
    zero = MultilinearMap.zero(2, 3, 3)
    assert nr_bracket(heis, zero, mul_map(heis)).is_zero()


def test_nr_outputs_alternating(heis):
    rng = random.Random(45)
    from homcoh.cochain import alternator
    f = alternator(rand_map(rng, 2, 3, 3))
    g = alternator(rand_map(rng, 2, 3, 3))
    out = nr_bracket(heis, f, g)
    assert is_alternating(out)


def test_nr_graded_antisymmetry(heis):
    rng = random.Random(46)
    from homcoh.cochain import alternator
    for _ in range(10):
        pa = rng.choice([1, 2])
        pb = rng.choice([1, 2])
        f = alternator(rand_map(rng, pa, 3, 3))
        g = alternator(rand_map(rng, pb, 3, 3))
        lhs = nr_bracket(heis, f, g)
        rhs = nr_bracket(heis, g, f)
        sign = (-1) ** ((pa - 1) * (pb - 1))
        assert lhs == rhs.scale(-sign)


def test_cup_product_zero_and_fixture_value(phi):
    zero = MultilinearMap.zero(1, 3, 2)
    f = MultilinearMap.from_matrix(phi.matrix)
    assert cup_product_assoc(phi, zero, f).is_zero()
    got = cup_product_assoc(phi, f, f)
    assert got.value_on_basis((0, 0)) == vec(1, -1)


def test_cup_bracket_graded_antisymmetry(phi):
    rng = random.Random(47)
    for _ in range(10):
        pa = rng.choice([1, 2])
        pb = rng.choice([1, 2])
        f = rand_map(rng, pa, 3, 2)
        g = rand_map(rng, pb, 3, 2)
        lhs = cup_product_assoc(phi, f, g)
        rhs = cup_product_assoc(phi, g, f)
        bracket = lhs - rhs.scale((-1) ** (pa * pb))
        mirror = rhs - lhs.scale((-1) ** (pa * pb))
        assert bracket == mirror.scale(-((-1) ** (pa * pb)))


def test_cup_bracket_lie_matches_permutation_oracle():
    G2 = fixtures.g2()
    rng = random.Random(48)
    f = rand_map(rng, 1, 3, 3)
    g = rand_map(rng, 1, 3, 3)
    got = cup_bracket_lie(G2, f, g)
    for t in product(range(3), repeat=2):
        args = [basis_vector(3, i) for i in t]
        expect = vec(0, 0, 0)
        for perm in permutations(range(2)):
            sign = permutation_sign(perm)
            term = multiply(G2, evaluate(f, [args[perm[0]]]),
                            evaluate(g, [args[perm[1]]]))
            expect = tuple(a + sign * b for a, b in zip(expect, term))
        assert got.value_on_basis(t) == expect


def test_cup_bracket_lie_zero_and_alternating():
    G2 = fixtures.g2()
    rng = random.Random(49)
    zero = MultilinearMap.zero(1, 3, 3)
    g = rand_map(rng, 1, 3, 3)
    assert cup_bracket_lie(G2, zero, g).is_zero()
    out = cup_bracket_lie(G2, rand_map(rng, 1, 3, 3), g)
    assert is_alternating(out)


def test_overline_comp_composition_case(phi):
    rng = random.Random(50)
    f = rand_map(rng, 1, 2, 2)
    g = rand_map(rng, 1, 3, 2)
    got = overline_comp(phi, f, g)
    for j in range(3):
        assert got.value_on_basis((j,)) == evaluate(
            f, [g.value_on_basis((j,))])


def test_overline_comp_two_slot_expansion(phi):
    rng = random.Random(51)
    mu_b = mul_map(phi.target)
    g = rand_map(rng, 1, 3, 2)
    got = overline_comp(phi, mu_b, g)
    for t in product(range(3), repeat=2):
        x, y = (basis_vector(3, i) for i in t)
        expect = tuple(a + b for a, b in zip(
            multiply(phi.target, evaluate(g, [x]), phi.apply(y)),
            multiply(phi.target, phi.apply(x), evaluate(g, [y]))))
        assert got.value_on_basis(t) == expect
    zero = MultilinearMap.zero(2, 2, 2)
    assert overline_comp(phi, zero, g).is_zero()


def test_diamond_identity_and_zero():
    G = fixtures.g1(2, 3)
    rng = random.Random(52)
    lam = rand_map(rng, 2, 3, 3)
    assert diamond(lam, HomMorphism(G, G, Matrix.identity(3))) == lam
    assert diamond(lam, HomMorphism(G, G, zero_matrix(3, 3))).is_zero()


def test_diamond_fixture_value():
    phi1 = fixtures.phi12_1()
    lam = mul_map(phi1.target)
    got = diamond(lam, phi1)
    assert got.value_on_basis((0, 1)) == vec(0, 0, 0)


def derivation_assoc(A, f):
    """The degree-one derivation: the merge summands of the coboundary."""
    n = f.arity
    op = hom_operator(A, f.target_dim, n, [(-1) ** (k + 1) for k in range(n)])
    return apply_operator(op, f)


def test_derivation_assoc_examples(a3):
    zero = MultilinearMap.zero(1, 3, 3)
    assert derivation_assoc(a3, zero).is_zero()
    f = MultilinearMap.from_values(1, 3, 3, {(1,): vec(0, 1, 0)})
    got = derivation_assoc(a3, f)
    # single term: minus the cochain applied to the product
    assert got.value_on_basis((0, 1)) == vec(0, -1, 0)


def test_derivation_matches_inner_summands_of_coboundary(a3):
    from helpers import alpha_power
    rng = random.Random(53)
    for _ in range(10):
        n = rng.choice([1, 2])
        f = rand_map(rng, n, 3, 3)
        df = ModuleComplex(a3).delta(f)
        ap = alpha_power(a3, n - 1)
        inner = derivation_assoc(a3, f)
        for t in product(range(3), repeat=n + 1):
            args = [basis_vector(3, i) for i in t]
            first = multiply(a3, ap.matvec(args[0]), evaluate(f, args[1:]))
            last = multiply(a3, evaluate(f, args[:n]), ap.matvec(args[n]))
            sign = (-1) ** (n + 1)
            boundary = tuple(a + sign * b for a, b in zip(first, last))
            assert df.value_on_basis(t) == tuple(
                a + b for a, b in zip(boundary, inner.value_on_basis(t)))


def test_derivation_lie_zero(heis):
    zero = MultilinearMap.zero(2, 3, 3)
    op = lie_operator(heis, 3, 2, reduced=False)
    assert apply_operator(op, zero).is_zero()


def test_alpha_associator_examples(a3):
    m = mul_map(a3)
    assert alpha_associator(a3, m, m).is_zero()
    zero = MultilinearMap.zero(2, 3, 3)
    assert alpha_associator(a3, zero, m).is_zero()
    assert alpha_associator(a3, m, zero).is_zero()
    inv = fixtures.invalid_assoc2()
    mi = mul_map(inv)
    got = alpha_associator(inv, mi, mi)
    assert got.value_on_basis((0, 0, 1)) == vec(-1, 0)


def test_comp_product_preserves_compatibility(a3):
    from helpers import hom_cochain_basis
    from homcoh.cochain import is_compatible
    rng = random.Random(55)
    s1 = hom_cochain_basis(a3, 3, a3.alpha, 1)
    s2 = hom_cochain_basis(a3, 3, a3.alpha, 2)
    for _ in range(5):
        phi = combine(s1, sparse_vector([Fraction(rng.randint(-2, 2))
                                         for _ in range(s1.dim)]))
        psi = combine(s2, sparse_vector([Fraction(rng.randint(-2, 2))
                                         for _ in range(s2.dim)]))
        out = comp_product(a3, phi, psi)
        assert is_compatible(out, a3.alpha, a3.alpha)


def test_gerstenhaber_detects_validity_iff():
    rng = random.Random(54)
    hits = 0
    for _ in range(50):
        mul = [[[Fraction(rng.randint(-2, 2)) for _ in range(2)]
                for _ in range(2)] for _ in range(2)]
        A = HomAlgebra("r", "associative", 2, mul, Matrix.identity(2))
        m = mul_map(A)
        assert gerstenhaber_bracket(A, m, m).is_zero() == validate(A).is_valid
        hits += not validate(A).is_valid
    assert hits > 0  # the sample genuinely exercises both directions
