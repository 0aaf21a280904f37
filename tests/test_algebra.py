import random
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from helpers import (apply_alpha, dense_morphism_witnesses, dense_validity,
                     scaled_matrix, zero_matrix)
from helpers import multiply as dense_multiply
from homcoh import algebra, fixtures
from homcoh.algebra import (ASSOCIATIVE, LIE, HomAlgebra, multiply,
                            product_tensor, validate, yau_twist)
from homcoh.cohomology import ModuleComplex
from homcoh.errors import MorphismViolation, UsageError
from homcoh.exact import Matrix
from homcoh.rep import HomMorphism, check_morphism, self_module
from homcoh.selftest import _conjugate, _rand_invertible, random_valid_hom_algebra


def vec(*xs):
    return tuple(Fraction(x) for x in xs)


def test_multiply_examples(a3, b2):
    assert multiply(a3, vec(1, 0, 0), vec(0, 1, 0)) == vec(0, 1, 0)
    assert multiply(a3, vec(0, 0, 0), vec(1, 2, 3)) == vec(0, 0, 0)
    assert multiply(b2, vec(1, 1), vec(1, 0)) == vec(1, 1)


def test_multiply_matches_the_dense_oracle():
    rng = random.Random(23)
    for kind in (ASSOCIATIVE, LIE):
        for _ in range(4):
            A = random_valid_hom_algebra(rng, kind)
            for _ in range(5):
                x, y = ([Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                         for _ in range(A.dim)] for _ in range(2))
                got = multiply(A, x, y)
                assert got == dense_multiply(A, x, y)
                assert all(type(c) is Fraction for c in got)


def test_twist_power_rejects_a_negative_exponent(a3):
    # alpha^-1 once came back as the identity over a float denominator
    for X in (a3, fixtures.lie4b(2, 1, 1, 1, 1)):
        assert X.twist_power(0) == ({j: {j: 1} for j in range(X.dim)}, 1)
        with pytest.raises(UsageError, match="-1"):
            X.twist_power(-1)


def test_apply_alpha_examples(a3, b2):
    assert apply_alpha(a3, vec(0, 0, 1)) == vec(0, 0, 2)
    dual = fixtures.dual_numbers()
    assert apply_alpha(dual, vec(5, -3)) == vec(5, -3)
    assert apply_alpha(b2, vec(1, 0)) == vec(1, -1)


def test_validate_fixture_algebras(a3, l4a):
    for A in (a3, fixtures.assoc3(1, 1), fixtures.assoc2(), l4a,
              fixtures.g1(2, 3), fixtures.lie4b(2, 1, 1, 1, 1)):
        report = validate(A)
        assert report.is_valid, A.name
        assert report.multiplicative, A.name


def test_validate_invalid_example_with_witness():
    report = validate(fixtures.invalid_assoc2())
    assert not report.is_valid
    names, defect = report.witness
    assert names == ("e1", "e1", "e2")
    assert defect == vec(-1, 0)


def test_validate_g2_reports_jacobi_defect(g2):
    report = validate(g2)
    assert not report.is_valid
    names, defect = report.witness
    assert names == ("f1", "f2", "f3")
    assert defect == vec(1, -4, -1)
    assert not report.multiplicative


def test_lie_validate_checks_stored_skewness():
    mul = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    mul[0][1][0] = Fraction(1)  # missing the mirrored entry
    L = HomAlgebra("notskew", LIE, 2, mul, Matrix.identity(2))
    report = validate(L)
    assert not report.is_valid
    assert report.witness[0] == ("e1", "e2")


def test_lie_bracket_vanishes_on_diagonal():
    rng = random.Random(21)
    for _ in range(20):
        L = random_valid_hom_algebra(rng, LIE)
        x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(L.dim))
        assert multiply(L, x, x) == (Fraction(0),) * L.dim


def test_yau_twist_identity_is_noop(a3):
    out = yau_twist(a3, Matrix.identity(3))
    assert out.mul == a3.mul
    assert out.alpha == a3.alpha


def test_yau_twist_dual_numbers():
    out = yau_twist(fixtures.dual_numbers(),
                    Matrix.from_rows([[1, 0], [0, 3]]))
    assert out.mul[0][1] == vec(0, 3)
    assert validate(out).is_valid


def test_yau_twist_heisenberg():
    gamma = Matrix.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 6]])
    out = yau_twist(fixtures.heisenberg(), gamma)
    assert out.mul[0][1] == vec(0, 0, 6)
    assert validate(out).is_valid


def test_yau_twist_rejects_non_multiplicative_map():
    bad = Matrix.from_rows([[2, 0], [0, 1]])
    with pytest.raises(MorphismViolation) as err:
        yau_twist(fixtures.dual_numbers(), bad)
    assert err.value.witness is not None


def test_yau_twist_of_random_ordinary_algebras_validates():
    rng = random.Random(22)
    for t in range(20):
        kind = ASSOCIATIVE if t % 2 else LIE
        A = random_valid_hom_algebra(rng, kind)
        assert validate(A).is_valid


def test_validate_survives_base_change(a3, g2):
    rng = random.Random(23)
    for A in (a3, fixtures.g1(2, 3), g2):
        for _ in range(5):
            P = _rand_invertible(rng, A.dim)
            conj = _conjugate(A, P)
            assert validate(conj).is_valid == validate(A).is_valid


def _random_matrix(rng, rows: int, cols: int) -> Matrix:
    return Matrix.from_rows([[rng.choice([-1, 0, 0, 1, 2])
                              for _ in range(cols)] for _ in range(rows)])


def _random_algebra(rng, kind: str, skew: bool = True,
                    zero_mul: bool = False) -> HomAlgebra:
    """Small random structure constants and twist, mostly invalid; a Lie
    tensor is made skew unless ``skew`` is false."""
    n = rng.randint(1, 3)
    mul = [[[Fraction(0 if zero_mul else rng.choice([-1, 0, 0, 0, 1, 2]))
             for _ in range(n)] for _ in range(n)] for _ in range(n)]
    if kind == LIE and skew:
        for i, j in product(range(n), repeat=2):
            if i >= j:
                mul[i][j] = [-x for x in mul[j][i]] if i > j else [0] * n
    return HomAlgebra("random", kind, n, mul, _random_matrix(rng, n, n))


def _random_algebras(seed: int, count: int) -> list[HomAlgebra]:
    rng = random.Random(seed)
    return [_random_algebra(rng, ASSOCIATIVE if t % 2 else LIE,
                            skew=t % 6 != 0, zero_mul=t % 10 == 9)
            for t in range(count)]


def _fixture_algebras() -> list[HomAlgebra]:
    return [build() for _, build in sorted(fixtures.BUILTIN_FIXTURES.items())]


def test_validity_witnesses_match_dense_oracles():
    randoms = _random_algebras(31, 240)
    for A in _fixture_algebras() + randoms:
        report = validate(A)
        assert (report.witness, report.multiplicativity_witness) == \
            dense_validity(A), A.name
        assert report.is_valid == (report.witness is None)
    invalid = [A for A in randoms if not validate(A).is_valid]
    assert len(invalid) > len(randoms) // 2
    # non-skew Lie tensors fail at a basis pair, others at a basis triple
    assert {len(validate(A).witness[0]) for A in invalid
            if A.kind == LIE} == {2, 3}
    assert any(not validate(A).multiplicative for A in randoms)


def test_morphism_witnesses_match_dense_oracles():
    rng = random.Random(32)
    algebras = _fixture_algebras()
    cases = [(phi.source, phi.target, phi.matrix) for phi in
             (build() for build in fixtures.BUILTIN_MORPHISMS.values())]
    cases += [(A, A, Matrix.identity(A.dim)) for A in algebras]
    for _ in range(300):
        A, B = rng.choice(algebras), rng.choice(algebras)
        cases.append((A, B, _random_matrix(rng, B.dim, A.dim)
                      if rng.random() < 0.9 else zero_matrix(B.dim, A.dim)))
    verdicts = set()
    for A, B, m in cases:
        report = check_morphism(HomMorphism(A, B, m))
        expected = dense_morphism_witnesses(A, B, m)
        assert (report.product_witness, report.twist_witness) == expected
        verdicts.add((report.product_ok, report.twist_ok))
    assert verdicts == {(True, True), (True, False), (False, True),
                        (False, False)}


def test_witnesses_over_denominators_match_dense_oracles():
    """The kernel runs on integer constants over one denominator per side;
    its witnesses must be the rational defects, so inputs and matrices
    here have several denominators."""
    rng = random.Random(36)
    algebras = [_conjugate(A, _rand_invertible(rng, A.dim))
                for A in _random_algebras(37, 60)]
    witnesses = []
    for A in algebras:
        report = validate(A)
        assert (report.witness, report.multiplicativity_witness) == \
            dense_validity(A), A.name
        witnesses += [report.witness, report.multiplicativity_witness]
    for _ in range(200):
        A, B = rng.choice(algebras), rng.choice(algebras)
        m = scaled_matrix(_random_matrix(rng, B.dim, A.dim),
                          Fraction(rng.choice([1, 2]), rng.choice([1, 3])))
        report = check_morphism(HomMorphism(A, B, m))
        expected = dense_morphism_witnesses(A, B, m)
        assert (report.product_witness, report.twist_witness) == expected
        witnesses += expected
    dens = {x.denominator for w in witnesses if w for x in w[1]}
    assert len(dens) > 2, dens


def test_yau_twist_rejections_match_dense_oracles():
    rng = random.Random(33)
    outcomes = set()
    for A in _fixture_algebras() + _random_algebras(34, 120):
        for gamma in (_random_matrix(rng, A.dim, A.dim),
                      scaled_matrix(Matrix.identity(A.dim),
                                    rng.choice([0, 1]))):
            product_witness, twist_witness = \
                dense_morphism_witnesses(A, A, gamma)
            if product_witness is None and twist_witness is None:
                out = yau_twist(A, gamma)
                assert out.mul == tuple(tuple(gamma.matvec(v) for v in row)
                                        for row in A.mul)
                outcomes.add("accepted")
                continue
            with pytest.raises(MorphismViolation) as err:
                yau_twist(A, gamma)
            assert err.value.witness == (product_witness or twist_witness)
            outcomes.add("product" if product_witness else "twist")
    assert outcomes == {"accepted", "product", "twist"}


def _renamed(A: HomAlgebra, names) -> HomAlgebra:
    return HomAlgebra(A.name, A.kind, A.dim, A.mul, A.alpha, names)


def test_basis_names_given_as_a_list_are_stored_as_a_tuple(a3):
    listed = _renamed(a3, ["x", "y", "z"])
    tupled = _renamed(a3, ("x", "y", "z"))
    assert listed.basis_names == ("x", "y", "z")
    assert listed == tupled and hash(listed) == hash(tupled)
    # a module over one copy belongs to the other
    complex_ = ModuleComplex(_renamed(a3, ["x", "y", "z"]),
                             self_module(listed))
    assert complex_.algebra == tupled


@pytest.mark.parametrize("names, message", [
    (("x", "y", (1,)), r"basis name \(1,\) is not a string"),
    ([1, 2, 3], "basis name 1 is not a string"),
    (["x", None, "z"], "basis name None is not a string"),
    (("x", "y"), "basis_names length != dim"),
    (("x", "y", "x"), "basis names must be distinct")])
def test_basis_names_must_be_strings_one_per_basis_vector(a3, names, message):
    with pytest.raises(UsageError, match=message):
        _renamed(a3, names)


@pytest.mark.parametrize("shape", ["too few rows", "extra row",
                                   "extra column", "short row"])
def test_structure_constants_must_have_the_algebra_shape(a3, shape):
    """A tensor of another shape than dim x dim is refused, neither read
    past its end nor cut to size."""
    mul = [list(row) for row in a3.mul]
    zero = (0,) * a3.dim
    if shape == "too few rows":
        del mul[-1]
    elif shape == "extra row":
        mul.append([zero] * a3.dim)
    elif shape == "extra column":
        mul[0].append(zero)
    else:
        del mul[1][0]
    with pytest.raises(UsageError, match="structure constants must be 3 "
                                         "rows of 3 vectors"):
        HomAlgebra(a3.name, a3.kind, a3.dim, mul, a3.alpha)


def test_product_tensor_lays_out_the_nonzero_products():
    assert product_tensor(ASSOCIATIVE, 2, {(0, 1): {1: 3}, (1, 0): {0: 2}}) \
        == [[[0, 0], [0, 3]], [[2, 0], [0, 0]]]
    # a Lie pair given in one order is completed by its negative
    assert product_tensor(LIE, 2, {(0, 1): {0: 1, 1: Fraction(1, 2)}}) \
        == [[[0, 0], [1, Fraction(1, 2)]], [[-1, Fraction(-1, 2)], [0, 0]]]
    # a pair given in both orders is laid out as given
    assert product_tensor(LIE, 2, {(0, 1): {1: 1}, (1, 0): {1: 5},
                                   (1, 1): {0: 1}}) \
        == [[[0, 0], [0, 1]], [[0, 5], [1, 0]]]


def test_a_tensor_over_the_bound_is_refused_before_it_is_allocated():
    bound = algebra.MAX_TENSOR_ENTRIES
    assert 215 ** 3 <= bound < 216 ** 3
    tracemalloc.start()
    try:
        with pytest.raises(UsageError, match=f"dim 216 needs {216 ** 3} "
                           f"structure constants, over the bound {bound}"):
            product_tensor(LIE, 216, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024
