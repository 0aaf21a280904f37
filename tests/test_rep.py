from fractions import Fraction
from itertools import product

import pytest

from homcoh import fixtures
from homcoh.algebra import ASSOCIATIVE, LIE, HomAlgebra
from homcoh.errors import UsageError
import random

from helpers import (apply_alpha, basis_vector, dense_action,
                     dense_validate_bimodule, dense_validate_lie_module,
                     multiply, zero_matrix)
from homcoh.exact import Matrix
from homcoh.rep import (HomMorphism, Module, adjoint_module, check_morphism,
                        self_module, validate_module)
from homcoh.selftest import random_valid_hom_algebra


def vec(*xs):
    return tuple(Fraction(x) for x in xs)


def test_check_morphism_fixture(phi):
    report = check_morphism(phi)
    assert report.is_valid


def test_check_morphism_identity_and_zero(a3, b2):
    assert check_morphism(HomMorphism(a3, a3, Matrix.identity(3))).is_valid
    assert check_morphism(HomMorphism(a3, b2, zero_matrix(2, 3))).is_valid


def test_check_morphism_reports_first_failure(a3, b2):
    bad = Matrix.from_rows([[1, 0, 0], [0, 0, 0]])
    report = check_morphism(HomMorphism(a3, b2, bad))
    assert not report.is_valid
    assert report.product_ok and report.product_witness is None
    assert report.twist_witness == ("e1", vec(0, 1))
    worse = Matrix.from_rows([[1, 1, 1], [0, 0, 0]])
    report = check_morphism(HomMorphism(a3, b2, worse))
    assert report.product_witness == (("e1", "e3"), vec(1, 0))
    assert report.twist_witness == ("e1", vec(0, 1))
    swapped = Matrix.from_rows([[0, 1, 0], [1, 0, 1]])
    report = check_morphism(HomMorphism(a3, b2, swapped))
    assert report.product_witness == (("e1", "e2"), vec(1, -1))
    assert report.twist_witness == ("e1", vec(0, 1))


def test_adjoint_bimodule_identity_is_multiplication(a3):
    phi_id = HomMorphism(a3, a3, Matrix.identity(3))
    M = adjoint_module(phi_id)
    left, right = dense_action(M.left, 3), dense_action(M.right, 3)
    for i, j in product(range(3), repeat=2):
        e_i, e_j = basis_vector(3, i), basis_vector(3, j)
        assert left(e_i, e_j) == a3.mul[i][j]
        assert right(e_j, e_i) == a3.mul[j][i]


def test_adjoint_bimodule_fixture_value(phi):
    M = adjoint_module(phi)
    left = dense_action(M.left, 2)
    assert left(basis_vector(3, 0), basis_vector(2, 0)) == vec(1, -1)


def test_adjoint_bimodule_satisfies_axioms(phi, a3):
    for M in (adjoint_module(phi),
              adjoint_module(HomMorphism(a3, a3, Matrix.identity(3))),
              self_module(fixtures.assoc2())):
        assert validate_module(M) == []


def test_lie_adjoint_identity_is_bracket():
    G = fixtures.g1(2, 3)
    P = adjoint_module(HomMorphism(G, G, Matrix.identity(3)))
    act = dense_action(P.left, 3)
    for i, j in product(range(3), repeat=2):
        assert act(basis_vector(3, i), basis_vector(3, j)) == G.mul[i][j]
    assert validate_module(P) == []


def test_lie_adjoint_fixture_values():
    # the target of phi12_2 is invalid as printed; the module is built
    # all the same
    phi2 = fixtures.phi12_2()
    act = dense_action(adjoint_module(phi2).left, 3)
    for m in range(3):
        assert act(basis_vector(3, 1), basis_vector(3, m)) == vec(0, 0, 0)
    phi1 = fixtures.phi12_1()
    act1 = dense_action(adjoint_module(phi1).left, 3)
    assert act1(basis_vector(3, 0), basis_vector(3, 2)) == vec(0, 1, 0)


def test_lie_adjoint_module_axioms_hold_for_valid_morphisms():
    G = fixtures.g1(2, 3)
    heis = fixtures.heisenberg()
    for P in (adjoint_module(HomMorphism(G, G, Matrix.identity(3))),
              adjoint_module(HomMorphism(heis, heis, Matrix.identity(3)))):
        assert validate_module(P) == []


def test_adjoint_right_axiom_mirror_holds(phi):
    # flagged companion check: the mirrored right-module axiom holds for
    # the adjoint construction by twisted associativity
    M = adjoint_module(phi)
    A, right = phi.source, dense_action(M.right, M.carrier_dim)
    for i, j in product(range(A.dim), repeat=2):
        x, y = basis_vector(3, i), basis_vector(3, j)
        for m in range(M.carrier_dim):
            v = basis_vector(2, m)
            lhs = right(M.beta.matvec(v), multiply(A, x, y))
            rhs = right(right(v, x), apply_alpha(A, y))
            assert lhs == rhs


def _bumped_action(rng, action, shape, dim: int):
    """The integer action with one random numerator, at any key (a pair of
    indices below ``shape``) and coordinate, moved by a random integer."""
    entries, den = action
    key = tuple(rng.randrange(k) for k in shape)
    slot = dict(entries.get(key, {}))
    r = rng.randrange(dim)
    slot[r] = slot.get(r, 0) + rng.choice((-2, -1, 1, 3))
    out = {k: v for k, v in entries.items() if k != key}
    if any(slot.values()):
        out[key] = {r: c for r, c in slot.items() if c}
    return out, den


def _bumped_matrix(rng, m):
    rows = [list(m.row(i)) for i in range(m.rows)]
    rows[rng.randrange(m.rows)][rng.randrange(m.cols)] += Fraction(
        rng.choice((-1, 1, 2)), rng.choice((1, 3)))
    return Matrix.from_rows(rows)


def _broken(rng, M):
    """M with one of its actions or its structure map bumped."""
    n, d = M.algebra.dim, M.carrier_dim
    fields = {"beta": M.beta, "left": M.left, "right": M.right}
    name = rng.choice([k for k, v in fields.items() if v is not None])
    fields[name] = (_bumped_matrix(rng, M.beta) if name == "beta" else
                    _bumped_action(rng, fields[name],
                                   (n, d) if name == "left" else (d, n), d))
    return Module(M.algebra, M.carrier_dim, **fields)


def _random_algebra(rng, kind: str, dim: int) -> HomAlgebra:
    """A dim-dimensional algebra of the kind with small random constants
    and a random twist: most often invalid, and for the Lie kind most
    often not skew."""
    def pick():
        return Fraction(rng.choice((0, 0, 1, -1, 2)), rng.choice((1, 2)))

    return HomAlgebra(f"random{dim}", kind, dim,
                      [[[pick() for _ in range(dim)] for _ in range(dim)]
                       for _ in range(dim)],
                      Matrix.from_rows([[pick() for _ in range(dim)]
                                        for _ in range(dim)]))


def test_sparse_bimodule_checks_match_the_dense_oracle(phi):
    rng = random.Random(71)
    bases = [self_module(fixtures.assoc3(1, 2)), adjoint_module(phi),
             self_module(fixtures.assoc2())]
    bases += [self_module(random_valid_hom_algebra(rng, "associative"))
              for _ in range(2)]
    # modules over invalid algebras, where the identity of A ⋉ M covers
    # the axioms and A's own identity fails
    invalid = [self_module(fixtures.invalid_assoc2())]
    invalid += [self_module(_random_algebra(rng, ASSOCIATIVE, dim))
                for dim in (2, 3, 2, 3)]
    seen = set()
    assert all(validate_module(M) == [] for M in bases)
    for M in bases + invalid:
        assert validate_module(M) == dense_validate_bimodule(M)
        for _ in range(12):
            bad = _broken(rng, M)
            got = validate_module(bad)
            assert got == dense_validate_bimodule(bad)
            seen.update(message.split(" fails")[0] for message in got)
    assert seen == {"left axiom", "right axiom", "compatibility"}


def test_sparse_lie_module_checks_match_the_dense_oracle():
    rng = random.Random(72)
    g = fixtures.g1(2, 3)
    bases = [self_module(g), self_module(fixtures.lie4a(1, 1, 1, 1)),
             adjoint_module(fixtures.phi12_1()),
             adjoint_module(HomMorphism(g, g, Matrix.identity(3)))]
    bases += [self_module(random_valid_hom_algebra(rng, "lie"))
              for _ in range(2)]
    # modules over invalid algebras, most of them not skew
    bases += [self_module(fixtures.g2())]
    bases += [self_module(_random_algebra(rng, LIE, dim))
              for dim in (2, 3, 2, 3)]
    seen = set()
    for P in bases:
        assert validate_module(P) == dense_validate_lie_module(P)
        for bad in [P] + [_broken(rng, P) for _ in range(12)]:
            got = validate_module(bad)
            assert got == dense_validate_lie_module(bad)
            seen.update(message.split(" fails")[0] for message in got)
    assert seen == {"structure-map axiom", "module condition"}


def test_self_module_is_the_adjoint_module_of_the_identity():
    rng = random.Random(73)
    algebras = [build() for build in fixtures.BUILTIN_FIXTURES.values()]
    algebras += [random_valid_hom_algebra(rng, kind)
                 for kind in (ASSOCIATIVE, LIE) * 4]
    for A in algebras:
        M = self_module(A)
        assert M == adjoint_module(HomMorphism(A, A, Matrix.identity(A.dim)))
        assert (M.right is None) == (A.kind == LIE)


@pytest.mark.parametrize("name", ["phi_assoc", "phi12_1", "phi12_2"])
def test_adjoint_actions_are_products_through_the_morphism(name):
    phi = fixtures.builtin("morphism", name)
    A, B = phi.source, phi.target
    M = adjoint_module(phi)
    left = dense_action(M.left, B.dim)
    right = M.right and dense_action(M.right, B.dim)
    for i, m in product(range(A.dim), range(B.dim)):
        x, e = basis_vector(A.dim, i), basis_vector(B.dim, m)
        assert left(x, e) == multiply(B, phi.apply(x), e)
        if right:
            assert right(e, x) == multiply(B, e, phi.apply(x))


def test_module_rejects_action_entries_outside_its_shape():
    """An action entry whose key or value coordinates lie outside the
    algebra and the carrier is refused, not ignored."""
    g, alpha = fixtures.g1(2, 3), Matrix.identity(2)
    a3 = fixtures.assoc3(1, 2)
    fine = {(2, 1): {0: 1}}
    for left, right, named in (
            ({(0, 7): {1: 1}, (5, 0): {9: 1}}, None, r"left .*\(0, 7\)"),
            ({(3, 0): {0: 1}}, None, r"left .*\(3, 0\)"),
            ({(-1, 0): {0: 1}}, None, r"left .*\(-1, 0\)"),
            ({(0, 1): {2: 1}}, None, r"left .*\(0, 1\) .*\[2\]"),
            (fine, {(1, 3): {0: 1}}, r"right .*\(1, 3\) .*\[0\]"),
            (fine, {(2, 0): {0: 1}}, r"right .*\(2, 0\)"),
            (fine, {(0, 0): {-1: 1}}, r"right .*\(0, 0\) .*\[-1\]")):
        X = g if right is None else a3
        with pytest.raises(UsageError, match=named):
            Module(X, 2, alpha, (left, 1), right and (right, 1))
    assert Module(a3, 2, alpha, (fine, 1), ({(1, 2): {1: 1}}, 1)).left[0] \
        == fine


def test_module_rejects_actions_of_the_other_kind(a3, heis):
    assoc, lie = self_module(a3), self_module(heis)
    with pytest.raises(UsageError, match="right action"):
        Module(a3, 3, a3.alpha, assoc.left, None)
    with pytest.raises(UsageError, match="right action"):
        Module(heis, 3, heis.alpha, lie.left, lie.left)
    with pytest.raises(UsageError, match="beta"):
        Module(a3, 2, a3.alpha, assoc.left, assoc.right)
    with pytest.raises(UsageError, match="one kind"):
        adjoint_module(HomMorphism(a3, heis, zero_matrix(3, 3)))
