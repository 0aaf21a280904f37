from fractions import Fraction
from itertools import product

import pytest

from homcoh import fixtures
from homcoh.algebra import apply_alpha, multiply
from homcoh.errors import InvalidAlgebra, InvalidMorphism
import random

from helpers import (basis_vector, dense_validate_bimodule,
                     dense_validate_lie_module)
from homcoh.exact import Matrix
from homcoh.rep import (HomMorphism, adjoint_bimodule, check_morphism,
                        lie_adjoint_module, self_bimodule, self_lie_module,
                        validate_bimodule, validate_lie_module)
from homcoh.selftest import random_valid_hom_algebra


def vec(*xs):
    return tuple(Fraction(x) for x in xs)


def test_check_morphism_fixture(phi):
    report = check_morphism(phi.source, phi.target, phi.matrix)
    assert report.is_valid


def test_check_morphism_identity_and_zero(a3, b2):
    assert check_morphism(a3, a3, Matrix.identity(3)).is_valid
    assert check_morphism(a3, b2, Matrix.zero(2, 3)).is_valid


def test_check_morphism_reports_first_failure(a3, b2):
    bad = Matrix.from_rows([[1, 0, 0], [0, 0, 0]])
    report = check_morphism(a3, b2, bad)
    assert not report.is_valid
    assert report.product_ok and report.product_witness is None
    assert report.twist_witness == ("e1", vec(0, 1))
    worse = Matrix.from_rows([[1, 1, 1], [0, 0, 0]])
    report = check_morphism(a3, b2, worse)
    assert report.product_witness == (("e1", "e3"), vec(1, 0))
    assert report.twist_witness == ("e1", vec(0, 1))
    swapped = Matrix.from_rows([[0, 1, 0], [1, 0, 1]])
    report = check_morphism(a3, b2, swapped)
    assert report.product_witness == (("e1", "e2"), vec(1, -1))
    assert report.twist_witness == ("e1", vec(0, 1))


def test_adjoint_bimodule_identity_is_multiplication(a3):
    phi_id = HomMorphism(a3, a3, Matrix.identity(3))
    M = adjoint_bimodule(phi_id)
    for i, j in product(range(3), repeat=2):
        assert M.rho_l[i][j] == a3.mul[i][j]
        assert M.rho_r[j][i] == a3.mul[j][i]


def test_adjoint_bimodule_fixture_value(phi):
    M = adjoint_bimodule(phi)
    assert M.left(basis_vector(3, 0), basis_vector(2, 0)) == vec(1, -1)


def test_adjoint_bimodule_satisfies_axioms(phi, a3):
    for M in (adjoint_bimodule(phi),
              adjoint_bimodule(HomMorphism(a3, a3, Matrix.identity(3))),
              self_bimodule(fixtures.assoc2())):
        assert validate_bimodule(M) == []


def test_adjoint_bimodule_rejects_invalid_morphism(a3, b2):
    bad = Matrix.from_rows([[1, 0, 0], [0, 0, 0]])
    with pytest.raises(InvalidMorphism):
        adjoint_bimodule(HomMorphism(a3, b2, bad))


def test_lie_adjoint_identity_is_bracket():
    G = fixtures.g1(2, 3)
    P = lie_adjoint_module(HomMorphism(G, G, Matrix.identity(3)))
    for i, j in product(range(3), repeat=2):
        assert P.action[i][j] == G.mul[i][j]
    assert validate_lie_module(P) == []


def test_lie_adjoint_fixture_values():
    # target is invalid as printed, so construction must be non-strict
    phi2 = fixtures.phi12_2()
    P = lie_adjoint_module(phi2, strict=False)
    for m in range(3):
        assert P.act(basis_vector(3, 1), basis_vector(3, m)) == vec(0, 0, 0)
    phi1 = fixtures.phi12_1()
    P1 = lie_adjoint_module(phi1, strict=False)
    assert P1.act(basis_vector(3, 0), basis_vector(3, 2)) == vec(0, 1, 0)


def test_lie_adjoint_strict_rejects_invalid_target():
    with pytest.raises(InvalidAlgebra):
        lie_adjoint_module(fixtures.phi12_2(), strict=True)


def test_lie_adjoint_module_axioms_hold_for_valid_morphisms():
    G = fixtures.g1(2, 3)
    heis = fixtures.heisenberg()
    for P in (lie_adjoint_module(HomMorphism(G, G, Matrix.identity(3))),
              lie_adjoint_module(HomMorphism(heis, heis, Matrix.identity(3)))):
        assert validate_lie_module(P) == []


def test_adjoint_right_axiom_mirror_holds(phi):
    # flagged companion check: the mirrored right-module axiom holds for
    # the adjoint construction by twisted associativity
    M = adjoint_bimodule(phi)
    A = phi.source
    for i, j in product(range(A.dim), repeat=2):
        x, y = basis_vector(3, i), basis_vector(3, j)
        for m in range(M.carrier_dim):
            v = basis_vector(2, m)
            lhs = M.right(M.apply_beta(v), multiply(A, x, y))
            rhs = M.right(M.right(v, x), apply_alpha(A, y))
            assert lhs == rhs


def _bumped_tensor(rng, tensor):
    """tensor with one random coordinate moved by a random rational."""
    out = [[list(v) for v in row] for row in tensor]
    i, j = rng.randrange(len(out)), rng.randrange(len(out[0]))
    out[i][j][rng.randrange(len(out[i][j]))] += Fraction(
        rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
    return out


def _bumped_matrix(rng, m):
    rows = [list(m.row(i)) for i in range(m.rows)]
    rows[rng.randrange(m.rows)][rng.randrange(m.cols)] += Fraction(
        rng.choice((-1, 1, 2)), rng.choice((1, 3)))
    return Matrix.from_rows(rows)


def _broken(rng, M):
    """M with one of its actions or its structure map bumped."""
    fields = {"beta": M.beta}
    fields.update({name: getattr(M, name) for name in ("rho_l", "rho_r",
                                                          "action")
                   if hasattr(M, name)})
    name = rng.choice(sorted(fields))
    fields[name] = (_bumped_matrix(rng, fields[name]) if name == "beta"
                    else _bumped_tensor(rng, fields[name]))
    return type(M)(algebra=M.algebra, carrier_dim=M.carrier_dim, **fields)


def test_sparse_bimodule_checks_match_the_dense_oracle(phi):
    rng = random.Random(71)
    bases = [self_bimodule(fixtures.assoc3(1, 2)), adjoint_bimodule(phi),
             self_bimodule(fixtures.assoc2())]
    bases += [self_bimodule(random_valid_hom_algebra(rng, "associative"))
              for _ in range(2)]
    seen = set()
    for M in bases:
        assert validate_bimodule(M) == dense_validate_bimodule(M) == []
        for _ in range(12):
            bad = _broken(rng, M)
            got = validate_bimodule(bad)
            assert got == dense_validate_bimodule(bad)
            seen.update(message.split(" fails")[0] for message in got)
    assert seen == {"left axiom", "right axiom", "compatibility"}


def test_sparse_lie_module_checks_match_the_dense_oracle():
    rng = random.Random(72)
    g = fixtures.g1(2, 3)
    bases = [self_lie_module(g), self_lie_module(fixtures.lie4a(1, 1, 1, 1)),
             lie_adjoint_module(fixtures.phi12_1(), strict=False),
             lie_adjoint_module(HomMorphism(g, g, Matrix.identity(3)))]
    bases += [self_lie_module(random_valid_hom_algebra(rng, "lie"))
              for _ in range(2)]
    seen = set()
    for P in bases:
        assert validate_lie_module(P) == dense_validate_lie_module(P)
        for bad in [P] + [_broken(rng, P) for _ in range(12)]:
            got = validate_lie_module(bad)
            assert got == dense_validate_lie_module(bad)
            seen.update(message.split(" fails")[0] for message in got)
    assert seen == {"structure-map axiom", "module condition"}
