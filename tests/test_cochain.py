import random
from fractions import Fraction
from itertools import product

import pytest

from helpers import bareiss_rank
from homcoh import fixtures
from homcoh.algebra import HomAlgebra
from homcoh.cochain import (MultilinearMap, alternator, hom_cochain_basis,
                            is_alternating, is_compatible, lie_cochain_basis,
                            morphism_cochain_space)
from homcoh.errors import ArityLimitError, UsageError
from homcoh.exact import Matrix


def vec(*xs):
    return tuple(Fraction(x) for x in xs)


def test_hom_basis_unconstrained_when_twists_are_identity():
    A = fixtures.assoc3(1, 1)  # identity twist
    space = hom_cochain_basis(A, 3, A.alpha, 1)
    assert space.dim == 9


def test_hom_basis_commutant_dimension(a3):
    # diag(1,1,2) on both sides at arity 1: a 2x2 block plus a 1x1 block
    space = hom_cochain_basis(a3, 3, a3.alpha, 1)
    assert space.dim == 5


def test_hom_basis_zero_structure_map_kills_everything():
    dual = fixtures.dual_numbers()
    space = hom_cochain_basis(dual, 2, Matrix.zero(2, 2), 1)
    assert space.dim == 0


def test_hom_basis_arity_zero_is_full_target():
    A = fixtures.assoc3(1, 2)
    space = hom_cochain_basis(A, 2, Matrix.zero(2, 2), 0)
    assert space.dim == 2


def test_lie_basis_small_dimensions():
    dual = fixtures.heisenberg()
    two = HomAlgebra("ab2", "lie",
                     2, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                     Matrix.identity(2))
    assert lie_cochain_basis(two, 1, Matrix.identity(1), 2).dim == 1
    assert lie_cochain_basis(two, 2, Matrix.identity(2), 3).dim == 0
    assert lie_cochain_basis(dual, 3, dual.alpha, 2).dim == 9


def _assemble_full_lie_constraints(L, target_dim, beta, k):
    """Unreduced constraint system over all tensor coordinates."""
    n = L.dim
    tuples = list(product(range(n), repeat=k))
    index = {t: i for i, t in enumerate(tuples)}
    nunk = len(tuples) * target_dim
    rows = []
    alpha_cols = [L.alpha.column(j) for j in range(n)]
    for ti, t in enumerate(tuples):
        for r in range(target_dim):
            row = [Fraction(0)] * nunk
            for s in range(target_dim):
                if beta.at(r, s):
                    row[ti * target_dim + s] += beta.at(r, s)
            for s in tuples:
                c = Fraction(1)
                for pos in range(k):
                    c *= alpha_cols[t[pos]][s[pos]]
                    if c == 0:
                        break
                if c:
                    row[index[s] * target_dim + r] -= c
            rows.append(row)
    for p in range(k - 1):
        for ti, t in enumerate(tuples):
            s = list(t)
            s[p], s[p + 1] = s[p + 1], s[p]
            si = index[tuple(s)]
            if si < ti:
                continue
            for r in range(target_dim):
                row = [Fraction(0)] * nunk
                row[ti * target_dim + r] += 1
                row[si * target_dim + r] += 1
                rows.append(row)
    return Matrix.from_rows(rows), nunk


def test_lie_basis_dimension_matches_rank_oracle():
    G = fixtures.g1(2, 3)
    space = lie_cochain_basis(G, 3, G.alpha, 2)
    system, nunk = _assemble_full_lie_constraints(G, 3, G.alpha, 2)
    assert space.dim == nunk - bareiss_rank(system)


def test_alternator_examples():
    f = MultilinearMap.from_values(2, 3, 3, {(0, 1): vec(0, 0, 1)})
    g = alternator(f)
    assert g.value_on_basis((0, 1)) == vec(0, 0, Fraction(1, 2))
    assert g.value_on_basis((1, 0)) == vec(0, 0, Fraction(-1, 2))
    assert alternator(g) == g

    symmetric = MultilinearMap.from_values(
        2, 2, 2, {(0, 1): vec(1, 0), (1, 0): vec(1, 0)})
    assert alternator(symmetric).is_zero()


def test_alternator_projects(a3):
    rng = random.Random(31)
    for _ in range(10):
        coeffs = tuple(Fraction(rng.randint(-2, 2)) for _ in range(27))
        g = alternator(MultilinearMap(2, 3, 3, coeffs))
        assert is_alternating(g)
        assert alternator(g) == g


def test_morphism_space_degree_one_connecting_is_whole_target(phi):
    _, _, space_ab = morphism_cochain_space(phi, 1, "hom")
    assert space_ab.arity == 0
    assert space_ab.dim == 2


def test_morphism_space_dimensions_additive(phi):
    sa, sb, sab = morphism_cochain_space(phi, 2, "hom")
    total = sa.dim + sb.dim + sab.dim
    assert total == sum(s.dim for s in (sa, sb, sab))
    assert sab.arity == 1


def test_morphism_space_components_match_individual_builders():
    phi2 = fixtures.phi12_2()
    sa, sb, sab = morphism_cochain_space(phi2, 2, "lie")
    A, B = phi2.source, phi2.target
    assert sa.dim == lie_cochain_basis(A, A.dim, A.alpha, 2).dim
    assert sb.dim == lie_cochain_basis(B, B.dim, B.alpha, 2).dim
    assert sab.dim == lie_cochain_basis(A, B.dim, B.alpha, 1).dim


def test_basis_elements_satisfy_their_constraints(a3, l4a):
    for k in (1, 2, 3):
        for f in hom_cochain_basis(a3, 3, a3.alpha, k).basis:
            assert is_compatible(f, a3.alpha, a3.alpha)
        for f in lie_cochain_basis(l4a, 4, l4a.alpha, k).basis:
            assert is_compatible(f, l4a.alpha, l4a.alpha)
            assert is_alternating(f)


def test_basis_determinism(a3):
    s1 = hom_cochain_basis(a3, 3, a3.alpha, 2)
    s2 = hom_cochain_basis(a3, 3, a3.alpha, 2)
    assert s1.basis == s2.basis


def test_dimension_bounded_by_full_tensor_space(a3):
    for k in (1, 2):
        space = hom_cochain_basis(a3, 3, a3.alpha, k)
        assert space.dim <= 3 ** k * 3
    ident = fixtures.assoc3(1, 1)
    assert hom_cochain_basis(ident, 3, ident.alpha, 2).dim == 27


def test_arity_guard(monkeypatch, a3):
    monkeypatch.setenv("HOMCOH_MAX_ARITY", "2")
    with pytest.raises(ArityLimitError):
        hom_cochain_basis(a3, 3, a3.alpha, 3)
    monkeypatch.setenv("HOMCOH_MAX_ARITY", "3")
    assert hom_cochain_basis(a3, 3, a3.alpha, 3).dim >= 0


@pytest.mark.parametrize("value", ["four", "-1", "2.5"])
def test_malformed_arity_setting_is_reported(monkeypatch, a3, value):
    monkeypatch.setenv("HOMCOH_MAX_ARITY", value)
    with pytest.raises(UsageError, match=repr(value)):
        hom_cochain_basis(a3, 3, a3.alpha, 1)


def test_evaluate_is_multilinear():
    rng = random.Random(32)
    f = MultilinearMap(2, 3, 2, tuple(Fraction(rng.randint(-2, 2))
                                      for _ in range(18)))
    x = vec(1, 2, 0)
    y = vec(0, 1, 1)
    z = vec(2, 0, 1)
    lhs = f.evaluate([tuple(a + b for a, b in zip(x, y)), z])
    rhs = tuple(a + b for a, b in zip(f.evaluate([x, z]), f.evaluate([y, z])))
    assert lhs == rhs
