import random
import tracemalloc
from fractions import Fraction
from itertools import product
from math import lcm, prod

import pytest

from helpers import (bareiss_rank, beta_rows, dense_coeffs, dense_evaluate,
                     dense_is_alternating, dense_is_compatible, dense_map,
                     dense_nonzero_entries, dense_pullback, dense_pushforward,
                     dense_to_full, evaluate, hom_cochain_basis,
                     lie_cochain_basis, zero_matrix)
from homcoh import cochain, fixtures
from homcoh.algebra import ASSOCIATIVE, LIE, HomAlgebra
from homcoh.cochain import (CochainSpace, Coords, MorphismCochain,
                            MorphismCoords, MultilinearMap, alternator,
                            compatibility_rows, is_alternating, is_compatible)
from homcoh.cohomology import MorphismComplex
from homcoh.errors import ArityLimitError, UsageError
from homcoh.exact import Matrix, dense_vector, sparse_vector
from homcoh.selftest import _rand_invertible


def vec(*xs):
    return tuple(Fraction(x) for x in xs)


def test_reduced_coordinates_locate_every_tuple_by_its_inversions():
    for k in range(5):
        system = Coords(k, 4, 1, True)
        for t in product(range(4), repeat=k):
            inversions = sum(t[i] > t[j] for i in range(k)
                             for j in range(i + 1, k))
            expected = None if len(set(t)) < k else (
                system.index[tuple(sorted(t))], (-1) ** inversions)
            assert system.locate(t) == expected, t


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
    space = hom_cochain_basis(dual, 2, zero_matrix(2, 2), 1)
    assert space.dim == 0


def test_basis_coordinates_store_only_their_nonzero_entries():
    zero = HomAlgebra("zero4", "associative", 4,
                      [[[0] * 4 for _ in range(4)] for _ in range(4)],
                      Matrix.identity(4))
    space = hom_cochain_basis(zero, 4, zero.alpha, 4)
    assert space.dim == 4 ** 4 * 4
    assert sum(len(v) for v in space.coords) == 1024  # one unit per element
    # morphism coordinates shift each component's indices, with no padding
    phi = fixtures.phi_assoc()
    A, B = phi.source, phi.target
    space = MorphismComplex(phi).bound_space(2)
    parts = (hom_cochain_basis(A, A.dim, A.alpha, 2),
             hom_cochain_basis(B, B.dim, B.alpha, 2),
             hom_cochain_basis(A, B.dim, B.alpha, 1))
    assert sum(len(v) for v in space.coords) == sum(
        len(v) for part in parts for v in part.coords)
    zeros = [MultilinearMap.zero(p.arity, p.source_dim, p.target_dim)
             for p in space.system.parts]
    expected = []
    for i, part in enumerate(parts):
        for f in part.basis:
            expected.append(MorphismCochain(*zeros[:i], f, *zeros[i + 1:]))
    assert space.basis == tuple(expected)


def test_hom_basis_arity_zero_is_full_target():
    A = fixtures.assoc3(1, 2)
    space = hom_cochain_basis(A, 2, zero_matrix(2, 2), 0)
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
        g = alternator(dense_map(2, 3, 3, coeffs))
        assert is_alternating(g)
        assert alternator(g) == g


def component_spaces(space: CochainSpace) -> list[CochainSpace]:
    """The comp_A, comp_B and comp_AB spaces of a morphism cochain space:
    the basis vectors that start in each part, in that part's own
    coordinates."""
    system, out = space.system, []
    for part, start in zip(system.parts, system.starts):
        out.append(CochainSpace(part, tuple(
            {k - start: x for k, x in v.items()} for v in space.coords
            if start <= min(v) < start + part.dim)))
    return out


def test_morphism_space_degree_one_connecting_is_whole_target(phi):
    space_ab = component_spaces(MorphismComplex(phi).bound_space(1))[2]
    assert space_ab.system.arity == 0
    assert space_ab.dim == 2


def test_morphism_space_dimensions_additive(phi):
    space = MorphismComplex(phi).bound_space(2)
    sa, sb, sab = component_spaces(space)
    total = space.dim
    assert total == sum(s.dim for s in (sa, sb, sab))
    assert sab.system.arity == 1


def test_morphism_space_components_match_individual_builders():
    phi2 = fixtures.phi12_2()
    space = MorphismComplex(phi2).bound_space(2)
    sa, sb, sab = component_spaces(space)
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
    f = dense_map(2, 3, 2, tuple(Fraction(rng.randint(-2, 2))
                                 for _ in range(18)))
    x = vec(1, 2, 0)
    y = vec(0, 1, 1)
    z = vec(2, 0, 1)
    lhs = evaluate(f, [tuple(a + b for a, b in zip(x, y)), z])
    rhs = tuple(a + b for a, b in zip(evaluate(f, [x, z]),
                                      evaluate(f, [y, z])))
    assert lhs == rhs


def rand_coordinates(rng, n):
    """n random rationals: zeros, negatives and non-integers among them."""
    return tuple(Fraction(rng.choice((0, 0, rng.randint(-5, 5))),
                          rng.choice((1, 1, 2, 3, 7))) for _ in range(n))


def test_to_full_gathers_the_dense_tensor():
    # to_full skips the constructor's per-entry check, so equality with
    # the checked map of the same tensor is what pins its entries
    rng = random.Random(41)
    for arity in range(5):
        for source_dim, target_dim in ((1, 1), (2, 3), (3, 1), (4, 2)):
            for reduced in (False, True):
                system = Coords(arity, source_dim, target_dim, reduced)
                for _ in range(3):
                    x = rand_coordinates(rng, system.dim)
                    full = system.to_full(sparse_vector(x))
                    assert full == dense_to_full(system, x)
                    assert system.project(full) == sparse_vector(x)
    for arity in range(1, 5):
        for reduced in (False, True):
            parts = (Coords(arity, 3, 3, reduced),
                     Coords(arity, 2, 2, reduced),
                     Coords(arity - 1, 3, 2, reduced))
            morphism = MorphismCoords(parts)
            x = rand_coordinates(rng, morphism.dim)
            c = morphism.to_full(sparse_vector(x))
            cuts = (0, parts[0].dim, parts[0].dim + parts[1].dim,
                    morphism.dim)
            assert (c.comp_A, c.comp_B, c.comp_AB) == tuple(
                dense_to_full(p, x[a:b])
                for p, a, b in zip(parts, cuts, cuts[1:]))


def rand_sparse_coefficients(rng, n):
    """n rationals, two thirds of them zero."""
    return tuple(Fraction(rng.choice((0, 0, rng.randint(-3, 3))),
                          rng.choice((1, 2, 3))) for _ in range(n))


def test_sparse_maps_match_the_flat_tensor():
    rng = random.Random(61)
    for arity in range(4):
        for sd, td in ((1, 1), (2, 3), (3, 2), (4, 1)):
            size = sd ** arity * td
            x, y = (rand_sparse_coefficients(rng, size) for _ in range(2))
            f, g = dense_map(arity, sd, td, x), dense_map(arity, sd, td, y)
            assert dense_coeffs(f) == x
            assert all(v and all(v.values()) for v in f.entries.values())
            assert len(f.entries) == sum(
                any(x[i:i + td]) for i in range(0, size, td))
            c = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
            assert dense_coeffs(f + g) == tuple(a + b for a, b in zip(x, y))
            assert dense_coeffs(f - g) == tuple(a - b for a, b in zip(x, y))
            assert dense_coeffs(f.scale(c)) == tuple(c * a for a in x)
            assert dense_coeffs(-f) == tuple(-a for a in x)
            assert (f - f).is_zero() and f.scale(0).is_zero()
            assert f.is_zero() == (not any(x))
            assert (f == g) == (x == y)
            assert f + g - g == f
            # lexicographic order of the argument tuples, whatever order
            # the entries were made in
            for h in (f, g + f, alternator(f)):
                assert [(t, dense_vector(v, td)) for t, v in
                        h.nonzero_entries()] == dense_nonzero_entries(h)
            for _ in range(3):
                args = [rand_sparse_coefficients(rng, sd)
                        for _ in range(arity)]
                assert evaluate(f, args) == dense_evaluate(f, args)


def test_structure_checks_match_dense_oracles(a3, l4a):
    """is_alternating, is_compatible, pullback and pushforward against
    their dense forms, on twists that are not the identity."""
    rng = random.Random(62)
    g = fixtures.g1(2, 3)
    seen = set()
    for A, d in ((a3, 3), (l4a, 4), (g, 3), (a3, 2)):
        n = A.dim
        twists = (A.alpha, _rand_invertible(rng, n))
        for k in (1, 2, 3):
            maps = [alternator(dense_map(k, n, d, rand_sparse_coefficients(
                rng, n ** k * d))) for _ in range(2)]
            maps += [dense_map(k, n, d, rand_sparse_coefficients(
                rng, n ** k * d)) for _ in range(2)]
            beta = Matrix.identity(d) if d != n else A.alpha
            if d == n:
                maps += list(hom_cochain_basis(A, d, beta, k).basis[:3])
                maps += list(lie_cochain_basis(A, d, beta, k).basis[:3])
            maps += [f + MultilinearMap.from_values(
                k, n, d, {(0,) * k: dense_vector({0: 1}, d)})
                for f in maps[-2:]]
            for f in maps:
                alternating = is_alternating(f)
                assert alternating == dense_is_alternating(f)
                for alpha in twists:
                    compatible = is_compatible(f, alpha, beta)
                    assert compatible == dense_is_compatible(f, alpha, beta)
                    seen.add((alternating, compatible))
                width = rng.choice((1, 2, 3))
                matrices = [Matrix.from_rows(
                    [rand_sparse_coefficients(rng, width) for _ in range(n)])
                    for _ in range(k)]
                assert f.pullback([MultilinearMap.from_matrix(m)
                                   for m in matrices]) == \
                    dense_pullback(f, matrices)
                m = Matrix.from_rows([rand_sparse_coefficients(rng, d)
                                      for _ in range(2)])
                assert f.pushforward(MultilinearMap.from_matrix(m)) == \
                    dense_pushforward(f, m)
    assert seen == {(False, False), (False, True), (True, False),
                    (True, True)}


@pytest.mark.parametrize("build", [
    lambda: MultilinearMap(2, 3, 2, {(0, 3): {0: Fraction(1)}}),
    lambda: MultilinearMap(2, 3, 2, {(0, -1): {0: Fraction(1)}}),
    lambda: MultilinearMap(2, 3, 2, {(0,): {0: Fraction(1)}}),
    lambda: MultilinearMap(2, 3, 2, {(0, 1, 2): {0: Fraction(1)}}),
    lambda: MultilinearMap(2, 3, 2, {(0, 1): {2: Fraction(1)}}),
    lambda: MultilinearMap(2, 3, 2, {(0, 1): {0: Fraction(0)}}),
    lambda: MultilinearMap(2, 3, 2, {(0, 1): {}}),
    lambda: MultilinearMap.from_sparse(2, 3, 2, {(0, 1): {2: 1}}),
    lambda: MultilinearMap.from_sparse(2, 3, 2, {(1, 3): {0: 1}}),
    lambda: MultilinearMap.from_values(2, 3, 2, {(0, 1): (0, 1, 1)}),
], ids=["argument", "negative argument", "arity", "long tuple", "coordinate",
        "zero value", "empty value", "sparse coordinate", "sparse argument",
        "long vector"])
def test_maps_reject_entries_out_of_range(build):
    with pytest.raises(UsageError):
        build()


def test_zero_map_holds_no_entries():
    tracemalloc.start()
    try:
        zero = MultilinearMap.zero(4, 10, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert zero.entries == {} and zero.is_zero()
    assert peak < 16 * 1024
    assert MultilinearMap.from_values(4, 10, 10, {}) == zero


def _diagonal_walk(reduced: bool, alpha: list, beta: list, arity: int) -> list:
    """The compatibility rows of diagonal twists, built by walking every
    tuple: row (t, r) is beta_r - prod(alpha_i for i in t) over the
    common denominator, dropped when it cancels."""
    den = lcm(lcm(*(x.denominator for x in alpha)) ** arity,
              lcm(*(x.denominator for x in beta)))
    d, rows = len(beta), []
    for ti, t in enumerate(Coords(arity, len(alpha), d, reduced).tuples):
        for r in range(d):
            if v := (beta[r] - prod(alpha[i] for i in t)) * den:
                rows.append({ti * d + r: int(v)})
    return rows


def _diagonal_case(reduced: bool, alpha: list, beta: list, arity: int) -> list:
    n = len(alpha)
    A = HomAlgebra(name="zero", kind=LIE if reduced else ASSOCIATIVE,
                   dim=n, mul=[[[0] * n] * n] * n,
                   alpha=Matrix.from_rows([[alpha[i] if i == j else 0
                                            for j in range(n)]
                                           for i in range(n)]))
    B = Matrix.from_rows([[beta[i] if i == j else 0 for j in range(len(beta))]
                          for i in range(len(beta))])
    return compatibility_rows(reduced, A, len(beta), beta_rows(B), arity)


def test_scalar_twists_that_cancel_build_no_row_and_walk_no_tuple(
        monkeypatch):
    """compatibility_rows against the full tuple walk on random scalar and
    diagonal twists, called directly: scalar alpha and beta whose product
    cancels give no row, and build no coordinate system to walk."""
    rng = random.Random(41)
    value = lambda: rng.choice((0, 1, 1, 2, -1, 3, Fraction(1, 2),
                                Fraction(-2, 3)))
    cancelled = walked = 0
    for _ in range(300):
        reduced, arity = rng.choice((False, True)), rng.randint(1, 3)
        n, d = rng.randint(1, 4), rng.randint(1, 3)
        c, b = value(), value()
        alpha = [c] * n if rng.random() < 0.6 else [value() for _ in range(n)]
        beta = [b] * d if rng.random() < 0.6 else [value() for _ in range(d)]
        rows = _diagonal_case(reduced, alpha, beta, arity)
        assert rows == _diagonal_walk(reduced, alpha, beta, arity)
        cancelled += not rows and len(set(alpha)) == len(set(beta)) == 1
        walked += bool(rows)
    assert cancelled > 20 and walked > 100

    # 2I against 4I: 2^2 = 4 cancels at arity 2, 2^3 = 8 does not at 3
    cases = [(False, [2] * 3, [4] * 3), (True, [2] * 4, [4] * 2)]
    for reduced, alpha, beta in cases:
        assert _diagonal_case(reduced, alpha, beta, 3) == \
            _diagonal_walk(reduced, alpha, beta, 3) != []
    monkeypatch.setattr(cochain, "Coords", None)  # a walk would fail
    for reduced, alpha, beta in cases:
        assert _diagonal_case(reduced, alpha, beta, 2) == []
        assert _diagonal_case(reduced, [-1] * 3, [-1, -1], 3) == \
            _diagonal_case(reduced, [Fraction(1, 2)] * 2, [Fraction(1, 4)], 2) \
            == []
