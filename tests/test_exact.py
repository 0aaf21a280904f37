import random
from fractions import Fraction
from math import gcd

import pytest

from helpers import (bareiss_rank, columns, dense, dense_nullspace,
                     dense_rref, dense_solve, densify, in_span, matrix_sum,
                     zero_matrix)
from homcoh.cochain import Coords, MorphismCoords, MultilinearMap
from homcoh.deformation import CheckResult, OrderRecord
from homcoh.errors import ParseError, UsageError
from homcoh.exact import (Echelon, Matrix, SparseMatrix, echelon,
                          independent_subset, integer_kernel,
                          intersection_basis, lincomb, nullspace_basis,
                          pivot_columns, rational_from_string,
                          rational_to_string, rref, solve, sparse_vector)


def frac_matrix(rows):
    return Matrix.from_rows([[Fraction(x) for x in r] for r in rows])


def test_rational_parsing_round_trip():
    assert rational_from_string("3") == Fraction(3)
    assert rational_from_string("-4/6") == Fraction(-2, 3)
    assert rational_to_string(Fraction(-2, 3)) == "-2/3"
    assert rational_to_string(Fraction(8, 4)) == "2"
    assert rational_to_string(Fraction(0)) == "0"
    assert [rational_from_string(t) for t in ("-0", "007", "0/5", "-12/8")] \
        == [0, 7, 0, Fraction(-3, 2)]


@pytest.mark.parametrize("bad", ["1/0", "1 /2", " 1", "1/-2", "a", "1.5", "",
                                 "1_0", "+3", "\uff11", "-", "1/", "/2",
                                 "--1", "1/2/3", "\u00b2", "\u0663", "1e3",
                                 "1\n", 3, None])
def test_rational_rejects_malformed(bad):
    with pytest.raises(ParseError):
        rational_from_string(bad)


def test_rref_identity():
    m = Matrix.identity(2)
    res = rref(m)
    assert res.reduced == m
    assert res.rank == 2
    assert res.pivot_columns == (0, 1)


def test_rref_single_row():
    m = frac_matrix([[1, 1]])
    res = rref(m)
    assert res.reduced == m
    assert res.rank == 1
    assert res.pivot_columns == (0,)


def test_rref_rank_matches_fraction_free_oracle():
    rng = random.Random(11)
    for _ in range(30):
        m = frac_matrix([[Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                          for _ in range(5)] for _ in range(3)])
        assert rref(m).rank == bareiss_rank(m)


def test_rref_idempotent():
    rng = random.Random(12)
    for _ in range(20):
        m = frac_matrix([[rng.randint(-3, 3) for _ in range(4)]
                         for _ in range(4)])
        red = rref(m).reduced
        assert rref(red).reduced == red


def test_nullspace_identity_empty():
    assert nullspace_basis(Matrix.identity(2)) == []


def test_nullspace_single_relation():
    basis = nullspace_basis(frac_matrix([[1, 1]]))
    assert basis == [{0: Fraction(-1), 1: Fraction(1)}]


def test_nullspace_random_annihilates():
    rng = random.Random(13)
    for _ in range(20):
        m = frac_matrix([[rng.randint(-3, 3) for _ in range(6)]
                         for _ in range(4)])
        res = rref(m)
        basis = [densify(v, 6) for v in nullspace_basis(m)]
        assert len(basis) == 6 - res.rank
        for v in basis:
            assert all(x == 0 for x in m.matvec(v))
        # linear independence
        if basis:
            assert rref(Matrix.from_columns(basis)).rank == len(basis)


def test_solve_identity():
    assert solve(Matrix.identity(2), {0: 3, 1: 5}) == {0: Fraction(3),
                                                       1: Fraction(5)}


def test_solve_underdetermined_picks_zero_free_coordinates():
    assert densify(solve(frac_matrix([[1, 1]]), {0: 2}), 2) == (
        Fraction(2), Fraction(0))


def test_solve_inconsistent_absent():
    assert solve(frac_matrix([[1], [1]]), {0: 1, 1: 2}) is None


def test_solve_residual_exact():
    rng = random.Random(14)
    for _ in range(20):
        m = frac_matrix([[rng.randint(-3, 3) for _ in range(4)]
                         for _ in range(3)])
        x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))
        b = m.matvec(x)
        got = solve(m, sparse_vector(b))
        assert got is not None
        assert m.matvec(densify(got, 4)) == b


def test_in_span_examples():
    assert densify(in_span([{0: 1}], {}), 1) == (Fraction(0),)
    assert in_span([{0: 1}], {1: 1}) is None
    coords = in_span([{0: 1, 1: 1}, {0: 1, 1: -1}], {0: 2})
    assert densify(coords, 2) == (Fraction(1), Fraction(1))


def _oracle_cases():
    """Seeded matrices: sparse and fully dense, with zero rows and columns,
    0-row and 0-column shapes, large denominators, rank-deficient
    products and full-rank squares."""
    rng = random.Random(16)

    def entry(density, big=False):
        if rng.random() >= density:
            return Fraction(0)
        if big:
            return Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**12))
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 7)))

    def random_rows(nr, nc, density, big=False):
        return [[entry(density, big) for _ in range(nc)] for _ in range(nr)]

    cases = [Matrix(0, 0, ()), Matrix(0, 4, ()), Matrix(3, 0, ()),
             zero_matrix(3, 4), Matrix.identity(5)]
    for _ in range(60):
        nr, nc = rng.randint(1, 9), rng.randint(1, 9)
        kind = rng.choice(("sparse", "dense", "big", "deficient", "holes"))
        if kind == "deficient":
            k = rng.randint(1, min(nr, nc))
            left = Matrix.from_rows(random_rows(nr, k, 1.0))
            product = left @ Matrix.from_rows(random_rows(k, nc, 0.6))
            rows = [list(product.row(i)) for i in range(nr)]
        else:
            density = {"sparse": 0.15, "dense": 1.0}.get(kind, 0.5)
            rows = random_rows(nr, nc, density, big=kind == "big")
        if kind == "holes":  # zero rows and zero columns
            zero_col = rng.randrange(nc)
            rows = [[x if j != zero_col else Fraction(0)
                     for j, x in enumerate(r)] for r in rows]
            rows[rng.randrange(nr)] = [Fraction(0)] * nc
        cases.append(Matrix.from_rows(rows))
    for n in (4, 7):  # full-rank squares
        cases.append(matrix_sum(Matrix.identity(n), Matrix.from_rows(
            [[Fraction(0) if j <= i else entry(0.7) for j in range(n)]
             for i in range(n)])))
    return rng, cases


def _sparse(m: Matrix) -> SparseMatrix:
    return SparseMatrix(m.rows, m.cols,
                        tuple(sparse_vector(m.row(i)) for i in range(m.rows)))


def test_sparse_kernel_matches_dense_gauss_jordan():
    rng, cases = _oracle_cases()
    inconsistent = deficient = 0
    for m in cases:
        reduced, pivots = dense_rref(m)
        deficient += len(pivots) < min(m.rows, m.cols)
        for given in (m, _sparse(m)):
            res = rref(given)
            assert (res.reduced, res.pivot_columns) == (reduced, pivots)
            assert res.rank == len(pivots) == bareiss_rank(m)
            assert [densify(v, m.cols) for v in nullspace_basis(given)] == \
                dense_nullspace(m)
            x = [Fraction(rng.randint(-3, 3)) for _ in range(m.cols)]
            b = m.matvec(x)
            assert densify(solve(given, sparse_vector(b)), m.cols) == \
                dense_solve(m, b) is not None
            b = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                 for _ in range(m.rows)]
            assert densify(solve(given, sparse_vector(b)), m.cols) == \
                dense_solve(m, b)
            inconsistent += dense_solve(m, b) is None
        cols = [m.column(j) for j in range(m.cols)]
        if m.rows:
            sparse_cols = [sparse_vector(c) for c in cols]
            assert independent_subset(sparse_cols) == list(pivots)
            split = rng.randint(0, m.cols)
            assert [densify(v, m.rows) for v in intersection_basis(
                sparse_cols[:split], sparse_cols[split:])] == \
                _dense_intersection(cols[:split], cols[split:], m.rows)
    assert inconsistent and deficient


def test_rows_with_one_nonzero_match_the_dense_oracles():
    """Rows with one nonzero, some on a shared column and some with rational
    values, mixed with longer rows that meet those columns, rows that
    clear to zero, and right-hand sides on the cleared rows."""
    rng = random.Random(17)
    for _ in range(40):
        nc = rng.randint(2, 8)
        rows = [[Fraction(rng.randint(-3, 3)) if rng.random() < 0.6 else
                 Fraction(0) for _ in range(nc)]
                for _ in range(rng.randint(1, 6))]
        for j in rng.sample(range(nc), rng.randint(1, nc - 1)):
            for _ in range(rng.randint(1, 2)):
                rows.append([Fraction(rng.choice((1, -2, 3)),
                                      rng.choice((1, 5))) if k == j
                             else Fraction(0) for k in range(nc)])
        rows.append([rows[-1][k] * 2 for k in range(nc)])
        rng.shuffle(rows)
        m = Matrix.from_rows(rows)
        reduced, pivots = dense_rref(m)
        for given in (m, _sparse(m)):
            assert (rref(given).reduced, rref(given).pivot_columns) == (
                reduced, pivots)
            assert [densify(v, m.cols) for v in nullspace_basis(given)] == \
                dense_nullspace(m)
            b = [Fraction(rng.randint(-2, 2)) for _ in range(m.rows)]
            assert densify(solve(given, sparse_vector(b)), m.cols) == \
                dense_solve(m, b)
        assert independent_subset([sparse_vector(m.column(j))
                                   for j in range(nc)]) == list(pivots)


def _dense_intersection(u, w, n):
    if not u or not w:
        return []
    stacked = columns(u + [[-x for x in c] for c in w], n)
    vecs = []
    for k in dense_nullspace(stacked):
        acc = columns(u, n).matvec(k[:len(u)])
        if any(acc):
            vecs.append(acc)
    return [vecs[i] for i in dense_rref(columns(vecs, n))[1]] if vecs else []


def test_sparse_kernel_edge_shapes():
    empty = SparseMatrix(2, 0, ({}, {}))
    assert nullspace_basis(empty) == []
    assert solve(empty, {}) == {}
    assert solve(empty, {1: Fraction(1, 3)}) is None
    assert rref(SparseMatrix(0, 3, ())).pivot_columns == ()
    assert nullspace_basis(SparseMatrix(0, 2, ())) == [
        {0: Fraction(1)}, {1: Fraction(1)}]
    assert densify(solve(SparseMatrix(0, 2, ()), {}), 2) == (
        Fraction(0), Fraction(0))
    assert independent_subset([{}, {0: 1, 1: 2}, {0: 2, 1: 4}, {1: 1}]) \
        == [1, 3]


def _integer_systems():
    """Seeded random sparse integer systems, (rows, columns): some with no
    rows, some of full rank, all with negative pivots among their rows."""
    rng = random.Random(23)
    entry = lambda: rng.choice((-6, -3, -2, -1, 1, 2, 4, 5))
    cases = [([], 0), ([], 3), ([{0: -2, 1: 3}, {1: -1, 2: 4}, {2: -5}], 3),
             ([{0: -2, 2: 3}, {1: 4, 2: -6}], 3)]
    for _ in range(60):
        cols = rng.randint(1, 9)
        rows = [{j: entry() for j in range(cols) if rng.random() < 0.35}
                for _ in range(rng.choice((0, 1, cols // 2, cols, cols + 2)))]
        if rng.random() < 0.3:  # full rank: a triangle with negative pivots
            rows = [{i: -abs(entry()), **{j: entry() for j in range(i + 1, cols)
                                          if rng.random() < 0.4}}
                    for i in range(cols)]
            rng.shuffle(rows)
        cases.append(([row for row in rows if row], cols))
    return cases


def test_integer_kernel_is_the_canonical_kernel_in_integers():
    """Each integer kernel vector is the nullspace_basis vector at its
    position times the lcm of that vector's denominators: a primitive
    integer vector with a positive free coordinate.  Together they span
    the dense kernel, as many as the columns less the fraction-free rank."""
    full = empty = 0
    for rows, cols in _integer_systems():
        m = SparseMatrix(len(rows), cols, tuple(rows))
        kernel, canonical = integer_kernel(echelon(rows), cols), \
            nullspace_basis(m)
        rank = bareiss_rank(dense(m))
        assert len(kernel) == len(canonical) == cols - rank
        for v, f in zip(kernel, canonical):
            fc = max(f)  # the free column, where f is 1
            assert f[fc] == 1 and all(type(x) is int for x in v.values())
            assert v[fc] > 0 and gcd(*v.values()) == 1
            assert v == {k: x * v[fc] for k, x in f.items()}
            assert all(sum(c * v.get(j, 0) for j, c in row.items()) == 0
                       for row in rows)
        if kernel:
            assert bareiss_rank(columns([densify(v, cols) for v in kernel],
                                        cols)) == len(kernel)
        assert [densify(f, cols) for f in canonical] == \
            dense_nullspace(dense(m))
        full += bool(rows) and rank == cols
        empty += not rows
    assert full and empty


def reduced_rows(rows, cols: int) -> list:
    """The nonzero rows of the RREF of integer rows."""
    res = rref(SparseMatrix(len(rows), cols, tuple(rows)))
    return [res.reduced.row(i) for i in range(res.rank)]


def test_a_seeded_elimination_matches_the_unseeded_one():
    """Continuing from the echelons of two column blocks and feeding in
    only the rows that couple them gives the RREF, kernel and pivots of
    eliminating every row at once, on seeded random block systems."""
    rng = random.Random(31)
    entry = lambda: rng.choice((-6, -3, -2, -1, 1, 2, 4, 5))

    def rows(lo: int, hi: int, count: int) -> list:
        return [row for row in ({j: entry() for j in range(lo, hi)
                                 if rng.random() < 0.45}
                                for _ in range(count)) if row]

    coupled = 0
    for _ in range(80):
        a, b = rng.randint(1, 6), rng.randint(0, 6)
        cols = a + b
        block_a, block_b = rows(0, a, rng.randint(0, a + 2)), \
            rows(a, cols, rng.randint(0, b + 2))
        coupling = rows(0, cols, rng.randint(0, 4))
        seed = Echelon(echelon(block_a) + echelon(block_b))
        assert [col for col, _ in seed] == sorted(col for col, _ in seed)
        seeded, whole = echelon(coupling, seed), block_a + block_b + coupling
        assert [col for col, _ in seeded] == pivot_columns(whole)
        assert integer_kernel(seeded, cols) == \
            integer_kernel(echelon(whole), cols)
        assert reduced_rows([row for _, row in seeded], cols) == \
            reduced_rows(whole, cols)
        coupled += len(seeded) > len(seed)
    assert coupled > 20


def test_a_seeded_solve_matches_the_stacked_solve():
    """solve(m, b, seed), with seed the echelon of more rows over m's
    columns, is the solve of m stacked on those rows with a zero
    right-hand side, and the dense one: on seeded random systems over a
    denominator, with right-hand sides that the stacked system solves,
    that only m solves and that neither solves, many of them
    rank-deficient."""
    rng = random.Random(37)
    entry = lambda: rng.choice((-6, -3, -2, -1, 1, 2, 4, 5))
    solved = unsolved = dependent = free = 0
    for _ in range(80):
        cols = rng.randint(1, 8)
        rows = lambda count: [row for row in (
            {j: entry() for j in range(cols) if rng.random() < 0.4}
            for _ in range(count)) if row]
        top, extra = rows(rng.randint(1, cols)), rows(rng.randint(0, cols))
        if top and extra and rng.random() < 0.5:  # a row of m plus another
            row = {j: top[0].get(j, 0) + 2 * extra[0].get(j, 0)
                   for j in top[0].keys() | extra[0].keys()}
            extra.append({j: c for j, c in row.items() if c} or extra[0])
        den = rng.choice((1, 3, 4))
        m = SparseMatrix(len(top), cols, tuple(top), den)
        stacked = SparseMatrix(len(top + extra), cols, tuple(top + extra), den)
        image = lambda x: sparse_vector([
            sum(c * x.get(j, 0) for j, c in row.items()) / den for row in top])
        kernel = integer_kernel(echelon(extra), cols)  # stacked rows vanish
        allowed = lincomb({k: Fraction(entry(), 3)
                           for k in range(len(kernel))}, kernel)
        anywhere = {j: Fraction(entry(), rng.choice((1, 2)))
                    for j in range(cols)}
        noise = {i: Fraction(entry(), rng.choice((1, 5)))
                 for i in range(len(top)) if rng.random() < 0.6}
        for b in (image(allowed), image(anywhere), noise):
            got = solve(m, b, echelon(extra))
            assert got == solve(stacked, b)
            assert densify(got, cols) == dense_solve(
                dense(stacked), [b.get(i, 0) for i in range(stacked.rows)])
            solved += got is not None
            unsolved += got is None
        rank = bareiss_rank(dense(stacked))
        dependent += rank < stacked.rows
        free += rank < cols
    assert solved > 120 and unsolved > 60 and dependent > 30 and free > 30


def test_exact_arithmetic_round_trip():
    rng = random.Random(15)
    for _ in range(50):
        a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        b = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        assert (a + b) - b == a


# ---------------------------------------------------------------- value classes

def test_value_classes_compare_their_field_tuples_within_one_class():
    a, b = Coords(1, 2, 2, False), Coords(1, 2, 2, False)
    assert a == b and not a != b and a is not b
    assert a != Coords(1, 2, 2, True)
    assert hash(a) == hash(b) == hash((1, 2, 2, False))
    parts = MorphismCoords((a, a, Coords(0, 2, 2, False)))
    assert a.__eq__(parts) is NotImplemented
    assert parts.__eq__(a) is NotImplemented
    assert a != parts and parts != a and a != (1, 2, 2, False)
    assert hash(parts) == hash((parts.parts,))
    assert SparseMatrix(1, 2, ({0: 1},)) == SparseMatrix(1, 2, ({0: 1},), 1)
    assert SparseMatrix(1, 2, ({0: 1},)) != SparseMatrix(1, 2, ({0: 1},), 2)


def test_value_class_equality_ignores_cached_properties():
    a, b = Coords(2, 3, 3, True), Coords(2, 3, 3, True)
    assert a.tuples is a.tuples  # computed once, then read from the instance
    assert a == b and b == a and hash(a) == hash(b)
    assert a != Coords(2, 3, 2, True)
    m = MultilinearMap(1, 1, 1, {(0,): {0: Fraction(1)}})
    assert m == MultilinearMap.from_values(1, 1, 1, {(0,): (1,)})
    with pytest.raises(TypeError):  # a dict field is not hashable
        hash(m)


def test_value_classes_are_immutable():
    m = Matrix.identity(1)
    for change in (lambda: setattr(m, "rows", 2), lambda: delattr(m, "rows"),
                   lambda: setattr(m, "extra", 1)):
        with pytest.raises(AttributeError):
            change()
    object.__setattr__(m, "rows", 2)  # what __post_init__ may do
    assert m.rows == 2


def test_value_class_arguments_bind_as_in_a_call():
    s = SparseMatrix(rows=1, cols=2, data=({1: 3},))
    assert (s.rows, s.cols, s.data, s.den) == (1, 2, ({1: 3},), 1)
    assert SparseMatrix(1, 2, ({1: 3},), den=4).den == 4
    for args, kwargs in [((1, 2), {}), ((1, 2, (), 1, None, None, 0), {}),
                         ((1, 2, ()), {"rows": 1}), ((1, 2, ()), {"size": 1})]:
        with pytest.raises(TypeError):
            SparseMatrix(*args, **kwargs)


def test_value_class_post_init_runs_on_every_construction():
    with pytest.raises(UsageError, match="needs 4 entries"):
        Matrix(2, 2, ())
    with pytest.raises(UsageError, match="needs 1 entries"):
        Matrix(rows=1, entries=(), cols=1)


def test_value_class_reprs_keep_the_dataclass_form():
    assert repr(Matrix.from_rows([[1, Fraction(1, 2)], [0, -3]])) == (
        "Matrix(rows=2, cols=2, entries=(Fraction(1, 1), Fraction(1, 2), "
        "Fraction(0, 1), Fraction(-3, 1)))")
    assert repr(SparseMatrix(2, 3, ({0: 1}, {2: -4}), 3)) == (
        "SparseMatrix(rows=2, cols=3, data=({0: 1}, {2: -4}), den=3, "
        "source=None, target=None)")
    assert repr(MorphismCoords((Coords(1, 2, 2, False),))) == (
        "MorphismCoords(parts=(Coords(arity=1, source_dim=2, target_dim=2, "
        "reduced=False),))")
    assert repr(OrderRecord(2, algebra_a=CheckResult(True))) == (
        "OrderRecord(order=2, algebra_a=CheckResult(ok=True, witness=None), "
        "algebra_b=None, morphism_eq=None, twist_eq=None)")
