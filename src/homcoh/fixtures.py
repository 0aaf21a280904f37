"""Built-in example algebras, morphisms, and deformations.

These are the instantiated worked examples the acceptance suite and the
command line's comparison mode run against.  Parameters default to the
published instantiations; a few helpers build classical algebras used by
the randomized suites.  Each algebra is written as the paper writes it, by
its nonzero products {(i, j): {k: c}} (a Lie bracket by one order of each
pair, a deformation term too), completed by ``algebra.product_table``.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (ASSOCIATIVE, LIE, HomAlgebra, product_table,
                      product_tensor)
from .cochain import MultilinearMap
from .deformation import FormalDeformation, MorphismDeformation
from .exact import Matrix
from .rep import HomMorphism


def _diag(*values) -> Matrix:
    n = len(values)
    return Matrix.from_rows([[Fraction(values[i]) if i == j else Fraction(0)
                              for j in range(n)] for i in range(n)])


def assoc3(a=1, b=2) -> HomAlgebra:
    """Three-dimensional associative-kind example with two parameters."""
    a, b = Fraction(a), Fraction(b)
    mul = product_tensor(ASSOCIATIVE, 3, {
        (0, 0): {0: a},
        (1, 1): {1: a},
        (0, 1): {1: a}, (1, 0): {1: a},
        (1, 2): {2: b},
        (0, 2): {2: b}, (2, 0): {2: b},
    })
    return HomAlgebra(name=f"assoc3(a={a},b={b})", kind=ASSOCIATIVE, dim=3,
                      mul=mul, alpha=_diag(a, a, b))


def assoc2() -> HomAlgebra:
    """Two-dimensional associative-kind example: unit-like first basis
    vector, everything else multiplying to the second one."""
    mul = product_tensor(ASSOCIATIVE, 2, {
        (0, 0): {0: 1},
        (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {1: 1},
    })
    alpha = Matrix.from_rows([[1, 0], [-1, 0]])
    return HomAlgebra(name="assoc2", kind=ASSOCIATIVE, dim=2, mul=mul,
                      alpha=alpha, basis_names=("f1", "f2"))


def phi_assoc() -> HomMorphism:
    """The morphism assoc3(1, b) -> assoc2 sending the first two basis
    vectors to f1 - f2 and the third to zero."""
    source = assoc3(1, 2)
    target = assoc2()
    matrix = Matrix.from_rows([[1, 1, 0], [-1, -1, 0]])
    return HomMorphism(source, target, matrix)


def lie4a(a=1, b=1, c=1, d=1) -> HomAlgebra:
    """Four-dimensional Lie-kind example, first of the pair."""
    a, b, c, d = (Fraction(x) for x in (a, b, c, d))
    mul = product_tensor(LIE, 4, {(0, 1): {3: b}, (2, 3): {1: d}})
    alpha = Matrix.from_columns([
        [0, 0, 1, a],   # image of e1
        [0, 0, 0, b],   # image of e2
        [1, c, 0, 0],   # image of e3
        [0, d, 0, 0],   # image of e4
    ])
    return HomAlgebra(name=f"lie4a(a={a},b={b},c={c},d={d})", kind=LIE, dim=4,
                      mul=mul, alpha=alpha)


def lie4b(a=2, b=1, c=1, d=1, e=1) -> HomAlgebra:
    """Four-dimensional Lie-kind example, second of the pair."""
    a, b, c, d, e = (Fraction(x) for x in (a, b, c, d, e))
    mul = product_tensor(LIE, 4, {(0, 1): {3: d}})
    alpha = Matrix.from_columns([
        [a, b, 1, c],
        [0, 0, 0, d],
        [e, b * e / a, 0, 0],
        [0, 0, 0, 0],
    ])
    return HomAlgebra(name=f"lie4b(a={a},b={b},c={c},d={d},e={e})", kind=LIE,
                      dim=4, mul=mul, basis_names=("f1", "f2", "f3", "f4"),
                      alpha=alpha)


def g1(p1, p2) -> HomAlgebra:
    """Three-dimensional Lie-kind family: one nonzero bracket, diagonal
    twist with entries (p1, p2, p1*p2)."""
    p1, p2 = Fraction(p1), Fraction(p2)
    mul = product_tensor(LIE, 3, {(0, 1): {2: 1}})
    return HomAlgebra(name=f"g1(p1={p1},p2={p2})", kind=LIE, dim=3, mul=mul,
                      alpha=_diag(p1, p2, p1 * p2))


def g2() -> HomAlgebra:
    """Three-dimensional Lie-kind companion of g1; fails the twisted
    Jacobi identity as printed, which downstream code must report."""
    mul = product_tensor(LIE, 3, {
        (0, 1): {0: 1, 2: 1},
        (1, 2): {1: 1},
        (0, 2): {0: 1, 2: 2},
    })
    return HomAlgebra(name="g2", kind=LIE, dim=3, mul=mul,
                      alpha=_diag(1, 2, 2), basis_names=("f1", "f2", "f3"))


def phi12_1(lam21=1, lam31=1, lam22=1) -> HomMorphism:
    """Morphism g1(2,2) -> g2 with both nonzero images proportional to
    f2 + f3 (scaled by the lambda parameters)."""
    lam21, lam31, lam22 = (Fraction(x) for x in (lam21, lam31, lam22))
    source = g1(2, 2)
    target = g2()
    matrix = Matrix.from_columns([
        [0, lam21, lam31],
        [0, lam22, lam22 * lam31 / lam21],
        [0, 0, 0],
    ])
    return HomMorphism(source, target, matrix)


def phi12_2(lam21=1, lam31=1) -> HomMorphism:
    """Morphism g1(2,0) -> g2 supported on the first basis vector."""
    lam21, lam31 = Fraction(lam21), Fraction(lam31)
    source = g1(2, 0)
    target = g2()
    matrix = Matrix.from_columns([
        [0, lam21, lam31],
        [0, 0, 0],
        [0, 0, 0],
    ])
    return HomMorphism(source, target, matrix)


def def_g1(w=1) -> FormalDeformation:
    """Order-1 deformation of g1(2,0): the (e1,e3) bracket acquires a
    degree-1 term w*e2."""
    base = g1(2, 0)
    term = MultilinearMap.from_sparse(2, 3, 3, product_table(
        LIE, {(0, 2): {1: Fraction(w)}}))
    return FormalDeformation.from_terms(base, 1, {1: term})


def def_g2(k2=1) -> FormalDeformation:
    """Order-1 deformation of g2: the (f1,f2) bracket acquires k2*f3."""
    base = g2()
    term = MultilinearMap.from_sparse(2, 3, 3, product_table(
        LIE, {(0, 1): {2: Fraction(k2)}}))
    return FormalDeformation.from_terms(base, 1, {1: term})


def mdef_2(w=1, k2=1, a21=1, a31=1) -> MorphismDeformation:
    """Order-1 deformation of phi12_2 pairing def_g1 with def_g2 and a
    degree-1 morphism term supported on the first basis vector."""
    def_a, def_b = def_g1(w), def_g2(k2)
    # the families' bases are the ends, so checks that they match hit identity
    phi = HomMorphism(def_a.base, def_b.base, phi12_2().matrix)
    phi1 = MultilinearMap.from_values(1, 3, 3, {(0,): (0, a21, a31)})
    return MorphismDeformation.build(phi, def_a, def_b, {1: phi1}, 1)


def dual_numbers() -> HomAlgebra:
    """Classical dual numbers with identity twist."""
    mul = product_tensor(ASSOCIATIVE, 2, {(0, 0): {0: 1}, (0, 1): {1: 1},
                                          (1, 0): {1: 1}})
    return HomAlgebra(name="dual_numbers", kind=ASSOCIATIVE, dim=2, mul=mul,
                      alpha=Matrix.identity(2))


def heisenberg() -> HomAlgebra:
    """Classical Heisenberg bracket with identity twist."""
    mul = product_tensor(LIE, 3, {(0, 1): {2: 1}})
    return HomAlgebra(name="heisenberg", kind=LIE, dim=3, mul=mul,
                      alpha=Matrix.identity(3))


def invalid_assoc2() -> HomAlgebra:
    """Two-dimensional associative-kind input that fails the twisted
    associativity check (used to exercise witness reporting)."""
    mul = product_tensor(ASSOCIATIVE, 2, {(0, 0): {0: 1}})
    alpha = Matrix.from_rows([[1, 1], [0, 0]])
    return HomAlgebra(name="invalid_assoc2", kind=ASSOCIATIVE, dim=2,
                      mul=mul, alpha=alpha)


BUILTIN_FIXTURES = {
    "a3": lambda: assoc3(1, 2),
    "a3_b1": lambda: assoc3(1, 1),
    "b2": assoc2,
    "l4a": lambda: lie4a(1, 1, 1, 1),
    "l4b_e1": lambda: lie4b(2, 1, 1, 1, 1),
    "l4b_em1": lambda: lie4b(2, 1, 1, 1, -1),
    "g2": g2,
    "dual_numbers": dual_numbers,
    "heisenberg": heisenberg,
    "invalid_assoc2": invalid_assoc2,
}

BUILTIN_MORPHISMS = {
    "phi_assoc": phi_assoc,
    "phi12_1": phi12_1,
    "phi12_2": phi12_2,
}

BUILTIN_DEFORMATIONS = {
    "def_g1": def_g1,
    "mdef_2": mdef_2,
}


def g1_name(p1, p2) -> str:
    return f"g1_{p1}_{p2}".replace("/", "over").replace("-", "m")


def _register_g1():
    pairs = [(0, 1), (1, 2), (1, 1), (1, 0), (-1, 2), (-1, 1), (-1, 0),
             (-1, -1), (2, Fraction(1, 2)), (2, 1), (2, 0), (2, -1), (2, 3)]
    for p1, p2 in pairs:
        BUILTIN_FIXTURES[g1_name(p1, p2)] = (
            lambda p1=p1, p2=p2: g1(p1, p2))


_register_g1()


BUILTINS = {"algebra": BUILTIN_FIXTURES, "morphism": BUILTIN_MORPHISMS,
            "deformation": BUILTIN_DEFORMATIONS}


def builtin(what: str, name: str):
    """The built-in ``what`` (algebra, morphism or deformation) of that
    name, or None."""
    builder = BUILTINS[what].get(name)
    return builder() if builder else None
