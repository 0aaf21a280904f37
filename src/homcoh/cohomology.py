"""Coboundary operators, their matrices on canonical bases, and exact
cocycle/coboundary/cohomology computation for all complex flavors.

Cocycle convention, fixed by the worked examples this tool reproduces and
applied uniformly per flavor:

* Lie-kind complexes: cocycles and coboundaries both live in the
  twist-compatible alternating cochain spaces.
* Associative-kind complexes: the cocycle equation is solved on the full
  multilinear cochain space, while coboundaries come from twist-compatible
  cochains (whose images are automatically cocycles for valid multiplicative
  algebras).

Every coboundary is a compiled ``operator.SparseOperator``; a complex
compiles each degree once and ``compute_cohomology`` decides kernels,
ranks and pivots on operator coordinates, building full tensors only for
the reported cocycles.

Invalid input algebras degrade to best-effort reports: the delta-squared
failure is detected, reported as a warning, and the coboundary space is
replaced by its intersection with the cocycles so the quotient stays
meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (ASSOCIATIVE, LIE as LIE_KIND, HomAlgebra, multiply,
                      validate)
from .cochain import (HOM, LIE, CochainSpace, MorphismCochain,
                      MorphismCochainSpace, MultilinearMap, _check_arity_guard,
                      hom_cochain_basis, lie_cochain_basis,
                      morphism_cochain_space)
from .errors import ImageOutsideCodomain, UsageError
from .exact import (Matrix, independent_subset, intersection_basis, lincomb,
                    nullspace_basis)
from .operator import (apply_operator, hom_delta, hom_operator, lie_operator,
                       morphism_delta, self_delta)
from .rep import (Bimodule, HomMorphism, LieModule, adjoint_bimodule,
                  check_morphism, lie_adjoint_module, validate_bimodule,
                  validate_lie_module)

HOM_SELF = "hom_self"
HOM_BIMODULE = "hom_bimodule"
LIE_SELF = "lie_self"
LIE_MODULE = "lie_module"
MORPHISM_HOM = "morphism_hom"
MORPHISM_LIE = "morphism_lie"


def _require_arity(f: MultilinearMap):
    if f.arity < 1:
        raise UsageError("coboundary needs arity >= 1")


def delta_hom_self(A: HomAlgebra, f: MultilinearMap) -> MultilinearMap:
    """Coboundary of a self-valued cochain of an associative-kind algebra."""
    if A.kind != ASSOCIATIVE:
        raise UsageError("delta_hom_self needs an associative-kind algebra")
    if f.source_dim != A.dim or f.target_dim != A.dim:
        raise UsageError("cochain dimensions do not match the algebra")
    _require_arity(f)
    return apply_operator(self_delta(A, f.arity), f)


def delta_hom_bimodule(A: HomAlgebra, M: Bimodule,
                       f: MultilinearMap) -> MultilinearMap:
    """Coboundary with values in a bimodule: first slot acts from the left,
    last slot from the right, inner slots get the twisted insertions."""
    if M.algebra != A:
        raise UsageError("bimodule does not belong to the given algebra")
    if f.source_dim != A.dim or f.target_dim != M.carrier_dim:
        raise UsageError("cochain dimensions do not match algebra/module")
    _require_arity(f)
    op = hom_delta(A, M.rho_l, M.rho_r, M.carrier_dim, f.arity)
    return apply_operator(op, f)


def delta_lie_self(L: HomAlgebra, f: MultilinearMap) -> MultilinearMap:
    """Chevalley-Eilenberg style coboundary of a self-valued cochain; the
    cochain must be alternating."""
    if L.kind != LIE_KIND:
        raise UsageError("delta_lie_self needs a Lie-kind algebra")
    if f.source_dim != L.dim or f.target_dim != L.dim:
        raise UsageError("cochain dimensions do not match the algebra")
    _require_arity(f)
    return apply_operator(self_delta(L, f.arity), f)


def delta_lie_module(L: HomAlgebra, P: LieModule,
                     f: MultilinearMap) -> MultilinearMap:
    if P.algebra != L:
        raise UsageError("module does not belong to the given algebra")
    if f.source_dim != L.dim or f.target_dim != P.carrier_dim:
        raise UsageError("cochain dimensions do not match algebra/module")
    _require_arity(f)
    return apply_operator(lie_operator(L, P.carrier_dim, f.arity, P.action), f)


def delta_morphism(phi: HomMorphism, c: MorphismCochain,
                   flavor: str) -> MorphismCochain:
    """Coupled coboundary on morphism cochains.

    The connecting slot receives the commutator defect of the two
    self-components against phi plus (hom) or minus-sign-adjusted (lie) the
    module coboundary of the connecting component; the degree-1 case uses
    the zero map for the arity-0 coboundary.
    """
    if c.degree < 1:
        raise UsageError("morphism coboundary needs degree >= 1")
    return apply_operator(morphism_delta(phi, flavor, c.degree), c)


def d_component(A: HomAlgebra, M: Bimodule, i: int,
                f: MultilinearMap) -> MultilinearMap:
    """The i-th face operator of the associative-kind coboundary.

    The boundary cases fold the module actions into the end operators (for
    arity 1 both fold into the single operator), so that the alternating
    signed sum over i recovers the coboundary at every arity.
    """
    n = f.arity
    if n < 1:
        raise UsageError("face operators need arity >= 1")
    if i < 0 or i > n:
        raise UsageError(f"face index {i} out of range 0..{n}")
    if i >= n:
        return MultilinearMap.zero(n + 1, A.dim, M.carrier_dim)
    op = hom_operator(A, M.carrier_dim, n, [int(k == i) for k in range(n)],
                      (-1, M.rho_l) if i == 0 else None,
                      (-1, M.rho_r) if i == n - 1 else None)
    return apply_operator(op, f)


def differential_matrix(space_n: CochainSpace, space_n1: CochainSpace,
                        delta) -> Matrix:
    """Matrix of delta with columns over space_n's basis, expressed in
    space_n1's basis; raises ImageOutsideCodomain when an image escapes
    (which signals an invalid algebra or module)."""
    cols = []
    for j, f in enumerate(space_n.basis):
        image = delta(f)
        coords = space_n1.coordinates(image)
        if coords is None:
            raise ImageOutsideCodomain(
                f"image of basis cochain {j} lies outside the codomain basis")
        cols.append(coords)
    return Matrix.from_columns(cols, nrows=space_n1.dim)


@dataclass(frozen=True)
class DegreeRecord:
    degree: int
    dim_cochains: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_cohomology: int
    cocycle_basis: tuple
    representatives: tuple


@dataclass(frozen=True)
class ComplexSummary:
    flavor: str
    records: tuple[DegreeRecord, ...]
    warnings: tuple[str, ...]

    def record(self, degree: int) -> DegreeRecord:
        for r in self.records:
            if r.degree == degree:
                return r
        raise KeyError(degree)


class _ComplexBase:
    """Shared engine: each concrete complex supplies its twist-compatible
    cochain spaces, its compiled operator per degree, and the space the
    cocycle equation is solved on."""

    flavor = "?"
    full_cocycles = False  # cocycle equation solved on all multilinear maps

    def __init__(self):
        self._cycle_cache: dict[int, object] = {}
        self._bound_cache: dict[int, object] = {}
        self._op_cache: dict[int, object] = {}
        self.warnings: list[str] = []

    def operator(self, n: int):
        """The compiled coboundary from degree n to degree n + 1."""
        if n not in self._op_cache:
            self._op_cache[n] = self._compile(n)
        return self._op_cache[n]

    def cocycle_coords(self, n: int):
        """Basis coordinates of the space the cocycle equation is solved
        on, or None when that is the whole multilinear space."""
        if n not in self._cycle_cache:
            if self.full_cocycles:
                _check_arity_guard(n)
                self._cycle_cache[n] = None
            else:
                self._cycle_cache[n] = self.bound_space(n).coords
        return self._cycle_cache[n]

    def bound_space(self, n: int):
        if n not in self._bound_cache:
            self._bound_cache[n] = self._build_bound_space(n)
        return self._bound_cache[n]

    # overridden by subclasses
    def _build_bound_space(self, n: int):
        raise NotImplementedError

    def _compile(self, n: int):
        raise NotImplementedError

    def delta(self, f):
        n = f.degree if isinstance(f, MorphismCochain) else f.arity
        if n < 1:
            raise UsageError("coboundary needs arity >= 1")
        return apply_operator(self.operator(n), f)

    def degree_zero_images(self) -> list:
        """Images of the optional arity-0 coboundary (off by default)."""
        return []


def _degree_zero(source: HomAlgebra, beta: Matrix, image) -> list:
    """Arity-0 coboundaries: e_i -> image(e_i, m) for each m fixed by beta."""
    d = beta.rows
    return [MultilinearMap.from_values(
        1, source.dim, d,
        {(i,): image(source.basis_vector(i), m) for i in range(source.dim)})
        for m in nullspace_basis(beta - Matrix.identity(d))]


class HomSelfComplex(_ComplexBase):
    flavor = HOM_SELF
    full_cocycles = True

    def __init__(self, A: HomAlgebra):
        super().__init__()
        if A.kind != ASSOCIATIVE:
            raise UsageError("hom_self complex needs an associative-kind algebra")
        self.algebra = A
        report = validate(A)
        if not report.is_valid:
            self.warnings.append(f"{A.name}: {report.describe()}")
        elif not report.multiplicative:
            self.warnings.append(f"{A.name}: twist is not multiplicative")

    def _build_bound_space(self, n: int):
        return hom_cochain_basis(self.algebra, self.algebra.dim,
                                 self.algebra.alpha, n)

    def _compile(self, n: int):
        return self_delta(self.algebra, n)

    def degree_zero_images(self) -> list:
        A = self.algebra
        return _degree_zero(A, A.alpha, lambda e, m: tuple(
            a - b for a, b in zip(multiply(A, e, m), multiply(A, m, e))))


class HomBimoduleComplex(_ComplexBase):
    flavor = HOM_BIMODULE
    full_cocycles = True

    def __init__(self, A: HomAlgebra, M: Bimodule, label: str = "module"):
        super().__init__()
        self.algebra = A
        self.module = M
        report = validate(A)
        if not report.is_valid:
            self.warnings.append(f"{A.name}: {report.describe()}")
        problems = validate_bimodule(M)
        for p in problems:
            self.warnings.append(f"{label}: {p}")

    def _build_bound_space(self, n: int):
        return hom_cochain_basis(self.algebra, self.module.carrier_dim,
                                 self.module.beta, n)

    def _compile(self, n: int):
        M = self.module
        return hom_delta(self.algebra, M.rho_l, M.rho_r, M.carrier_dim, n)

    def degree_zero_images(self) -> list:
        M = self.module
        return _degree_zero(self.algebra, M.beta, lambda e, m: tuple(
            a - b for a, b in zip(M.left(e, m), M.right(m, e))))


class LieSelfComplex(_ComplexBase):
    flavor = LIE_SELF

    def __init__(self, L: HomAlgebra):
        super().__init__()
        if L.kind != LIE_KIND:
            raise UsageError("lie_self complex needs a Lie-kind algebra")
        self.algebra = L
        report = validate(L)
        if not report.is_valid:
            self.warnings.append(f"{L.name}: {report.describe()}")
        elif not report.multiplicative:
            self.warnings.append(f"{L.name}: twist is not multiplicative")

    def _build_bound_space(self, n: int):
        return lie_cochain_basis(self.algebra, self.algebra.dim,
                                 self.algebra.alpha, n)

    def _compile(self, n: int):
        return self_delta(self.algebra, n)

    def degree_zero_images(self) -> list:
        L = self.algebra
        return _degree_zero(L, L.alpha, lambda e, m: multiply(L, e, m))


class LieModuleComplex(_ComplexBase):
    flavor = LIE_MODULE

    def __init__(self, L: HomAlgebra, P: LieModule, label: str = "module"):
        super().__init__()
        self.algebra = L
        self.module = P
        report = validate(L)
        if not report.is_valid:
            self.warnings.append(f"{L.name}: {report.describe()}")
        for p in validate_lie_module(P):
            self.warnings.append(f"{label}: {p}")

    def _build_bound_space(self, n: int):
        return lie_cochain_basis(self.algebra, self.module.carrier_dim,
                                 self.module.beta, n)

    def _compile(self, n: int):
        P = self.module
        return lie_operator(self.algebra, P.carrier_dim, n, P.action)

    def degree_zero_images(self) -> list:
        P = self.module
        return _degree_zero(self.algebra, P.beta, P.act)


class MorphismComplex(_ComplexBase):
    def __init__(self, phi: HomMorphism, flavor: str):
        super().__init__()
        if flavor not in (HOM, LIE):
            raise UsageError(f"unknown flavor {flavor!r}")
        self.phi = phi
        self.component_flavor = flavor
        self.flavor = MORPHISM_HOM if flavor == HOM else MORPHISM_LIE
        self.full_cocycles = flavor == HOM
        for X in (phi.source, phi.target):
            report = validate(X)
            if not report.is_valid:
                self.warnings.append(f"{X.name}: {report.describe()}")
        mreport = check_morphism(phi.source, phi.target, phi.matrix)
        if not mreport.is_valid:
            self.warnings.append(f"morphism: {mreport.describe()}")

    def _build_bound_space(self, n: int):
        return MorphismCochainSpace(
            n, *morphism_cochain_space(self.phi, n, self.component_flavor))

    def _compile(self, n: int):
        return morphism_delta(self.phi, self.component_flavor, n)


def compute_cohomology(complex_obj: _ComplexBase, degrees,
                       include_degree_zero: bool = False) -> ComplexSummary:
    """Per-degree cocycles, coboundaries, cohomology, and canonical
    representatives chosen by pivot positions of the cocycle basis modulo
    the coboundaries.

    Kernels, ranks and pivots are decided on operator coordinates; they do
    not change under the injective map to full tensors, so the reported
    cochains are those of the dense computation.
    """
    warnings = list(complex_obj.warnings)
    records = []
    for n in sorted(set(int(d) for d in degrees)):
        if n < 1:
            raise UsageError("degrees start at 1")
        coords = complex_obj.cocycle_coords(n)
        op = complex_obj.operator(n)
        if coords is None:  # the operator is its own differential matrix
            dim_c = op.source.dim
            z_raw = nullspace_basis(op.matrix()) if dim_c else []
        else:
            dim_c = len(coords)
            kernel = nullspace_basis(op.matrix(coords)) if coords else []
            z_raw = [lincomb(k, coords, op.source.dim) for k in kernel]
        cocycles = [op.source.to_full(z) for z in z_raw]

        if n == 1:
            bound_images = (complex_obj.degree_zero_images()
                            if include_degree_zero else [])
            b_raw_all = [op.source.project(b) for b in bound_images]
        else:
            prev = complex_obj.operator(n - 1)
            b_raw_all = [prev.apply(v)
                         for v in complex_obj.bound_space(n - 1).coords]
            if prev.target != op.source:  # images of a non-skew bracket
                z_raw = [prev.target.project(z) for z in cocycles]
        # one elimination of [B | Z]: its B pivots span the coboundaries,
        # its rank is dim(B + Z) and its Z pivots pick the representatives
        pivots = independent_subset(b_raw_all + z_raw)
        offset = len(b_raw_all)
        b_raw = [b_raw_all[p] for p in pivots if p < offset]
        if b_raw and len(pivots) != len(z_raw):
            warnings.append(
                f"degree {n}: coboundaries escape the cocycles "
                "(delta-squared is nonzero; invalid input structure)")
            b_raw = intersection_basis(b_raw, z_raw)
            offset = len(b_raw)
            pivots = independent_subset(b_raw + z_raw)

        dim_z = len(z_raw)
        dim_b = len(b_raw)
        reps = tuple(cocycles[p - offset] for p in pivots if p >= offset)
        records.append(DegreeRecord(
            degree=n,
            dim_cochains=dim_c,
            dim_cocycles=dim_z,
            dim_coboundaries=dim_b,
            dim_cohomology=dim_z - dim_b,
            cocycle_basis=tuple(cocycles),
            representatives=reps))
    return ComplexSummary(flavor=complex_obj.flavor, records=tuple(records),
                          warnings=tuple(warnings))


def hom_self_cohomology(A: HomAlgebra, degrees, **kw) -> ComplexSummary:
    return compute_cohomology(HomSelfComplex(A), degrees, **kw)


def lie_self_cohomology(L: HomAlgebra, degrees, **kw) -> ComplexSummary:
    return compute_cohomology(LieSelfComplex(L), degrees, **kw)


def self_cohomology(X: HomAlgebra, degrees, **kw) -> ComplexSummary:
    if X.kind == ASSOCIATIVE:
        return hom_self_cohomology(X, degrees, **kw)
    return lie_self_cohomology(X, degrees, **kw)


def bimodule_cohomology(A: HomAlgebra, M: Bimodule, degrees, **kw) -> ComplexSummary:
    return compute_cohomology(HomBimoduleComplex(A, M), degrees, **kw)


def lie_module_cohomology(L: HomAlgebra, P: LieModule, degrees,
                          **kw) -> ComplexSummary:
    return compute_cohomology(LieModuleComplex(L, P), degrees, **kw)


def morphism_cohomology(phi: HomMorphism, degrees, flavor: str | None = None,
                        **kw) -> ComplexSummary:
    if flavor is None:
        flavor = HOM if phi.source.kind == ASSOCIATIVE else LIE
    return compute_cohomology(MorphismComplex(phi, flavor), degrees, **kw)


def connecting_complex(phi: HomMorphism) -> _ComplexBase:
    """The standalone module-valued complex of the connecting component:
    cochains from the source with values in the target seen as the adjoint
    module (or bimodule) through phi."""
    label = f"adjoint({phi.target.name})"
    if phi.source.kind == ASSOCIATIVE:
        return HomBimoduleComplex(phi.source,
                                  adjoint_bimodule(phi, strict=False), label)
    return LieModuleComplex(phi.source, lie_adjoint_module(phi, strict=False),
                            label)
