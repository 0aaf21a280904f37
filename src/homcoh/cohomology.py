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

There are two complexes.  ``ModuleComplex`` takes an algebra and a module
of its kind (the algebra acting on itself by default); ``MorphismComplex``
assembles the coupled complex of a morphism from three of them: both ends
in themselves and the source in the adjoint module of the target.  Every
coboundary is a compiled ``operator.SparseOperator``; a complex compiles
each degree once and ``compute_cohomology`` decides kernels, ranks and
pivots on operator coordinates.  Cocycles stay in those coordinates:
full tensors are built only for the representatives, and for the cocycle
basis of a record when a caller reads it.

Invalid input algebras degrade to best-effort reports: the delta-squared
failure is detected, reported as a warning, and the coboundary space is
replaced by its intersection with the cocycles so the quotient stays
meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import ASSOCIATIVE, LIE as LIE_KIND, HomAlgebra, validate
from .cochain import (HOM, LIE, MorphismCochain, MorphismCochainSpace,
                      MultilinearMap, _check_arity_guard, hom_cochain_basis,
                      lie_cochain_basis)
from .errors import UsageError
from .exact import (Matrix, independent_subset, intersection_basis, lincomb,
                    nullspace_basis, vec_sub)
from .operator import (apply_operator, hom_delta, hom_operator, lie_operator,
                       morphism_delta)
from .rep import (Bimodule, HomMorphism, LieModule, adjoint_bimodule,
                  check_morphism, lie_adjoint_module, self_bimodule,
                  self_lie_module, validate_bimodule, validate_lie_module)

HOM_SELF = "hom_self"
HOM_BIMODULE = "hom_bimodule"
LIE_SELF = "lie_self"
LIE_MODULE = "lie_module"
MORPHISM_HOM = "morphism_hom"
MORPHISM_LIE = "morphism_lie"


def _check_dims(f: MultilinearMap, X: HomAlgebra, target_dim: int):
    if f.source_dim != X.dim or f.target_dim != target_dim:
        raise UsageError("cochain dimensions do not match algebra/module")


def delta_hom_self(A: HomAlgebra, f: MultilinearMap) -> MultilinearMap:
    """Coboundary of a self-valued cochain of an associative-kind algebra."""
    if A.kind != ASSOCIATIVE:
        raise UsageError("delta_hom_self needs an associative-kind algebra")
    _check_dims(f, A, A.dim)
    return ModuleComplex(A).delta(f)


def delta_hom_bimodule(A: HomAlgebra, M: Bimodule,
                       f: MultilinearMap) -> MultilinearMap:
    """Coboundary with values in a bimodule: first slot acts from the left,
    last slot from the right, inner slots get the twisted insertions."""
    if M.algebra != A:
        raise UsageError("bimodule does not belong to the given algebra")
    _check_dims(f, A, M.carrier_dim)
    return ModuleComplex(A, M).delta(f)


def delta_lie_self(L: HomAlgebra, f: MultilinearMap) -> MultilinearMap:
    """Chevalley-Eilenberg style coboundary of a self-valued cochain; the
    cochain must be alternating."""
    if L.kind != LIE_KIND:
        raise UsageError("delta_lie_self needs a Lie-kind algebra")
    _check_dims(f, L, L.dim)
    return ModuleComplex(L).delta(f)


def delta_lie_module(L: HomAlgebra, P: LieModule,
                     f: MultilinearMap) -> MultilinearMap:
    if P.algebra != L:
        raise UsageError("module does not belong to the given algebra")
    _check_dims(f, L, P.carrier_dim)
    return ModuleComplex(L, P).delta(f)


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
    return MorphismComplex(phi, flavor).delta(c)


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


@dataclass(frozen=True)
class DegreeRecord:
    """One degree of a report; its cocycles are kept in the coordinates
    of ``system`` and become full tensors when first read."""

    degree: int
    dim_cochains: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_cohomology: int
    representatives: tuple
    system: object
    cocycle_coords: tuple

    @cached_property
    def cocycle_basis(self) -> tuple:
        return tuple(self.system.to_full(z) for z in self.cocycle_coords)


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
    cochain spaces, its compiled operator per degree, and whether the
    cocycle equation is solved on all multilinear maps."""

    full_cocycles = False

    def __init__(self):
        self._bound_cache: dict[int, object] = {}
        self._op_cache: dict[int, object] = {}

    def operator(self, n: int):
        """The compiled coboundary from degree n to degree n + 1."""
        if n not in self._op_cache:
            self._op_cache[n] = self._compile(n)
        return self._op_cache[n]

    def cocycle_coords(self, n: int):
        """Basis coordinates of the space the cocycle equation is solved
        on, or None when that is the whole multilinear space."""
        if self.full_cocycles:
            _check_arity_guard(n)
            return None
        return self.bound_space(n).coords

    def bound_space(self, n: int):
        """The twist-compatible cochains of degree n."""
        if n not in self._bound_cache:
            self._bound_cache[n] = self._build_bound_space(n)
        return self._bound_cache[n]

    def delta(self, f):
        n = f.degree if isinstance(f, MorphismCochain) else f.arity
        if n < 1:
            raise UsageError("coboundary needs arity >= 1")
        return apply_operator(self.operator(n), f)

    def degree_zero_images(self) -> list:
        """Images of the optional arity-0 coboundary (off by default)."""
        return []


class ModuleComplex(_ComplexBase):
    """Cochains of X with values in a module: a ``Bimodule`` for the
    associative kind, a ``LieModule`` for the Lie kind; ``module=None`` is
    X acting on itself.  ``label`` names the module in its warnings."""

    def __init__(self, X: HomAlgebra, module=None, label: str = "module"):
        super().__init__()
        assoc = X.kind == ASSOCIATIVE
        if module is None:
            module = self_bimodule(X) if assoc else self_lie_module(X)
            self.flavor = HOM_SELF if assoc else LIE_SELF
        elif isinstance(module, Bimodule if assoc else LieModule):
            self.flavor = HOM_BIMODULE if assoc else LIE_MODULE
        else:
            raise UsageError(f"a {X.kind}-kind algebra needs a "
                             + ("bimodule" if assoc else "Lie module"))
        self.algebra, self.module, self.label = X, module, label
        self.full_cocycles = assoc  # the associative-kind convention

    @cached_property
    def warnings(self) -> list[str]:
        X = self.algebra
        report = validate(X)
        out = [] if report.is_valid else [f"{X.name}: {report.describe()}"]
        if self.flavor in (HOM_SELF, LIE_SELF):
            if report.is_valid and not report.multiplicative:
                out.append(f"{X.name}: twist is not multiplicative")
            return out
        check = validate_bimodule if self.full_cocycles else \
            validate_lie_module
        return out + [f"{self.label}: {p}" for p in check(self.module)]

    def _build_bound_space(self, n: int):
        build = hom_cochain_basis if self.full_cocycles else lie_cochain_basis
        M = self.module
        return build(self.algebra, M.carrier_dim, M.beta, n)

    def _compile(self, n: int):
        M = self.module
        if self.full_cocycles:
            return hom_delta(self.algebra, M.rho_l, M.rho_r, M.carrier_dim, n)
        return lie_operator(self.algebra, M.carrier_dim, n, M.action)

    def degree_zero_images(self) -> list:
        """e_i -> e_i m (minus m e_i for a bimodule), for each m fixed by
        the structure map of the module."""
        X, M = self.algebra, self.module
        image = (lambda e, m: vec_sub(M.left(e, m), M.right(m, e))) \
            if self.full_cocycles else M.act
        d = M.carrier_dim
        return [MultilinearMap.from_values(
            1, X.dim, d, {(i,): image(X.basis_vector(i), m)
                          for i in range(X.dim)})
            for m in nullspace_basis(M.beta - Matrix.identity(d))]


# former names, kept while perfbench/workloads.py and record.py import them
HomSelfComplex = LieSelfComplex = ModuleComplex


class MorphismComplex(_ComplexBase):
    """Coupled complex of phi: A -> B.  Its degree-n cochains are those of
    ``source`` (A in itself) and ``target`` (B in itself) at degree n and
    of ``connecting`` (A in B through phi) at degree n - 1; its spaces and
    operators are assembled from theirs."""

    def __init__(self, phi: HomMorphism, flavor: str):
        super().__init__()
        if flavor not in (HOM, LIE):
            raise UsageError(f"unknown flavor {flavor!r}")
        kind = ASSOCIATIVE if flavor == HOM else LIE_KIND
        if phi.source.kind != kind or phi.target.kind != kind:
            raise UsageError(f"flavor {flavor!r} does not match the algebras")
        self.phi = phi
        self.component_flavor = flavor
        self.flavor = MORPHISM_HOM if flavor == HOM else MORPHISM_LIE
        self.full_cocycles = flavor == HOM
        self.source = ModuleComplex(phi.source)
        self.target = ModuleComplex(phi.target)
        self.connecting = connecting_complex(phi)

    @cached_property
    def warnings(self) -> list[str]:
        phi = self.phi
        out = [f"{X.name}: {report.describe()}"
               for X in (phi.source, phi.target)
               if not (report := validate(X)).is_valid]
        mreport = check_morphism(phi.source, phi.target, phi.matrix)
        if not mreport.is_valid:
            out.append(f"morphism: {mreport.describe()}")
        return out

    def _build_bound_space(self, n: int):
        return MorphismCochainSpace(n, self.source.bound_space(n),
                                    self.target.bound_space(n),
                                    self.connecting.bound_space(n - 1))

    def _compile(self, n: int):
        return morphism_delta(
            self.phi.matrix, self.component_flavor, self.source.operator(n),
            self.target.operator(n),
            self.connecting.operator(n - 1) if n > 1 else None)


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
            z_raw = nullspace_basis(op.sparse_matrix()) if dim_c else []
        else:
            dim_c = len(coords)
            kernel = nullspace_basis(op.sparse_matrix(coords)) if coords else []
            z_raw = [lincomb(k, coords, op.source.dim) for k in kernel]
        z_img = z_raw  # the cocycles in the coordinates of the coboundaries

        if n == 1:
            bound_images = (complex_obj.degree_zero_images()
                            if include_degree_zero else [])
            b_raw_all = [op.source.project(b) for b in bound_images]
        else:
            prev = complex_obj.operator(n - 1)
            b_raw_all = [prev.apply(v)
                         for v in complex_obj.bound_space(n - 1).coords]
            if prev.target != op.source:  # images of a non-skew bracket
                z_img = [prev.target.project(op.source.to_full(z))
                         for z in z_raw]
        # one elimination of [B | Z]: its B pivots span the coboundaries,
        # its rank is dim(B + Z) and its Z pivots pick the representatives
        pivots = independent_subset(b_raw_all + z_img)
        offset = len(b_raw_all)
        b_raw = [b_raw_all[p] for p in pivots if p < offset]
        if b_raw and len(pivots) != len(z_img):
            warnings.append(
                f"degree {n}: coboundaries escape the cocycles "
                "(delta-squared is nonzero; invalid input structure)")
            b_raw = intersection_basis(b_raw, z_img)
            offset = len(b_raw)
            pivots = independent_subset(b_raw + z_img)

        dim_z = len(z_raw)
        dim_b = len(b_raw)
        reps = tuple(op.source.to_full(z_raw[p - offset])
                     for p in pivots if p >= offset)
        records.append(DegreeRecord(
            degree=n,
            dim_cochains=dim_c,
            dim_cocycles=dim_z,
            dim_coboundaries=dim_b,
            dim_cohomology=dim_z - dim_b,
            representatives=reps,
            system=op.source,
            cocycle_coords=tuple(z_raw)))
    return ComplexSummary(flavor=complex_obj.flavor, records=tuple(records),
                          warnings=tuple(warnings))


def self_cohomology(X: HomAlgebra, degrees, **kw) -> ComplexSummary:
    return compute_cohomology(ModuleComplex(X), degrees, **kw)


def connecting_complex(phi: HomMorphism) -> ModuleComplex:
    """The standalone module-valued complex of the connecting component:
    cochains from the source with values in the target seen as the adjoint
    module (or bimodule) through phi."""
    module = (adjoint_bimodule if phi.source.kind == ASSOCIATIVE
              else lie_adjoint_module)(phi, strict=False)
    return ModuleComplex(phi.source, module, f"adjoint({phi.target.name})")
