"""The cochain complexes of algebras, modules and morphisms, and exact
cocycle/coboundary/cohomology computation for all complex flavors.

Cocycle convention, fixed by the worked examples this tool reproduces and
applied uniformly per kind:

* Lie-kind complexes: cocycles and coboundaries both live in the
  twist-compatible alternating cochain spaces.
* Associative-kind complexes: the cocycle equation is solved on the full
  multilinear cochain space, while coboundaries come from twist-compatible
  cochains (whose images are automatically cocycles for valid multiplicative
  algebras).

There are two complexes.  ``ModuleComplex`` takes an algebra and a module
of its kind (the algebra acting on itself by default); ``MorphismComplex``
assembles the coupled complex of a morphism from three of them: both ends
in themselves and the source in the adjoint module of the target.  A
complex is the only way to apply a coboundary: ``delta(f)`` takes a cochain
of that complex, and ``ModuleComplex.face(i, f)`` applies the face
operators of the associative kind.  Every coboundary and face is compiled
into an ``exact.SparseMatrix``; a complex compiles each degree (and each face
index and arity) once, and caches per degree the echelon of its
compatibility rows (whose kernel, ``bound_space``, is its twist-compatible
cochains), eliminated as the rows are built, and that of its cocycle
system; a morphism complex sets its parts' echelons side by side and
eliminates only its connecting rows.
``operator(0)`` of a module complex is its optional arity-0 coboundary.
``compute_cohomology`` reads the cocycles off the system echelon and the
coboundaries off the compatibility echelon one degree down (the rows of
the operator one degree down when it is empty), in the coordinates of the
integer cocycle basis: ``Fraction``s and multilinear maps are made only
for the representatives and the cocycle basis of a record, when read.

Invalid input algebras degrade to best-effort reports: a coboundary that
is not a cocycle is reported as a warning, and the coboundary space is
replaced by its intersection with the cocycles so the quotient stays
meaningful.
"""

from __future__ import annotations

from functools import cached_property

from .algebra import (ASSOCIATIVE, HomAlgebra, _check_arity_guard, _nonzero,
                      validate)
from .cochain import (CochainSpace, MorphismCochain, MultilinearMap,
                      compatibility_rows)
from .errors import UsageError
from .exact import (Echelon, SparseMatrix, echelon, independent_subset,
                    integer_kernel, integral, intersection_basis,
                    pivot_columns, value_class)
from .operator import (apply_operator, hom_delta, hom_operator, lie_operator,
                       morphism_delta)
from .rep import (HomMorphism, Module, adjoint_module, check_morphism,
                  self_module, validate_module)

HOM_SELF = "hom_self"
HOM_BIMODULE = "hom_bimodule"
LIE_SELF = "lie_self"
LIE_MODULE = "lie_module"
MORPHISM_HOM = "morphism_hom"
MORPHISM_LIE = "morphism_lie"


@value_class
class DegreeRecord:
    """One degree of a report; its cocycles and the representatives of its
    cohomology are kept as spaces in the operator's coordinates and become
    multilinear maps when first read."""

    degree: int
    dim_cochains: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_cohomology: int
    representative_space: CochainSpace
    cocycles: CochainSpace

    @property
    def representatives(self) -> tuple:
        return self.representative_space.basis

    @property
    def cocycle_basis(self) -> tuple:
        return self.cocycles.basis


@value_class
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
    """Shared engine: each concrete complex supplies, per degree, its
    compatibility echelon and compiled operator, the degree of each of its
    cochains (``_degree`` rejects any other cochain), and whether the
    cocycle equation is solved on all multilinear maps; the
    twist-compatible spaces and systems follow from those."""

    full_cocycles = False

    def __init__(self):
        self._cache: dict[tuple, object] = {}

    def _memo(self, key: tuple, build):
        """The value cached under key, built by build() on first use."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def operator(self, n: int):
        """The compiled coboundary from degree n to degree n + 1."""
        return self._memo(("operator", n), lambda: self._compile(n))

    def compatibility_echelon(self, n: int) -> Echelon:
        """The echelon of integer rows over the degree-n coordinates (the
        source of ``operator(n)``) whose kernel is the twist-compatible
        (and, for the Lie kind, alternating) cochains, eliminated once."""
        return self._memo(("echelon", n), lambda: self._compatibility(n))

    def system_echelon(self, n: int) -> Echelon:
        """The echelon of the system whose kernel is the degree-n cocycles:
        the operator's rows, after the compatibility echelon (Lie kind)."""
        return self._memo(("system", n), lambda: echelon(
            self.operator(n).data, Echelon() if self.full_cocycles
            else self.compatibility_echelon(n)))

    def bound_space(self, n: int) -> CochainSpace:
        """The twist-compatible cochains of degree n: the canonical kernel
        of their compatibility echelon."""
        source = self.operator(n).source
        return self._memo(("bound", n), lambda: CochainSpace(source, tuple(
            integer_kernel(self.compatibility_echelon(n), source.dim))))

    def delta(self, f):
        """The coboundary of f, a cochain of this complex."""
        n = self._degree(f)
        if n < 1:
            raise UsageError("coboundary needs arity >= 1")
        return apply_operator(self.operator(n), f)


class ModuleComplex(_ComplexBase):
    """Cochains of X with values in a ``rep.Module`` over X (a bimodule
    for the associative kind, a left module for the Lie kind);
    ``module=None`` is X acting on itself.  ``label`` names the module in
    its warnings."""

    def __init__(self, X: HomAlgebra, module=None, label: str = "module"):
        super().__init__()
        assoc = X.kind == ASSOCIATIVE
        if module is None:
            module = self_module(X)
            self.flavor = HOM_SELF if assoc else LIE_SELF
        elif not isinstance(module, Module) or (module.algebra is not X
                                                and module.algebra != X):
            raise UsageError("module does not belong to the given algebra")
        else:
            self.flavor = HOM_BIMODULE if assoc else LIE_MODULE
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
        return out + [f"{self.label}: {p}"
                      for p in validate_module(self.module)]

    def _compatibility(self, n: int) -> Echelon:
        M = self.module
        rows = compatibility_rows(not self.full_cocycles, self.algebra,
                                  M.carrier_dim, M.beta_rows, n)
        return echelon(rows) if rows else Echelon()

    def _compile(self, n: int):
        M = self.module
        if self.full_cocycles:
            return hom_delta(self.algebra, M.left, M.right, M.carrier_dim, n)
        return lie_operator(self.algebra, M.carrier_dim, n, M.left)

    def _degree(self, f) -> int:
        if not isinstance(f, MultilinearMap):
            raise UsageError(f"{self.flavor} cochains are multilinear maps, "
                             f"not {type(f).__name__}")
        if (f.source_dim, f.target_dim) != (self.algebra.dim,
                                            self.module.carrier_dim):
            raise UsageError("cochain dimensions do not match algebra/module")
        return f.arity

    def face(self, i: int, f: MultilinearMap) -> MultilinearMap:
        """The i-th face operator of the associative-kind coboundary,
        compiled once per (index, arity).

        The boundary cases fold the module actions into the end operators
        (for arity 1 both fold into the single operator), so that the
        alternating signed sum over i recovers the coboundary at every
        arity.
        """
        n = self._degree(f)
        if not self.full_cocycles:
            raise UsageError("face operators need an associative-kind algebra")
        if n < 1:
            raise UsageError("face operators need arity >= 1")
        if i < 0 or i > n:
            raise UsageError(f"face index {i} out of range 0..{n}")
        M = self.module
        if i == n:
            return MultilinearMap.zero(n + 1, self.algebra.dim, M.carrier_dim)
        face = self._memo(("face", i, n), lambda: hom_operator(
            self.algebra, M.carrier_dim, n, [int(k == i) for k in range(n)],
            (-1, M.left) if i == 0 else None,
            (-1, M.right) if i == n - 1 else None))
        return apply_operator(face, f)

    def degree_zero_images(self) -> list[dict]:
        """The integer images under ``operator(0)`` of the 0-cochains that
        the structure map of the module fixes (its canonical kernel basis
        of beta - 1): e_i -> e_i m, minus m e_i for a bimodule."""
        M, op = self.module, self.operator(0)
        rows, den = M.beta_rows
        fixed = {j: {**rows.get(j, {}), j: rows.get(j, {}).get(j, 0) - den}
                 for j in range(M.carrier_dim)}
        return [op.numerators(m) for m in integer_kernel(
            echelon(_nonzero(fixed).values()), M.carrier_dim)]


# former names, kept while perfbench/workloads.py and record.py import them
HomSelfComplex = LieSelfComplex = ModuleComplex


class MorphismComplex(_ComplexBase):
    """Coupled complex of phi: A -> B.  Its degree-n cochains are those of
    ``source`` (A in itself) and ``target`` (B in itself) at degree n and
    of ``connecting`` (A in B through phi) at degree n - 1; its
    compatibility echelons and operators are assembled from theirs."""

    def __init__(self, phi: HomMorphism):
        super().__init__()
        self.phi = phi
        self.full_cocycles = phi.source.kind == ASSOCIATIVE
        self.flavor = MORPHISM_HOM if self.full_cocycles else MORPHISM_LIE
        self.source = ModuleComplex(phi.source)
        self.target = ModuleComplex(phi.target)
        self.connecting = connecting_complex(phi)

    @cached_property
    def warnings(self) -> list[str]:
        phi = self.phi
        out = [f"{X.name}: {report.describe()}"
               for X in (phi.source, phi.target)
               if not (report := validate(X)).is_valid]
        mreport = check_morphism(phi)
        if not mreport.is_valid:
            out.append(f"morphism: {mreport.describe()}")
        return out

    def _side_by_side(self, n: int, parts) -> Echelon:
        """The parts' echelons, each shifted to its degree-n columns."""
        return Echelon((start + col, {start + k: c for k, c in row.items()})
                       for start, e in zip(self.operator(n).source.starts,
                                           parts) for col, row in e)

    def _compatibility(self, n: int) -> Echelon:
        # block-diagonal rows: the parts' echelons (none at arity 0)
        return self._side_by_side(n, (
            self.source.compatibility_echelon(n),
            self.target.compatibility_echelon(n),
            self.connecting.compatibility_echelon(n - 1)))

    def system_echelon(self, n: int) -> Echelon:
        # the parts' echelons side by side, then only the connecting rows
        A, B, AB = self.source, self.target, self.connecting
        own = A.operator(n).rows + B.operator(n).rows
        return self._memo(("system", n), lambda: echelon(
            self.operator(n).data[own:], self._side_by_side(n, (
                A.system_echelon(n), B.system_echelon(n),
                Echelon() if self.full_cocycles
                else AB.compatibility_echelon(n - 1)))))

    def _compile(self, n: int):
        return morphism_delta(
            self.phi, self.source.operator(n), self.target.operator(n),
            self.connecting.operator(n - 1) if n > 1 else None)

    def _degree(self, c) -> int:
        if not isinstance(c, MorphismCochain):
            raise UsageError(f"{self.flavor} cochains are morphism cochains, "
                             f"not {type(c).__name__}")
        a, b = self.phi.source.dim, self.phi.target.dim
        for name, f, dims in (("comp_A", c.comp_A, (a, a)),
                              ("comp_B", c.comp_B, (b, b)),
                              ("comp_AB", c.comp_AB, (a, b))):
            if (f.source_dim, f.target_dim) != dims:
                raise UsageError(f"{name} dimensions do not match the "
                                 "morphism")
        return c.degree


def compute_cohomology(complex_obj: _ComplexBase, degrees,
                       include_degree_zero: bool = False) -> ComplexSummary:
    """Per-degree cocycles Z, coboundaries B, cohomology Z/B, and
    canonical representatives of a basis of Z/B.

    Z is the canonical kernel of ``system_echelon(n)``, in the operator's
    source coordinates, held as its primitive integer vectors (the record
    divides each by its free coordinate when read): the operator's rows
    alone for the associative kind, stacked on the compatibility rows for
    the Lie kind (the kernel of the operator on the compatible basis,
    mapped back vector by vector: both are reduced at the same trailing
    columns).

    B is spanned by the integer images of the integer kernel of the
    compatibility echelon one degree down, or by the columns of the
    operator one degree down when that echelon has no row (at degree 1,
    with ``include_degree_zero``, by the images of the 0-cochains the
    structure map fixes), read in Z's coordinates, which a
    non-alternating image of a non-skew bracket lacks.  An image off the
    kernel of the system (delta squared is nonzero on an invalid input)
    is reported, and B becomes B ∩ Z; the columns are checked all at
    once, row by row of the system times the operator below.  Each z_k is
    nonzero at its free column and 0 at the others, so a cocycle's values
    there are its coordinates in Z, each scaled by the free coordinate of
    its z_k, which moves no pivot.  Eliminating those of B, free columns
    reversed, gives dim B as the rank and, as pivots, the k for which
    some coboundary ends in z_k; the other z_k are the representatives,
    the greedy choice over [B | Z].  When B is the operator's columns,
    that matrix is the transpose of the operator's rows at the free
    columns, and its pivots are the greedy independent subset of those
    rows, from the last free column down (``independent_subset``).
    Kernels, ranks and pivots do not change under the injective map to
    multilinear maps.
    """
    degrees = list(degrees)
    for d in degrees:
        if type(d) is not int:
            raise UsageError(f"a degree must be an integer, got {d!r}")
    degrees = sorted(set(degrees))
    for n in degrees:  # every degree is checked before any work
        if n < 1:
            raise UsageError("degrees start at 1")
        _check_arity_guard(n)
    if include_degree_zero and not isinstance(complex_obj, ModuleComplex):
        raise UsageError("the arity-0 coboundary needs a module complex")
    # the cochain with coordinates x in a, in coordinates of b (or None)
    recoord = lambda x, a, b: b.project(a.to_full(x))
    warnings = list(complex_obj.warnings)
    records = []
    for n in degrees:
        op = complex_obj.operator(n)
        # the associative kind solves on all cochains; for the Lie kind no
        # basis of degree n is built: dim C_n is the rank defect
        pinned = () if complex_obj.full_cocycles else \
            complex_obj.compatibility_echelon(n)
        dim_c = op.source.dim - len(pinned)
        z = tuple(integer_kernel(complex_obj.system_echelon(n),
                                 op.source.dim)) if dim_c else ()
        # the system checks membership in Z, in integers
        system = SparseMatrix(op.rows + len(pinned), op.cols, op.data + tuple(
            row for _, row in pinned)) if pinned else op

        # the Z-coordinates of B, free columns reversed: z_k at len(z) - 1 - k
        at = {max(v): len(z) - 1 - k for k, v in enumerate(z)}
        images_at, images, pivots = op.source, [], None
        if n > 1:
            prev = complex_obj.operator(n - 1)
            below = complex_obj.compatibility_echelon(n - 1)
            images_at = prev.target
            if below:
                images = [prev.numerators(v) for v in integer_kernel(
                    below, prev.source.dim)]
            elif images_at == op.source and not _escapes(system, prev):
                # B is spanned by prev's columns, inside Z: its transpose
                # at the free columns is prev's rows there
                pivots = set(independent_subset(
                    [prev.data[f] for f in sorted(at, reverse=True)]))
            else:  # no row: every column
                images = [dict(col) for col in prev.columns]
        elif include_degree_zero:
            images_at = complex_obj.operator(0).target
            images = complex_obj.degree_zero_images()
        if pivots is None:
            b = images if images_at == op.source else [
                recoord(v, images_at, op.source) for v in images]
            if any(v is None or system.numerators(v) for v in b):
                warnings.append(
                    f"degree {n}: coboundaries escape the cocycles "
                    "(delta-squared is nonzero; invalid input structure)")
                same = images_at == op.source  # else a round trip each
                lifted = z if same else \
                    [recoord(v, op.source, images_at) for v in z]
                b = list(integral(dict(enumerate(  # integer rows
                    v if same else recoord(v, images_at, op.source)
                    for v in intersection_basis(images, lifted))))[0].values())
            pivots = set(pivot_columns(
                [{at[j]: x for j, x in v.items() if j in at} for v in b]))
        reps = tuple(v for k, v in enumerate(z)
                     if len(z) - 1 - k not in pivots)
        records.append(DegreeRecord(  # positional: no keyword binding
            n, dim_c, len(z), len(pivots), len(z) - len(pivots),
            CochainSpace(op.source, reps), CochainSpace(op.source, z)))
    return ComplexSummary(complex_obj.flavor, tuple(records),
                          tuple(warnings))


def _escapes(system: SparseMatrix, prev: SparseMatrix) -> bool:
    """Whether some column of prev is off the kernel of system: whether a
    nonempty row of system, times prev (summed from prev's rows), is not
    zero."""
    for row in system.data:
        if row:
            acc = {}
            for j, c in row.items():
                for i, x in prev.data[j].items():
                    acc[i] = acc.get(i, 0) + c * x
            if any(acc.values()):
                return True
    return False


def self_cohomology(X: HomAlgebra, degrees, **kw) -> ComplexSummary:
    return compute_cohomology(ModuleComplex(X), degrees, **kw)


def connecting_complex(phi: HomMorphism) -> ModuleComplex:
    """The standalone module-valued complex of the connecting component:
    cochains from the source with values in the target seen as the adjoint
    module (or bimodule) through phi."""
    return ModuleComplex(phi.source, adjoint_module(phi),
                         f"adjoint({phi.target.name})")
