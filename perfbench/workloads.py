"""The benchmark's workloads: inputs built from a seed, the operations run
on them, and the output gate each operation must pass.

Importing this module puts the checkout's ``src`` directory first on
``sys.path`` and imports ``homcoh`` from there, so the benchmark always
measures the code next to it and never an installed copy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
DEFAULT_SEED = 7

if not (SRC / "homcoh" / "__init__.py").is_file():
    raise ImportError(f"no homcoh package under {SRC}")
sys.path.insert(0, str(SRC))

import homcoh  # noqa: E402
from homcoh import cli, cohomology, files  # noqa: E402
from homcoh.algebra import ASSOCIATIVE, LIE, HomAlgebra, multiply, yau_twist  # noqa: E402
from homcoh.exact import Matrix, rref  # noqa: E402

if Path(homcoh.__file__).resolve().parent != SRC / "homcoh":
    raise ImportError(f"homcoh was imported from {homcoh.__file__}, "
                      f"not from {SRC}")

# Operations call homcoh through module attributes (``cli.main``,
# ``cohomology.compute_cohomology``) so that tracing wrappers see them.
# The gate serialises representatives with the function as it was before any
# tracing wrapper is installed, so checking outputs adds no spans.
_cochain_to_json = files.cochain_to_json


# ---------------------------------------------------------------- inputs

def heisenberg5() -> HomAlgebra:
    """The 5-dimensional Heisenberg Lie algebra [x1,y1] = [x2,y2] = z,
    with identity twist."""
    names = ("x1", "x2", "y1", "y2", "z")
    mul = [[[0] * 5 for _ in range(5)] for _ in range(5)]
    for x, y in ((0, 2), (1, 3)):
        mul[x][y][4] = 1
        mul[y][x][4] = -1
    return HomAlgebra(name="heisenberg5", kind=LIE, dim=5, mul=mul,
                      alpha=Matrix.identity(5), basis_names=names)


def upper_triangular2() -> HomAlgebra:
    """Upper-triangular 2x2 matrices (basis E11, E12, E22), Yau-twisted by
    diag(1, 2, 1)."""
    mul = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    mul[0][0][0] = 1  # E11 E11 = E11
    mul[0][1][1] = 1  # E11 E12 = E12
    mul[1][2][1] = 1  # E12 E22 = E12
    mul[2][2][2] = 1  # E22 E22 = E22
    plain = HomAlgebra(name="ut2", kind=ASSOCIATIVE, dim=3, mul=mul,
                       alpha=Matrix.identity(3),
                       basis_names=("e11", "e12", "e22"))
    return yau_twist(plain, Matrix.from_rows([[1, 0, 0], [0, 2, 0],
                                              [0, 0, 1]]))


def random_basis(rng: random.Random, n: int) -> Matrix:
    """Random invertible integer matrix L*U: unit lower-triangular L and
    upper-triangular U with small entries and diagonal in {1, -1, 2}."""
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    upper = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            lower[i][j] = Fraction(rng.randint(-2, 2))
            upper[j][i] = Fraction(rng.randint(-2, 2))
        upper[i][i] = Fraction(rng.choice((1, -1, 2)))
    return Matrix.from_rows(lower) @ Matrix.from_rows(upper)


def change_basis(A: HomAlgebra, P: Matrix) -> HomAlgebra:
    """The same algebra written in the basis given by the columns of P."""
    n = A.dim
    aug = rref(Matrix.from_rows(
        [list(P.row(i)) + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]))
    P_inv = Matrix.from_rows([list(aug.reduced.row(i))[n:] for i in range(n)])
    cols = [P.column(j) for j in range(n)]
    mul = [[P_inv.matvec(multiply(A, cols[i], cols[j])) for j in range(n)]
           for i in range(n)]
    return HomAlgebra(name=f"{A.name}~", kind=A.kind, dim=n, mul=mul,
                      alpha=P_inv @ A.alpha @ P, basis_names=A.basis_names)


# ---------------------------------------------------------- operations

def run_cli(argv: list[str]) -> tuple[int, str]:
    """One CLI command through ``homcoh.cli.main``: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argument
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


@contextlib.contextmanager
def op_cwd(workload, workdir: Path):
    """The working directory a workload's operations run in."""
    old = os.getcwd()
    if workload.cwd_is_workdir:
        os.chdir(workdir)
    try:
        yield
    finally:
        os.chdir(old)


def _cohomology_op(make_complex, degree: int):
    return lambda: cohomology.compute_cohomology(
        make_complex(), [degree]).record(degree)


class Workload:
    """A fixed list of operations run one after another in this process
    (a closed loop with one client). ``prepare`` is the set-up timed as
    ``setup_s``; ``operations`` lists one pass of (name, callable)."""

    name = ""
    seeded = False  # does the seed change the inputs?
    cwd_is_workdir = False

    def prepare(self, seed: int, workdir: Path):
        raise NotImplementedError

    def operations(self, inputs) -> list:
        raise NotImplementedError


class CohomologyWorkload(Workload):
    """Library operations: one (complex, degree) computation each. The gate
    compares (dim C, dim Z, dim B, dim H) and a digest of the
    representatives."""

    degrees: tuple[int, ...] = ()

    def algebra(self, seed: int) -> HomAlgebra:
        raise NotImplementedError

    def prepare(self, seed: int, workdir: Path):
        return self.algebra(seed)

    def operations(self, A: HomAlgebra) -> list:
        make = (lambda: cohomology.LieSelfComplex(A)) if A.kind == LIE else \
            (lambda: cohomology.HomSelfComplex(A))
        return [(f"H{d}", _cohomology_op(make, d)) for d in self.degrees]


class LieHeisenberg5(CohomologyWorkload):
    name = "lie_heisenberg5"
    degrees = (2, 3)

    def algebra(self, seed: int) -> HomAlgebra:
        return heisenberg5()


class AssocBasisChange(CohomologyWorkload):
    name = "assoc_basis_change"
    seeded = True
    degrees = (1, 2, 3)

    def algebra(self, seed: int) -> HomAlgebra:
        # Bases are drawn until every structure constant and twist entry is
        # nonzero. Zeros make elimination much cheaper, so without this the
        # cost of a run would depend on the seed far more than on the code.
        rng = random.Random(seed)
        while True:
            A = change_basis(upper_triangular2(), random_basis(rng, 3))
            if all(A.alpha.entries) and all(x for row in A.mul for v in row
                                            for x in v):
                return A


class CliWorkload(Workload):
    """CLI operations; the gate compares the exit code and the sha256 of
    stdout."""

    def operations(self, commands) -> list:
        return [(" ".join(argv), lambda argv=argv: run_cli(argv))
                for argv in commands]


class DeformExtend(CliWorkload):
    name = "deform_extend"

    def prepare(self, seed: int, workdir: Path):
        return [["deform", "extend", "mdef_2", "--to-order", "10", "--json"],
                ["deform", "extend", "def_g1", "--to-order", "20", "--json"]]


class CliFixtures(CliWorkload):
    name = "cli_fixtures"
    cwd_is_workdir = True  # commands name the fixture files relative to it

    def prepare(self, seed: int, workdir: Path):
        written = files.write_builtin_files(str(workdir))
        names = sorted(os.path.basename(p) for p in written)
        loaded = {n: json.loads((workdir / n).read_text()) for n in names}
        algebras = [n for n in names if "kind" in loaded[n]]
        morphisms = [n for n in names if "matrix" in loaded[n]]
        deformations = [n for n in names if "terms" in loaded[n]]
        cmds = [["validate", n, "--json"] for n in algebras + morphisms]
        cmds += [["cohomology", n, "--degree", "1..3", "--json", "--force"]
                 for n in algebras]
        cmds.append(["cohomology", "a3.json", "--degree", "1..3",
                     "--values-in", "phi_assoc.json", "--json"])
        cmds += [["morphism-cohomology", n, "--degree", "1..2", "--json"]
                 for n in morphisms]
        cmds += [["deform", action, n, "--json"] for n in deformations
                 for action in ("check", "infinitesimal", "obstruction",
                                "extend")]
        return cmds


WORKLOADS = {w.name: w for w in (LieHeisenberg5(), AssocBasisChange(),
                                 DeformExtend(), CliFixtures())}


# ---------------------------------------------------------------- gate

def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def summarize(workload: Workload, inputs, output) -> dict:
    """What the gate compares for one operation's output."""
    if isinstance(workload, CohomologyWorkload):
        reps = [_cochain_to_json(r, inputs.basis_names)
                for r in output.representatives]
        return {"dims": [output.dim_cochains, output.dim_cocycles,
                         output.dim_coboundaries, output.dim_cohomology],
                "reps_sha256": sha256(json.dumps(reps, sort_keys=True))}
    code, stdout = output
    return {"exit": code, "stdout_sha256": sha256(stdout)}


def check(workload: Workload, inputs, name: str, output, seed: int,
          expected: dict) -> str | None:
    """None when the output matches the expectation recorded for it, else
    the reason it does not."""
    want = expected.get(workload.name, {}).get(name)
    if want is None:
        return "no recorded expectation"
    got = summarize(workload, inputs, output)
    if workload.seeded and seed != DEFAULT_SEED:
        # Dimensions do not depend on the basis; representatives do.
        got = {k: v for k, v in got.items() if k != "reps_sha256"}
    for key, value in got.items():
        if want.get(key) != value:
            return f"{key}: expected {want.get(key)!r}, got {value!r}"
    return None


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())
