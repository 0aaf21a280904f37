"""Published reference values for the worked examples, and the comparison
logic behind the command line's --compare-paper mode.

Each comparison yields PASS when the exact computation agrees with the
published value and FINDING otherwise; findings are documented outcomes,
not errors, since several published dimension counts do not survive exact
recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cohomology import ComplexSummary


@dataclass(frozen=True)
class Comparison:
    subject: str
    quantity: str
    expected: object
    computed: object
    note: str = ""

    @property
    def status(self) -> str:
        return "PASS" if self.expected == self.computed else "FINDING"

    def to_json(self) -> dict:
        return {"subject": self.subject, "quantity": self.quantity,
                "expected": self.expected, "computed": self.computed,
                "status": self.status, "note": self.note}


def g1_h2_expected(p1, p2) -> tuple[int, str]:
    """Piecewise published table for the second cohomology dimension of the
    three-dimensional one-bracket family with twist (p1, p2, p1*p2)."""
    p1, p2 = Fraction(p1), Fraction(p2)
    if p1 == 0:
        return 4, "published row: first twist entry 0"
    if p1 == 1:
        if p2 == 1:
            return 7, "published row: both twist entries 1"
        if p2 == 0:
            return 4, "published row: twist entries (1, 0)"
        if p2 == -1:
            return 4, "published row: twist entries (1, -1)"
        return 3, "published row: twist entries (1, generic)"
    if p1 == -1:
        if p2 == 1:
            return 4, "published row: twist entries (-1, 1)"
        if p2 == 0:
            return 4, "published row: twist entries (-1, 0)"
        if p2 == -1:
            return 3, "published row: twist entries (-1, -1)"
        return 1, "published row: twist entries (-1, generic)"
    # p1 generic
    if p2 == 1:
        return 3, "published row: twist entries (generic, 1)"
    if p2 == 0:
        return 4, "published row: twist entries (generic, 0)"
    if p2 == -1:
        return 1, "published row: twist entries (generic, -1)"
    if p2 == 1 / p1:
        return 1, "published row: twist entries (generic, reciprocal)"
    return 0, "published row: both twist entries generic"


# expected dim H^2 for self-complexes, keyed by fixture algebra name
H2_SELF = {
    "assoc3(a=1,b=2)": (0, "published: second cohomology vanishes"),
    "assoc3(a=1,b=1)": (0, "published: second cohomology vanishes"),
    "assoc2": (1, "published: one class beyond the coboundaries"),
    "lie4a(a=1,b=1,c=1,d=1)": (0, "published: second cohomology vanishes"),
    "lie4b(a=2,b=1,c=1,d=1,e=1)":
        (7, "published dimension 7; the published generator list has 2 "
            "elements, which matches the exact computation"),
    "lie4b(a=2,b=1,c=1,d=1,e=-1)":
        (6, "published dimension 6; the published generator list has 3 "
            "elements, which matches the exact computation"),
    "g2": (1, "published: one class for the companion algebra (computed "
              "under the degraded path; the algebra itself is invalid)"),
}

# extra pins for the two-dimensional associative example
ZB_SELF = {
    "assoc2": ((3, 2), "published free-parameter counts (c,d,z) and (c,d)"),
}

# expected connecting-component first cohomology, keyed by morphism ends
CONNECTING_H1 = {
    ("g1(p1=2,p2=0)", "g2"): (2, "published: two-dimensional"),
    ("g1(p1=2,p2=2)", "g2"): (6, "published: six-dimensional"),
}


def compare_h2_self(algebra_name: str, summary: ComplexSummary,
                    p1=None, p2=None) -> list[Comparison]:
    out = []
    try:
        record = summary.record(2)
    except KeyError:
        return out
    expected = None
    note = ""
    if algebra_name in H2_SELF:
        expected, note = H2_SELF[algebra_name]
    elif algebra_name.startswith("g1(") and p1 is not None:
        expected, note = g1_h2_expected(p1, p2)
    if expected is not None:
        out.append(Comparison(algebra_name, "dim H^2", expected,
                              record.dim_cohomology, note))
    if algebra_name in ZB_SELF:
        (ez, eb), note = ZB_SELF[algebra_name]
        out.append(Comparison(algebra_name, "dim Z^2", ez,
                              record.dim_cocycles, note))
        out.append(Comparison(algebra_name, "dim B^2", eb,
                              record.dim_coboundaries, note))
    return out


def compare_connecting_h1(source_name: str, target_name: str,
                          dim_h1: int) -> list[Comparison]:
    key = (source_name, target_name)
    if key not in CONNECTING_H1:
        return []
    expected, note = CONNECTING_H1[key]
    return [Comparison(f"{source_name} -> {target_name}",
                       "dim H^1 of the connecting component", expected,
                       dim_h1, note)]


def g1_parameters_from_name(name: str):
    """Recover (p1, p2) from a g1 fixture name, or (None, None)."""
    if not name.startswith("g1(p1="):
        return None, None
    try:
        inner = name[len("g1("):-1]
        parts = dict(p.split("=") for p in inner.split(","))
        return Fraction(parts["p1"]), Fraction(parts["p2"])
    except (ValueError, KeyError):
        return None, None
