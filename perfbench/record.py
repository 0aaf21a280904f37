"""Record the expected outputs the benchmark's gate compares against, into
``perfbench/expected.json``.

    python3 perfbench/record.py

Runs every workload once at the default seed. For ``assoc_basis_change`` the
expected dimensions come from the algebra in its original basis, and the
recording stops unless the default seed and a second seed both reproduce
them: a change of basis must not change a dimension.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from homcoh.cohomology import HomSelfComplex, compute_cohomology

SECOND_SEED = 8


def outcomes(wl, seed: int, workdir: Path) -> dict:
    inputs = wl.prepare(seed, workdir)
    with workloads.op_cwd(wl, workdir):
        return {name: workloads.summarize(wl, inputs, fn())
                for name, fn in wl.operations(inputs)}


def main() -> int:
    expected = {}
    tmp = Path(tempfile.mkdtemp(dir=workloads.ROOT, prefix=".perfbench_rec"))
    try:
        for name, wl in workloads.WORKLOADS.items():
            expected[name] = outcomes(wl, workloads.DEFAULT_SEED, tmp / name)
            print(f"recorded {name}: {len(expected[name])} ops")
        basis_wl = workloads.WORKLOADS["assoc_basis_change"]
        original = workloads.upper_triangular2()
        second = outcomes(basis_wl, SECOND_SEED, tmp / "second")
        for d in basis_wl.degrees:
            rec = compute_cohomology(HomSelfComplex(original), [d]).record(d)
            dims = [rec.dim_cochains, rec.dim_cocycles, rec.dim_coboundaries,
                    rec.dim_cohomology]
            for seed, got in ((workloads.DEFAULT_SEED, expected[basis_wl.name]),
                              (SECOND_SEED, second)):
                if got[f"H{d}"]["dims"] != dims:
                    print(f"error: seed {seed} H{d} dims {got[f'H{d}']['dims']}"
                          f" differ from the original basis {dims}",
                          file=sys.stderr)
                    return 1
            print(f"basis change keeps H{d} dims {dims} at seeds "
                  f"{workloads.DEFAULT_SEED} and {SECOND_SEED}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    workloads.EXPECTED_PATH.write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
