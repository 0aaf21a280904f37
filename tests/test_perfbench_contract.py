"""Every ``homcoh`` name that the benchmark scripts in ``perfbench/``
import, or read as an attribute of a ``homcoh`` module, still exists, and
one pass of every benchmark workload gives its recorded output, so a
change that deletes or renames what the benchmark uses, or changes what
it computes, fails here and not only when the benchmark runs."""

import ast
import importlib
import inspect
from pathlib import Path
from types import ModuleType

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolve(module: str, name: str):
    """The attribute name of the module (a submodule counts), or None."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        return None


def _chain(node) -> list[str] | None:
    """["a", "b", "c"] for the expression a.b.c, else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + names[::-1]


def homcoh_references() -> list[tuple[str, str, str]]:
    """(place, module, name) for every homcoh name the scripts use: the
    names of ``from homcoh... import`` and the attributes read from a local
    name bound to a homcoh module."""
    refs = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        modules = {}  # local name -> the homcoh module it holds
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == "homcoh":
                        # "import homcoh.x" binds homcoh, "... as y" binds y
                        modules[a.asname or "homcoh"] = \
                            a.name if a.asname else "homcoh"
            elif isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] == "homcoh" and not node.level:
                for a in node.names:
                    refs.append((f"{path.name}:{node.lineno}", node.module,
                                 a.name))
                    value = _resolve(node.module, a.name)
                    if isinstance(value, ModuleType):
                        modules[a.asname or a.name] = value.__name__
        for node in ast.walk(tree):
            chain = _chain(node) if isinstance(node, ast.Attribute) else None
            if chain and chain[0] in modules:
                module = modules[chain[0]]
                for name in chain[1:-1]:  # a.b.c: b must be a submodule
                    module = f"{module}.{name}"
                refs.append((f"{path.name}:{node.lineno}", module, chain[-1]))
    return refs


def test_every_homcoh_name_the_benchmark_uses_exists():
    refs = homcoh_references()
    names = {name for _, _, name in refs}
    assert {"HomSelfComplex", "LieSelfComplex", "compute_cohomology", "rref",
            "multiply", "write_builtin_files", "main"} <= names
    missing = [ref for ref in refs if _resolve(ref[1], ref[2]) is None]
    assert missing == []


# The parameters that ``perfbench/spans.py::_measure`` reads by name from
# the bound arguments of each traced function (``run.py --trace 1``).
TRACED_PARAMETERS = {
    ("exact", "solve"): {"m"}, ("exact", "nullspace_basis"): {"m"},
    ("exact", "rref"): {"m"}, ("exact", "independent_subset"): {"vectors"},
    ("exact", "intersection_basis"): {"u_cols", "w_cols"},
    ("cohomology", "compute_cohomology"): {"complex_obj", "degrees"},
}


def test_every_parameter_the_tracer_reads_keeps_its_name():
    for (module, name), params in TRACED_PARAMETERS.items():
        fn = getattr(importlib.import_module(f"homcoh.{module}"), name)
        assert params <= set(inspect.signature(fn).parameters), name


def test_one_pass_of_every_workload_gives_its_recorded_output(
        tmp_path, monkeypatch):
    """Each workload of ``perfbench/workloads.py``, listed in
    BENCHMARK.json or not, is prepared in a temporary directory and one pass
    of its operations is checked against ``perfbench/expected.json``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    expected = workloads.load_expected()
    assert set(workloads.WORKLOADS) == set(expected)
    seed = workloads.DEFAULT_SEED
    for wl in workloads.WORKLOADS.values():
        workdir = tmp_path / wl.name
        inputs = wl.prepare(seed, workdir)
        ops = wl.operations(inputs)
        with workloads.op_cwd(wl, workdir):
            failures = [(name, error) for name, op in ops
                        if (error := workloads.check(wl, inputs, name, op(),
                                                     seed, expected))]
        assert failures == [], wl.name
        assert len(ops) == len(expected[wl.name]), wl.name
