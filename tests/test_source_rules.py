"""Rules on the package source, checked on its syntax tree."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "homcoh"

# Only the full coordinate system enumerates every argument tuple; every
# other function reads nonzero entries.
ALLOWED_DENSE_LOOPS = {"Coords.tuples"}


def _is_dense_tuple_loop(node: ast.AST) -> bool:
    """A call product(range(...), repeat=...)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", None)
    return (name == "product" and len(node.args) == 1
            and isinstance(node.args[0], ast.Call)
            and getattr(node.args[0].func, "id", None) == "range"
            and any(k.arg == "repeat" for k in node.keywords))


def dense_tuple_loops(tree: ast.AST) -> list[str]:
    """Qualified names of the functions that call product(range(...),
    repeat=...)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
            else:
                if _is_dense_tuple_loop(child):
                    found.append(".".join(scope) or "<module>")
                visit(child, scope)

    visit(tree, [])
    return found


def test_rule_sees_dense_tuple_loops():
    tree = ast.parse(
        "class C:\n"
        "    def f(self, n, k):\n"
        "        return list(itertools.product(range(n), repeat=k))\n"
        "def g(n):\n"
        "    return [t for t in product(range(n), repeat=2)]\n"
        "def h(n):\n"
        "    return product(range(n), range(n))\n")
    assert dense_tuple_loops(tree) == ["C.f", "g"]


def test_only_full_coordinates_enumerate_every_argument_tuple():
    offenders = {}
    for path in sorted(SOURCE.glob("*.py")):
        names = dense_tuple_loops(ast.parse(path.read_text(), str(path)))
        bad = [n for n in names if n not in ALLOWED_DENSE_LOOPS]
        if bad:
            offenders[path.name] = bad
    assert offenders == {}


def fstring_getattrs(tree: ast.AST) -> list[int]:
    """Lines of the getattr calls whose attribute name is an f-string."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "getattr"
            and len(node.args) > 1 and isinstance(node.args[1], ast.JoinedStr)]


def test_rule_sees_fstring_getattrs():
    tree = ast.parse(
        "getattr(files, f'load_{what}_file')(ref)\n"
        "getattr(rec, field)\n"
        "getattr(rec, 'name', None)\n"
        "x = [getattr(m, f'{k}_terms') for k in ks]\n")
    assert fstring_getattrs(tree) == [1, 4]


def test_no_attribute_is_looked_up_by_a_built_name():
    # a name built at run time hides its uses from a search of the source
    offenders = {}
    for path in sorted(SOURCE.glob("*.py")):
        lines = fstring_getattrs(ast.parse(path.read_text(), str(path)))
        if lines:
            offenders[path.name] = lines
    assert offenders == {}


# files.load alone turns a reference into a file, so no other module looks
# for a file or reads one
FILE_READS = {"open", "os.path.isfile", "json.load", "files._load_json",
              "_load_json"}


def _dotted(node: ast.AST) -> str | None:
    """"a.b.c" for the expression a.b.c, else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + names[::-1])


def file_reads(tree: ast.AST) -> list[int]:
    """Lines of the calls that look for a file or read one."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and _dotted(node.func) in FILE_READS)


def test_rule_sees_file_reads():
    tree = ast.parse(
        "if os.path.isfile(ref):\n"
        "    data = files._load_json(ref)\n"
        "with open(ref) as fh:\n"
        "    data = json.load(fh)\n"
        "data = json.loads(text)\n"
        "base = os.path.dirname(ref)\n"
        "fh.read()\n")
    assert file_reads(tree) == [1, 2, 3, 4]


def test_only_the_files_module_reads_files():
    offenders = {}
    for path in sorted(SOURCE.glob("*.py")):
        lines = file_reads(ast.parse(path.read_text(), str(path)))
        if lines and path.name != "files.py":
            offenders[path.name] = lines
    assert offenders == {}


# files.json_text alone writes indented JSON, so every report and fixture
# file is written the same way
INDENTED_JSON_WRITERS = {"json.dump", "json.dumps"}


def indented_json_writes(tree: ast.AST) -> list[int]:
    """Lines of the json.dump and json.dumps calls given an indent."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and _dotted(node.func) in INDENTED_JSON_WRITERS
                  and any(k.arg == "indent" for k in node.keywords))


def test_rule_sees_indented_json_writes():
    tree = ast.parse(
        "print(json.dumps(payload, indent=2, sort_keys=True))\n"
        "json.dump(payload, fh, sort_keys=True, indent=2)\n"
        "key = json.dumps(reps, sort_keys=True)\n"
        "text = files.json_text(payload)\n"
        "data = json.loads(json.dumps(x,\n"
        "                             indent=None))\n")
    assert indented_json_writes(tree) == [1, 2, 5]


def test_only_json_text_writes_indented_json():
    offenders = {}
    for path in sorted(SOURCE.glob("*.py")):
        lines = indented_json_writes(ast.parse(path.read_text(), str(path)))
        if lines:
            offenders[path.name] = lines
    assert offenders == {}


# exact.py alone reaches into its elimination kernel; every other module
# takes pivots, ranks and kernels through its public functions
def private_exact_imports(tree: ast.AST) -> list[int]:
    """Lines of the imports of an underscore name from homcoh.exact."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.module == "homcoh.exact"
                       or (node.level == 1 and node.module == "exact"))
                  and any(a.name.startswith("_") for a in node.names))


def test_rule_sees_private_exact_imports():
    tree = ast.parse(
        "from .exact import _echelon\n"
        "from .exact import pivot_columns, nullspace_basis\n"
        "from homcoh.exact import (solve,\n"
        "                          _reduced)\n"
        "from .algebra import _add\n"
        "from exact import _echelon\n")
    assert private_exact_imports(tree) == [1, 3]


def test_only_exact_uses_its_private_names():
    offenders = {}
    for path in sorted(SOURCE.glob("*.py")):
        lines = private_exact_imports(ast.parse(path.read_text(), str(path)))
        if lines and path.name != "exact.py":
            offenders[path.name] = lines
    assert offenders == {}


# exact.value_class builds the value classes: ``dataclasses`` generates and
# compiles their methods on import, which every command pays at start-up
def dataclass_imports(tree: ast.AST) -> list[int]:
    """Lines of the imports of the ``dataclasses`` module or its names."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "dataclasses"))


def test_rule_sees_dataclass_imports():
    tree = ast.parse(
        "from dataclasses import dataclass, field\n"
        "import dataclasses\n"
        "import os, dataclasses as dc\n"
        "from .exact import value_class\n"
        "def f():\n"
        "    from dataclasses import replace\n"
        "from . import dataclasses\n")
    assert dataclass_imports(tree) == [1, 2, 3, 6]


def test_no_module_imports_dataclasses():
    offenders = {}
    for path in sorted(SOURCE.glob("*.py")):
        lines = dataclass_imports(ast.parse(path.read_text(), str(path)))
        if lines:
            offenders[path.name] = lines
    assert offenders == {}


# deformation.py holds each series by its nonzero degrees, so a series sum
# walks the stored degrees; reading coefficients by degree over a range
# walks every degree, stored or not
COEFFICIENT_READS = {"term", "phi_term"}


def _is_range_loop(node: ast.AST) -> bool:
    """A for loop or comprehension that iterates over a range(...) call."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        iters = [node.iter]
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                           ast.GeneratorExp)):
        iters = [g.iter for g in node.generators]
    else:
        return False
    return any(isinstance(it, ast.Call)
               and getattr(it.func, "id", None) == "range" for it in iters)


def coefficient_reads_over_ranges(tree: ast.AST) -> list[str]:
    """Qualified names of the functions that call .term or .phi_term
    inside a loop over a range."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            name = ".".join(scope) or "<module>"
            if _is_range_loop(child) and name not in found and any(
                    isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr in COEFFICIENT_READS
                    for n in ast.walk(child)):
                found.append(name)
            visit(child, scope)

    visit(tree, [])
    return found


def test_rule_sees_coefficient_reads_over_ranges():
    tree = ast.parse(
        "def f(d, n):\n"
        "    for p in range(1, n + 1):\n"
        "        if p:\n"
        "            acc = acc + d.term(p)\n"
        "class C:\n"
        "    def g(self, md, n):\n"
        "        return [md.phi_term(j) for j in range(n)]\n"
        "def h(d, n):\n"
        "    for p, m in d.series.items():\n"
        "        acc = acc + d.term(p)\n"
        "    return [s for s in range(n)], d.term(1)\n"
        "def k(psi, n):\n"
        "    for s in range(n):\n"
        "        for i in range(s):\n"
        "            psi.term('a', i)\n")
    assert coefficient_reads_over_ranges(tree) == ["f", "C.g", "k"]


def test_deformation_series_sums_walk_stored_degrees():
    path = SOURCE / "deformation.py"
    assert coefficient_reads_over_ranges(
        ast.parse(path.read_text(), str(path))) == []


# a complex eliminates each degree's compatibility rows once, into the
# echelon it keeps (``compatibility_echelon``); dimensions, kernels and
# spaces read that echelon instead of eliminating the rows again
KERNEL_READS = {"pivot_columns", "integer_kernel", "nullspace_basis",
                "rational_kernel", "kernel_space"}


def _called(call: ast.Call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", None)


def _calls_of(node: ast.AST, names) -> list[ast.Call]:
    return [n for n in ast.walk(node)
            if isinstance(n, ast.Call) and _called(n) in names]


def _row_calls(node: ast.AST) -> list[ast.Call]:
    """The compatibility_rows calls in node that no echelon call takes."""
    eliminated = {id(n) for call in _calls_of(node, {"echelon"})
                  for n in ast.walk(call)}
    return [n for n in _calls_of(node, {"compatibility_rows"})
            if id(n) not in eliminated]


def kernel_reads_of_compatibility_rows(tree: ast.AST) -> list[int]:
    """Lines of the kernel reads given compatibility rows: an argument
    that calls compatibility_rows, or names a variable that the same
    function assigns from such a call (not from their echelon)."""
    found = set()
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        rows = {t.id for a in ast.walk(scope) if isinstance(a, ast.Assign)
                and _row_calls(a.value)
                for t in a.targets if isinstance(t, ast.Name)}
        for call in _calls_of(scope, KERNEL_READS):
            for arg in call.args + [k.value for k in call.keywords]:
                if _row_calls(arg) or any(isinstance(n, ast.Name)
                                          and n.id in rows
                                          for n in ast.walk(arg)):
                    found.add(call.lineno)
    return sorted(found)


def test_rule_sees_kernel_reads_of_compatibility_rows():
    tree = ast.parse(
        "def f(c, n):\n"
        "    k = integer_kernel(c.compatibility_rows(n - 1), 4)\n"
        "    rows = [] if c.full else c.compatibility_rows(n)\n"
        "    dim = 4 - len(pivot_columns(rows))\n"
        "    e = echelon(c.compatibility_rows(n))\n"
        "    s = kernel_space(s, e)\n"
        "    return exact.nullspace_basis(\n"
        "        SparseMatrix(1, 2, tuple(rows)))\n"
        "class C:\n"
        "    def g(self, n):\n"
        "        return self._memo(n, lambda: kernel_space(\n"
        "            self.source, self.compatibility_rows(n)))\n"
        "def h(c, n):\n"
        "    return pivot_columns(rows), integer_kernel(c.echelon(n), 3)\n")
    assert kernel_reads_of_compatibility_rows(tree) == [2, 4, 7, 11]


def test_compatibility_rows_are_eliminated_once_per_complex():
    offenders = {}
    for name in ("cohomology.py", "deformation.py"):
        path = SOURCE / name
        lines = kernel_reads_of_compatibility_rows(
            ast.parse(path.read_text(), str(path)))
        if lines:
            offenders[name] = lines
    assert offenders == {}


# exact.SparseMatrix is the one matrix of rows over a denominator: a
# compiled operator is one, so no second class keeps rows over its own den
DEN_OWNERS = {"exact.SparseMatrix"}


def _targets(node: ast.AST) -> list:
    """The targets of an assignment, annotated or augmented or not."""
    return node.targets if isinstance(node, ast.Assign) else [node.target]


def _binds_den(node: ast.AST) -> bool:
    """An assignment target that is self.den, alone or in a tuple."""
    if isinstance(node, (ast.Tuple, ast.List)):
        return any(_binds_den(n) for n in node.elts)
    return isinstance(node, ast.Attribute) and node.attr == "den" and \
        getattr(node.value, "id", None) == "self"


def den_bindings(tree: ast.AST) -> list[str]:
    """Names of the classes that bind a den attribute: a field or class
    attribute of that name, or an assignment to self.den in a method."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        fields = [t for node in cls.body
                  if isinstance(node, (ast.Assign, ast.AnnAssign))
                  for t in _targets(node) if getattr(t, "id", None) == "den"]
        selves = [t for node in ast.walk(cls)
                  if isinstance(node, (ast.Assign, ast.AnnAssign,
                                       ast.AugAssign))
                  for t in _targets(node) if _binds_den(t)]
        if fields or selves:
            found.append(cls.name)
    return found


def test_rule_sees_den_bindings():
    tree = ast.parse(
        "class A:\n"
        "    den: int = 1\n"
        "class B:\n"
        "    def __init__(self, rows, den):\n"
        "        self.rows, self.den = rows, den\n"
        "class C:\n"
        "    def f(self, other):\n"
        "        other.den = 2\n"
        "        den = self.den\n"
        "        return den\n"
        "class D:\n"
        "    den = 1\n"
        "class E:\n"
        "    def g(self):\n"
        "        self.den *= 3\n"
        "def den(self):\n"
        "    self.den = 4\n")
    assert den_bindings(tree) == ["A", "B", "D", "E"]


def test_one_class_holds_rows_over_a_denominator():
    offenders = {}
    for path in sorted(SOURCE.glob("*.py")):
        names = [f"{path.stem}.{name}" for name in
                 den_bindings(ast.parse(path.read_text(), str(path)))]
        bad = [n for n in names if n not in DEN_OWNERS]
        if bad:
            offenders[path.name] = bad
    assert offenders == {}


# algebra.ASSOCIATIVE and algebra.LIE are the one kind vocabulary: a kind is
# read off the algebra that carries it, never restated by a second constant
# or passed beside it as an argument
KIND_WORDS = {"associative", "lie", "hom"}


def kind_constants(tree: ast.AST) -> list[int]:
    """Lines of the module-level assignments of a kind word to a name."""
    def words(value):
        items = value.elts if isinstance(value, (ast.Tuple, ast.List)) \
            else [value]
        return [v.value for v in items if isinstance(v, ast.Constant)]

    return sorted(node.lineno for node in tree.body
                  if isinstance(node, (ast.Assign, ast.AnnAssign))
                  and node.value is not None
                  and KIND_WORDS & set(words(node.value)))


def test_rule_sees_kind_constants():
    tree = ast.parse(
        'HOM = "hom"\n'
        'LIE: str = "lie"\n'
        'A, B = "associative", "lie"\n'
        'HOM_SELF = "hom_self"\n'
        'def f():\n'
        '    kind = "lie"\n'
        'X = Y = "hom"\n'
        'KINDS: tuple\n')
    assert kind_constants(tree) == [1, 2, 3, 7]


def test_only_algebra_names_the_kinds():
    offenders = {}
    for path in sorted(SOURCE.glob("*.py")):
        lines = kind_constants(ast.parse(path.read_text(), str(path)))
        if lines and path.name != "algebra.py":
            offenders[path.name] = lines
    assert offenders == {}


def flavor_parameters(tree: ast.AST) -> list[int]:
    """Lines of the functions and lambdas with a parameter named flavor."""
    def params(a: ast.arguments) -> list[ast.arg]:
        return a.posonlyargs + a.args + a.kwonlyargs + [
            p for p in (a.vararg, a.kwarg) if p is not None]

    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.Lambda))
                  and any(p.arg == "flavor" for p in params(node.args)))


def test_rule_sees_flavor_parameters():
    tree = ast.parse(
        "def f(phi, flavor):\n"
        "    pass\n"
        "class C:\n"
        "    def __init__(self, phi, *, flavor='hom'):\n"
        "        self.flavor = flavor\n"
        "g = lambda flavor: flavor\n"
        "def h(random_per_flavor, kind, **flavor):\n"
        "    return flavor\n"
        "def k(phi):\n"
        "    return phi.flavor\n")
    assert flavor_parameters(tree) == [1, 4, 6, 7]


def test_no_function_takes_a_flavor():
    offenders = {}
    for path in sorted(SOURCE.glob("*.py")):
        lines = flavor_parameters(ast.parse(path.read_text(), str(path)))
        if lines:
            offenders[path.name] = lines
    assert offenders == {}


# nothing caches without bound in a long-lived process: an lru_cache names
# its integer maxsize, and an unbounded cache holds the one value of a
# function without parameters
LRU_CACHES = {"lru_cache", "functools.lru_cache"}
UNBOUNDED_CACHES = {"cache", "functools.cache"}


def _maxsize(call: ast.Call):
    """The maxsize node an lru_cache(...) call gives, or None."""
    given = call.args[:1] + [k.value for k in call.keywords
                             if k.arg == "maxsize"]
    return given[0] if given else None


def unbounded_caches(tree: ast.AST) -> list[int]:
    """Lines of the caches that may grow without bound: an lru_cache
    without an integer maxsize, and a cache (or lru_cache(maxsize=None))
    that is not a decorator of a function without parameters."""
    parameterless = {id(d) for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                     and not any((node.args.posonlyargs, node.args.args,
                                  node.args.kwonlyargs, node.args.vararg,
                                  node.args.kwarg))
                     for d in node.decorator_list}
    calls = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    found = set()
    for node in ast.walk(tree):
        name = _dotted(node)
        if isinstance(node, ast.Call) and _dotted(node.func) in LRU_CACHES:
            size = _maxsize(node)
            bounded = isinstance(size, ast.Constant) and \
                type(size.value) is int
            unbounded = isinstance(size, ast.Constant) and size.value is None
            if not bounded and not (unbounded and id(node) in parameterless):
                found.add(node.lineno)
        elif name in LRU_CACHES and id(node) not in calls:
            found.add(node.lineno)  # the default maxsize, not named
        elif name in UNBOUNDED_CACHES and id(node) not in parameterless:
            found.add(node.lineno)
    return sorted(found)


def test_rule_sees_unbounded_caches():
    tree = ast.parse(
        "@lru_cache(maxsize=None)\n"
        "def f(x):\n"
        "    return x\n"
        "@functools.cache\n"
        "def g(x):\n"
        "    return x\n"
        "@lru_cache\n"
        "def h():\n"
        "    return 1\n"
        "@cache\n"
        "def parser():\n"
        "    return 2\n"
        "@lru_cache(maxsize=None)\n"
        "def table():\n"
        "    return 3\n"
        "@lru_cache(maxsize=64)\n"
        "def shape(a, b):\n"
        "    return a, b\n"
        "@functools.lru_cache(16)\n"
        "def other(a):\n"
        "    return a\n"
        "kept = lru_cache(maxsize=size)(shape)\n"
        "held = cache(shape)\n"
        "@lru_cache(maxsize=True)\n"
        "def flag(a):\n"
        "    return a\n")
    assert unbounded_caches(tree) == [1, 4, 7, 22, 23, 24]


def test_every_cache_is_bounded():
    offenders = {}
    for path in sorted(SOURCE.glob("*.py")):
        lines = unbounded_caches(ast.parse(path.read_text(), str(path)))
        if lines:
            offenders[path.name] = lines
    assert offenders == {}


# algebra.product_tensor alone lays out a structure-constant tensor from
# its nonzero products, which algebra.product_table completes for the Lie
# kind; every algebra, file and suite hands it a table of products
TENSOR_BUILDERS = {"algebra.product_tensor"}


def _is_repeated_list(node: ast.AST) -> bool:
    """An expression [x] * n or n * [x]."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) \
        and any(isinstance(side, ast.List) for side in (node.left, node.right))


def _list_items(node: ast.AST) -> list:
    """The item expressions of a list display, list comprehension or
    repeated list."""
    if isinstance(node, ast.ListComp):
        return [node.elt]
    if isinstance(node, ast.List):
        return node.elts
    if _is_repeated_list(node):
        return [item for side in (node.left, node.right)
                if isinstance(side, ast.List) for item in side.elts]
    return []


def tensor_builders(tree: ast.AST) -> list[str]:
    """Qualified names of the functions that build a triple-nested list
    whose innermost item is [x] * n."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            name = ".".join(scope) or "<module>"
            if name not in found and any(
                    _is_repeated_list(inner) for middle in _list_items(child)
                    for inner in _list_items(middle)):
                found.append(name)
            visit(child, scope)

    visit(tree, [])
    return found


def test_rule_sees_tensor_builders():
    tree = ast.parse(
        "def f(n):\n"
        "    return [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]\n"
        "class C:\n"
        "    def g(self, n):\n"
        "        return [[[0] * n] * n] * n\n"
        "def h(n):\n"
        "    rows = [[0] * n for _ in range(n)]\n"
        "    return [[[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]\n"
        "            for _ in range(n)]\n"
        "def k(n):\n"
        "    return [[[Fraction(0)]], [[0, 0] * n]]\n"
        "table = [[n * [0] for _ in range(2)] for _ in range(2)]\n")
    assert tensor_builders(tree) == ["f", "C.g", "k", "<module>"]


def test_only_product_tensor_lays_out_structure_constants():
    offenders = {}
    for path in sorted(SOURCE.glob("*.py")):
        names = [f"{path.stem}.{name}" for name in
                 tensor_builders(ast.parse(path.read_text(), str(path)))]
        bad = [n for n in names if n not in TENSOR_BUILDERS]
        if bad:
            offenders[path.name] = bad
    assert offenders == {}


# only HomAlgebra reads its dense tensor ``mul``, to check it and to walk it
# into the nonzero products (``HomAlgebra.sparse``); every other function
# reads the products off ``sparse`` or from a table
def dense_mul_reads(tree: ast.AST) -> list[str]:
    """Qualified names of the functions that read an attribute ``mul`` of
    an object other than ``self`` or a ``....sparse`` chain."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            name = ".".join(scope) or "<module>"
            if isinstance(child, ast.Attribute) and child.attr == "mul" \
                    and getattr(child.value, "id", None) != "self" \
                    and getattr(child.value, "attr", None) != "sparse" \
                    and name not in found:
                found.append(name)
            visit(child, scope)

    visit(tree, [])
    return found


def test_rule_sees_dense_mul_reads():
    tree = ast.parse(
        "class HomAlgebra:\n"
        "    def sparse(self):\n"
        "        return walk(self.mul)\n"
        "def twist(A, gamma):\n"
        "    return [gamma.matvec(v) for row in A.mul for v in row]\n"
        "def table(A):\n"
        "    return A.sparse.mul, A.integral[1], phi.source.sparse.mul\n"
        "class C:\n"
        "    def f(self, phi):\n"
        "        return phi.source.mul[0][0]\n"
        "x = fixtures.g2().mul\n")
    assert dense_mul_reads(tree) == ["twist", "C.f", "<module>"]


def test_only_hom_algebra_reads_its_dense_tensor():
    offenders = {}
    for path in sorted(SOURCE.glob("*.py")):
        names = dense_mul_reads(ast.parse(path.read_text(), str(path)))
        if names:
            offenders[path.name] = names
    assert offenders == {}


def scoped_calls(tree: ast.AST, matches) -> list[str]:
    """Qualified names of the functions (``<module>`` outside any) that
    make a call whose callee expression ``matches``, each once."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            name = ".".join(scope) or "<module>"
            if isinstance(child, ast.Call) and matches(child.func) \
                    and name not in found:
                found.append(name)
            visit(child, scope)

    visit(tree, [])
    return found


def locate_calls(tree: ast.AST) -> list[str]:
    """The functions that call a method ``locate``."""
    return scoped_calls(tree, lambda f: isinstance(f, ast.Attribute)
                        and f.attr == "locate")


def unchecked_modules(tree: ast.AST) -> list[str]:
    """The functions that build a Module through ``Module._unchecked``."""
    return scoped_calls(tree, lambda f: isinstance(f, ast.Attribute)
                        and f.attr == "_unchecked" and "Module" in (
                            getattr(f.value, "id", None),
                            getattr(f.value, "attr", None)))


def test_rule_sees_locate_and_unchecked_module_calls():
    tree = ast.parse(
        "def _compile(src, t):\n"
        "    return [src.locate(t), coords(1).locate((0,))]\n"
        "class Coords:\n"
        "    def insert(self, j):\n"
        "        return self.locate(j), locate(j)\n"
        "def self_module(A):\n"
        "    return Module._unchecked(A), Map._unchecked(A)\n"
        "m = rep.Module._unchecked(B)\n")
    assert locate_calls(tree) == ["_compile", "Coords.insert"]
    assert unchecked_modules(tree) == ["self_module", "<module>"]


# the coboundary compiler reads every landing of a tuple from the tables of
# its coordinates (``Coords.faces`` and ``Coords.insertions``), which alone
# locate tuples for it
def test_the_compiler_locates_no_tuple():
    path = SOURCE / "operator.py"
    assert "_compile" not in locate_calls(ast.parse(path.read_text(),
                                                    str(path)))


# a self module's actions are its algebra's own products, so it alone skips
# the checks of Module; adjoint and file-built modules keep every check
def test_only_self_module_builds_a_module_unchecked():
    found = [f"{path.stem}.{name}" for path in sorted(SOURCE.glob("*.py"))
             for name in unchecked_modules(ast.parse(path.read_text(),
                                                     str(path)))]
    assert found == ["rep.self_module"]
