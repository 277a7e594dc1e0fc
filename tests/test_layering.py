"""Module layering: `core` sits at the bottom of the package, and the
engine (`transform`, `reduction`, `resolution`) below the input/output
modules.

`transform`, `reduction` and the rest import `core`; an import the other
way, even one deferred into a function body, would make a cycle.  The
engine computes and leaves reading, writing and digesting to `serialize`
and `cli`, which import it.  Outside `core` no module reads another
object's private attributes, so the storage of charts has one home.
`cli` takes from `arithmetic` only the primality test and the
`check-lambda` battery, and inside `arithmetic` only the p-derivation
`delta` applies the Adams operation `psi` and only `_prime` refuses a
non-prime.  `errors.is_int` is the one integer test of the package, and
`reduction` never calls `id`, so the monomial stage keys nothing by chart
identity, nor builds a chart: `transform` makes every child.  `transform`
has two public functions, `blow_up_global` and `blow_up_each`; its child
rule `_Line.advance` is, beside `Monomial.exchanged`, the only caller of the
exponent rule `core.exchange`, and `_Line.chart` the one place it builds a
chart.
No module concatenates or slices a chart path: a path is a linked node,
and a child's step is read from its own node.  `core.Growth.apply` alone
spells an exceptional component's name (`exc<stage>`) and extends a
registry, and `Growth` visits only the charts a run of blow-ups replaces
and keeps: it reads no chart list, sorts nothing and reads no field of a
chart.  In `cli` only `main` prints.  `cli` imports only `core`, `errors` and `transform` when it
loads, and each command the other modules it runs, so `check-lambda` loads
no trace or engine module and `replay` no reduction.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import monored

PACKAGE = Path(monored.__file__).resolve().parent
CORE = PACKAGE / "core.py"


def monored_imports(tree: ast.AST) -> set[str]:
    """The `monored` modules a module imports anywhere, relative imports
    resolved against the package."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if not node.level and node.module == "monored":
                names = [f"monored.{alias.name}" for alias in node.names]
            elif not node.level:
                names = [node.module]
            elif node.module:
                names = [f"monored.{node.module}"]
            else:
                names = [f"monored.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(n for n in names if n == "monored" or n.startswith("monored."))
    return found


def test_core_imports_only_errors():
    tree = ast.parse(CORE.read_text(encoding="utf-8"))
    assert monored_imports(tree) == {"monored.errors"}


def test_deferred_imports_are_seen():
    tree = ast.parse(
        "def f():\n    from .transform import blow_up_global\n"
        "def g():\n    import monored.reduction\n"
        "def h():\n    from . import serialize\n"
        "def k():\n    from monored import cli\n"
    )
    assert monored_imports(tree) == {
        "monored.transform",
        "monored.reduction",
        "monored.serialize",
        "monored.cli",
    }


def test_package_imports_no_module_at_load():
    """The package's `__init__` reads its re-exports on first use, so it
    imports no `monored` module at module level."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    top = ast.Module(body=[n for n in tree.body if not isinstance(n, functions)], type_ignores=[])
    assert monored_imports(top) == set()


def test_import_monored_loads_no_submodule():
    src = str(PACKAGE.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, monored\n"
        "print(sorted(m for m in sys.modules if m.startswith('monored.')))\n"
        "print([monored.core.__name__, monored.errors.__name__, monored.reduction.__name__,\n"
        "       monored.resolution.__name__, monored.transform.__name__])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]",
        "['monored.core', 'monored.errors', 'monored.reduction', 'monored.resolution', 'monored.transform']",
    ]


# the `monored` modules a child has loaded, on the last line of its stderr
LOADED = "print(*sorted(m for m in sys.modules if m.startswith('monored.')), file=sys.stderr)\n"
# a child that runs `monored.cli.main` on its own arguments
CLI_CHILD = "import sys\nfrom monored.cli import main\nrc = main(sys.argv[1:])\n" + LOADED + "sys.exit(rc)\n"
COMMAND_MODULES = {"monored.reduction", "monored.resolution", "monored.serialize"}


def loaded_by(code: str, *argv: str) -> set[str]:
    """The `monored` modules a child running `code` on `argv` loaded; the
    child must exit 0."""
    src = str(PACKAGE.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


def test_import_cli_loads_no_command_module():
    loaded = loaded_by("import sys, monored.cli\n" + LOADED)
    assert loaded == {"monored.cli", "monored.core", "monored.errors", "monored.transform"}


def test_check_lambda_loads_no_command_module():
    loaded = loaded_by(CLI_CHILD, "check-lambda", "--primes", "2")
    assert "monored.arithmetic" in loaded
    assert not loaded & COMMAND_MODULES


def test_replay_loads_neither_reduction_nor_resolution(tmp_path, capsys):
    from monored.cli import main

    config, trace = tmp_path / "in.json", tmp_path / "trace.json"
    config.write_text(
        '{"components": ["x", "y"], "dim_p": 2, "mark": 1, "charts": '
        '[{"name": "U", "e_components": ["x", "y"], "generators": [{"x": 3}, {"y": 2}]}]}',
        encoding="utf-8",
    )
    assert main(["principalize", str(config), "--out", str(trace)]) == 0
    loaded = loaded_by(CLI_CHILD, "replay", "--trace", str(trace))
    assert "monored.serialize" in loaded
    assert not loaded & {"monored.reduction", "monored.resolution"}


def test_public_names_are_read_from_their_modules(monkeypatch):
    assert len(monored.__all__) == len(set(monored.__all__)) == 36
    for name in monored.__all__:
        value = getattr(monored, name)
        assert value is getattr(sys.modules[value.__module__], name)
    star = {}
    exec("from monored import *", star)
    assert set(star) - {"__builtins__"} == set(monored.__all__)
    assert set(monored.__all__) <= set(dir(monored))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        monored.no_such_name
    # nothing is kept on the package: a name is what its module binds now
    monkeypatch.setattr(sys.modules["monored.reduction"], "reduce", len)
    assert monored.reduce is len


@pytest.mark.parametrize("module", ["transform", "reduction", "resolution"])
def test_engine_imports_neither_serialize_nor_cli(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert not monored_imports(tree) & {"monored.serialize", "monored.cli"}


def foreign_private_reads(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, attribute) of each `_`-prefixed attribute a module reads
    from anything but `self` or a class it defines itself."""
    own = {"self"} | {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
    return [
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not (isinstance(node.value, ast.Name) and node.value.id in own)
    ]


def test_foreign_private_reads_are_seen():
    tree = ast.parse(
        "class A:\n    def f(self, cfg):\n"
        "        return self._x, A._y, cfg._index, cfg.step[0]._p, B._z\n"
    )
    assert foreign_private_reads(tree) == [(3, "_index"), (3, "_p"), (3, "_z")]


@pytest.mark.parametrize(
    "module", sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "core")
)
def test_private_attributes_stay_home(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert foreign_private_reads(tree) == []


def arithmetic_reads(tree: ast.AST) -> set[str]:
    """The names a module takes from `monored.arithmetic`: attributes of
    the name `arithmetic`, and names imported from the module."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "arithmetic":
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module in ("arithmetic", "monored.arithmetic"):
            reads.update(alias.name for alias in node.names)
    return reads


def identifiers(tree: ast.AST) -> set[str]:
    """Every name a module binds or reads, attributes and imports included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(filter(None, [node.name, node.asname]))
    return found


def test_arithmetic_reads_are_seen():
    tree = ast.parse(
        "def f():\n    from . import arithmetic\n    from .arithmetic import IntPoly\n"
        "    return arithmetic.random_poly, IntPoly.var, rng.random\n"
    )
    assert arithmetic_reads(tree) == {"IntPoly", "random_poly"}
    assert {"IntPoly", "var", "random_poly"} <= identifiers(tree)


def test_cli_leaves_the_battery_to_arithmetic():
    """`check-lambda` parses, checks primality, prints and exits: it builds
    no polynomial and draws no sample itself."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert "IntPoly" not in identifiers(tree)
    assert arithmetic_reads(tree) == {"is_prime", "lambda_checks"}


def owners(tree: ast.AST, matches) -> set[str]:
    """The functions of a module whose own bodies hold a node that
    `matches`, with "<module>" for one outside every function."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if matches(child):
                found.add(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return found


def referrers(tree: ast.AST, name: str) -> set[str]:
    """The functions of a module whose own bodies read `name`."""
    return owners(tree, lambda n: isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load))


def method_callers(tree: ast.AST, method: str) -> set[str]:
    """The functions of a module whose own bodies call `<anything>.method(...)`."""
    return owners(
        tree, lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == method
    )


def test_referrers_are_seen():
    tree = ast.parse(
        "def psi(p, f):\n    return f\n"
        "def a(f):\n    return psi(2, f)\n"
        "def b(fs):\n    def inner(f):\n        return f\n    return map(psi, fs)\n"
        "class C:\n    def m(self):\n        return [psi(3, g) for g in self.gs]\n"
        "table = {2: psi}\n"
    )
    assert referrers(tree, "psi") == {"a", "b", "m", "<module>"}


def test_only_delta_calls_psi():
    """Every Frobenius-lift check goes through the p-derivation: inside
    `arithmetic`, only `delta` uses the Adams operation."""
    tree = ast.parse((PACKAGE / "arithmetic.py").read_text(encoding="utf-8"))
    assert referrers(tree, "psi") == {"delta"}


def test_print_readers_are_seen():
    tree = ast.parse(
        "def main():\n    print('a', file=err)\n"
        "def cmd_x(args, cfg):\n    def inner():\n        return print\n    return [], None, None\n"
        "class C:\n    def m(self):\n        print(self)\n"
        "def _emit(path, obj):\n    sys.stdout.write(path)\n"
        "say = print\n"
    )
    assert referrers(tree, "print") == {"main", "inner", "m", "<module>"}
    planted = (PACKAGE / "cli.py").read_text(encoding="utf-8") + "\n\ndef cmd_planted(args, cfg):\n    print(args)\n"
    assert referrers(ast.parse(planted), "print") == {"main", "cmd_planted"}


def test_cli_prints_from_main_alone():
    """Commands return their report, trace and violation, and `main` loads
    the input, writes the trace and prints: a command that fails has
    printed nothing."""
    assert referrers(ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8")), "print") == {"main"}


def exchanged_callers(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(module, function) of each call of `.exchanged(`, the substitution
    rule on exponents, in the given module sources."""
    return {
        (module, owner)
        for module, text in sources.items()
        for owner in method_callers(ast.parse(text), "exchanged")
    }


def package_sources() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}


def test_method_callers_are_seen():
    tree = ast.parse(
        "def f(g):\n    return g.exchanged(0, 1, 2)\n"
        "def r(g):\n    return g.exchanged\n"
        "class C:\n    def m(self, gs):\n        return [h.exchanged(1, 2, 0) for h in gs]\n"
        "z = w.exchanged(0, 1, 0)\n"
    )
    assert method_callers(tree, "exchanged") == {"f", "m", "<module>"}
    sources = package_sources()
    sources["reduction"] += "\n\ndef planted(g, k, e):\n    return g.exchanged(k, e, 0)\n"
    assert ("reduction", "planted") in exchanged_callers(sources)


def test_one_exponent_transform():
    """The blow-ups apply the substitution rule in one place, `core.exchange`
    on pair maps, through the child rule both `blow_up_global` and
    `blow_up_each` build with (`transform._Line.advance`); `Monomial.exchanged`
    is the rule on a monomial, and no module of the package calls it.  The
    strict transform of `weak_resolve` only drops a chart's defining
    component, and no second exponent transform sits beside it."""
    sources = package_sources()
    assert exchanged_callers(sources) == set()
    rule_callers = {(m, f) for m, text in sources.items() for f in referrers(ast.parse(text), "exchange")}
    assert rule_callers == {("core", "exchanged"), ("transform", "advance")}


def test_transform_exposes_its_two_blow_ups():
    """One blow-up along any centre, and a run along P and one component
    each, for the first monomial stage."""
    tree = ast.parse((PACKAGE / "transform.py").read_text(encoding="utf-8"))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    public = {n.name for n in tree.body if isinstance(n, functions) and not n.name.startswith("_")}
    assert public == {"blow_up_global", "blow_up_each"}


def path_copies(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, operation) of each `+` and slice of a path: a `.path`
    attribute or a name `path`."""

    def is_path(node) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "path") or (
            isinstance(node, ast.Name) and node.id == "path"
        )

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) and (is_path(node.left) or is_path(node.right)):
            found.append((node.lineno, "+"))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add) and is_path(node.target):
            found.append((node.lineno, "+="))
        elif isinstance(node, ast.Subscript) and is_path(node.value) and isinstance(node.slice, ast.Slice):
            found.append((node.lineno, "slice"))
    return found


def test_path_copies_are_seen():
    tree = ast.parse(
        "def f(ch, stage, k, path):\n"
        "    a = ch.path + ((stage, k),)\n"
        "    b = ((0, 1),) + path\n"
        "    c = ch.path[-1:]\n"
        "    path += ((stage, k),)\n"
        "    return ch.path[-1], ch.path.last, a + b, c[1:]\n"
    )
    assert sorted(path_copies(tree)) == [(2, "+"), (3, "+"), (4, "slice"), (5, "+=")]


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_no_path_is_copied(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert path_copies(tree) == []


def exc_name_spellers(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(module, function) of each string constant spelling an exceptional
    component name or its stem: `exc`, `exc1`, `exc2''` and the like."""

    def spells(node) -> bool:
        return isinstance(node, ast.Constant) and bool(re.fullmatch(r"exc\d*'*", str(node.value)))

    return {(module, owner) for module, text in sources.items() for owner in owners(ast.parse(text), spells)}


def registry_extenders(sources: dict[str, str]) -> set[tuple[str, str]]:
    return {(module, owner) for module, text in sources.items() for owner in method_callers(ast.parse(text), "extended")}


def test_naming_rules_are_seen():
    sources = package_sources()
    sources["transform"] += '\n\ndef planted(cfg, stage):\n    return cfg.registry.extended(f"exc{stage}")\n'
    sources["serialize"] += "\n\ndef planted():\n    return \"exc2'\", \"exceptional\"\n"
    assert {("transform", "planted"), ("serialize", "planted")} <= exc_name_spellers(sources)
    assert ("transform", "planted") in registry_extenders(sources)


def test_grow_alone_names_exceptional_components():
    """The naming rule has one home: no function but `core.Growth.apply`
    spells an exceptional name, and none but it extends a registry."""
    sources = package_sources()
    assert exc_name_spellers(sources) == {("core", "apply")}
    assert registry_extenders(sources) == {("core", "apply")}


def bool_tests(tree: ast.AST) -> list[int]:
    """The lines of each `isinstance(..., bool)` or `isinstance(..., (..., bool))`."""

    def names_bool(node) -> bool:
        return any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node))

    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and names_bool(node.args[1])
    ]


def prime_refusers(tree: ast.AST) -> set[str]:
    """The functions of a module whose own bodies raise a message saying
    "is not prime"."""

    def refuses(node) -> bool:
        return isinstance(node, ast.Raise) and any(
            isinstance(n, ast.Constant) and isinstance(n.value, str) and "is not prime" in n.value
            for n in ast.walk(node)
        )

    return owners(tree, refuses)


def test_rule_homes_are_seen():
    tree = ast.parse(
        "def f(v):\n    return isinstance(v, int) and not isinstance(v, bool)\n"
        "def g(v):\n    return isinstance(v, (str, bool)), isinstance(v, int)\n"
        "def h(p):\n    if p < 2:\n        raise ValueError(f'{p} is not prime')\n"
        "def k(p):\n    raise ValueError(f'{p} is neither 0 nor prime')\n"
    )
    assert sorted(bool_tests(tree)) == [2, 4]
    assert prime_refusers(tree) == {"h"}


def id_callers(tree: ast.AST) -> set[str]:
    """The functions of a module whose own bodies call the builtin `id`."""
    return owners(tree, lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "id")


def test_id_callers_are_seen():
    tree = ast.parse(
        "def f(ch):\n    return id(ch)\n"
        "class T:\n    def m(self, chs):\n        return {id(c): c for c in chs}\n"
        "def g(ch):\n    return ch.id, ch.id(), ident(ch)\n"
    )
    assert id_callers(tree) == {"f", "m"}


def test_reduction_keys_nothing_by_chart_identity():
    """The monomial stage's table holds sums, not charts: `reduction` never
    calls `id`, so no map keyed by chart identity comes back into it."""
    assert id_callers(ast.parse((PACKAGE / "reduction.py").read_text(encoding="utf-8"))) == set()


def chart_builders(tree: ast.AST) -> set[str]:
    """The functions of a module whose own bodies call `Chart` or
    `replace`, the dataclass copy a chart is rebuilt by."""

    def builds(node) -> bool:
        if not isinstance(node, ast.Call):
            return False
        f = node.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        return name in ("Chart", "replace")

    return owners(tree, builds)


def test_chart_builders_are_seen():
    tree = ast.parse(
        "def f(ch):\n    return Chart(ch.label, (), frozenset(), frozenset(), ch.ideal)\n"
        "def g(ch):\n    return dataclasses.replace(ch, p_empty=True)\n"
        "def h(ch):\n    return ch.ideal.replace, str.replace('a', 'b', 'c')\n"
    )
    assert chart_builders(tree) == {"f", "g", "h"}
    assert chart_builders(ast.parse("def k(ch):\n    return ch.label\n")) == set()


def test_reduction_builds_no_chart():
    """The monomial stage picks centres; every chart it ends with is built
    by `transform`, and a companion's chart by `core.on_locus`."""
    assert chart_builders(ast.parse((PACKAGE / "reduction.py").read_text(encoding="utf-8"))) == set()


def test_transform_builds_charts_in_one_place():
    """Both blow-ups build every chart through `_Line.chart`."""
    assert chart_builders(ast.parse((PACKAGE / "transform.py").read_text(encoding="utf-8"))) == {"chart"}


def test_one_home_per_input_rule():
    """`errors.is_int` is the package's one integer test, and inside
    `arithmetic` only `_prime` refuses a non-prime: every kernel entry
    taking a prime goes through it."""
    sources = package_sources()
    assert {module for module, text in sources.items() if bool_tests(ast.parse(text))} == {"errors"}
    assert prime_refusers(ast.parse(sources["arithmetic"])) == {"_prime"}


def top_level(tree: ast.AST, name: str) -> ast.AST:
    """The module-level function or class `name`."""
    (body,) = [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name]
    return body


def whole_visits(tree: ast.AST, function: str) -> list[tuple[int, str]]:
    """(line, what) of each read in the module-level `function` (or class)
    that visits every chart: a `.charts` attribute, or a call of
    `.ordered`, `._ordered`, `.sort` or `sorted`."""
    body = top_level(tree, function)
    found = []
    for node in ast.walk(body):
        if isinstance(node, ast.Attribute) and node.attr == "charts" and isinstance(node.ctx, ast.Load):
            found.append((node.lineno, "charts"))
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute) and f.attr in ("ordered", "_ordered", "sort"):
                found.append((node.lineno, f.attr))
            elif isinstance(f, ast.Name) and f.id == "sorted":
                found.append((node.lineno, "sorted"))
    return found


def test_whole_visits_are_seen():
    tree = ast.parse(
        "def grow(cfg, index, kids):\n"
        "    new._charts, n = None, cfg._charts is None\n"
        "    a = index.charts.values()\n"
        "    b = index.ordered(a), cfg._ordered()\n"
        "    kids.sort()\n"
        "    return sorted(kids), index.place[0], cfg.charts_containing(a)\n"
        "def other(cfg):\n    return sorted(cfg.charts)\n"
    )
    assert sorted(whole_visits(tree, "grow")) == [
        (3, "charts"), (4, "_ordered"), (4, "ordered"), (5, "sort"), (6, "sorted"),
    ]


def test_grow_visits_only_the_charts_it_touches():
    """A blow-up places each child from its parent's place alone: `Growth`
    neither reads the chart list nor sorts, so a run never visits the
    charts it does not replace."""
    assert whole_visits(ast.parse(CORE.read_text(encoding="utf-8")), "Growth") == []


def chart_field_reads(tree: ast.AST, function: str) -> list[tuple[int, str]]:
    """(line, attribute) of each attribute the module-level `function` (or
    class) reads from `ch` or `kid`, the charts `Growth` loops over."""
    body = top_level(tree, function)
    return [
        (node.lineno, node.attr)
        for node in ast.walk(body)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in ("ch", "kid")
    ]


def test_chart_field_reads_are_seen():
    tree = ast.parse(
        "def grow(cfg, outcomes):\n"
        "    for ch, kids in outcomes:\n"
        "        index.remove(ch), id(ch), cfg.p_empty\n"
        "        n = ch.p_empty\n"
        "        for kid in kids:\n"
        "            index.add(kid, kid.path.last)\n"
        "def other(ch):\n    return ch.ideal\n"
    )
    assert sorted(chart_field_reads(tree, "grow")) == [(4, "p_empty"), (6, "path")]


def test_grow_reads_no_chart_field():
    """A blow-up step is index bookkeeping only: `Growth` hands each chart
    a run replaces and keeps to the index and reads no field of either
    itself."""
    assert chart_field_reads(ast.parse(CORE.read_text(encoding="utf-8")), "Growth") == []
