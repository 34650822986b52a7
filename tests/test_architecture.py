"""Module boundaries and imports, checked from the source.

The certificate checker in check.py re-validates what the engine produces,
so it must not import the engine, the CLI, the simulator or the plant
module; it imports primitives only.  What it imports, transitively, is its
trusted base: no solver may enter it, and its line count is pinned.  No
module imports a name it never reads, and no module-level function or class
goes unnamed in src/ or scripts/ outside its own definition, save the few on
a list that may only shrink; the same holds for the methods and properties
of src/ classes and the fields of its dataclasses and NamedTuples, read as
attributes.  The simulator imports no engine module, each plant-side
decision is defined in the one module that owns it, only confgraph.py
builds a strong power or searches one for a code, and only graph.py turns
a support certificate into support sets and graphs.  The line count of
src/ may only fall.  The only caches that outlive a call are two keyed by
code, never by input data.
"""

import ast
import importlib
import re
import types
from pathlib import Path

import pytest

import certcap
from certcap import plant, roots

PACKAGE = Path(certcap.__file__).resolve().parent
ROOT = PACKAGE.parent.parent
CHECK = PACKAGE / "check.py"
FORBIDDEN = {"classify", "cli", "simulate", "plant"}
# the solvers may not enter the checker's closure either
CLOSURE_FORBIDDEN = FORBIDDEN | {"linprog", "capacity", "confgraph"}
CLOSURE_LINE_CEILING = 995  # the closure held 2101 lines with the solvers in it
SRC_LINE_CEILING = 3857  # src/ may only shrink; a PR that must raise it names what it replaced
# the engine, the solvers and the checker stay out of the simulator's closure
SIMULATOR_FORBIDDEN = {"classify", "capacity", "check", "confgraph", "linprog", "graph"}
SIMULATOR_MODULE_CEILING = 6  # simulate, plant, roots, linalg, channel, enclosure
# definitions that only tests or the benchmark name, each with its reason;
# the list may only shrink, so its length is a ceiling
TEST_ONLY_DEFINITIONS = {
    "channel.resolving_stream":
        "a library constructor of stream channels; tests and the benchmark build streams",
    "roots.symmetric_eigenvalue_enclosures":
        "a layer the benchmark traces by name, until its layer rename deletes it",
    "simulate.sample_output":
        "a layer the benchmark traces by name, until its layer rename deletes it",
}
TEST_ONLY_CEILING = 3
# methods and properties that no src/ or scripts/ code reads as an attribute,
# each with its reason; the list may only shrink, so its length is a ceiling
UNREAD_MEMBERS = {
    "enclosure.Enclosure.from_json":
        "the reader of to_json's documents, for the offline verify command to call",
    "simulate.Trajectory.to_csv": "a layer the traced benchmark wraps",
    "cli._Parser._print_message": "argparse calls it",
}
UNREAD_MEMBERS_CEILING = 3
# fields of src/ dataclasses and NamedTuples that no src/ or scripts/ code reads
# as an attribute, each with its reason; the list may only shrink
UNREAD_FIELDS = {
    "confgraph.IndependenceResult.nodes":
        "tests compare the memoised searches' node counts with the reference search",
}
UNREAD_FIELDS_CEILING = 1
# the caches that live as long as the process: each is keyed by code (the one
# parser, the dataclasses' type hints), not by a document or a channel, so
# every memo keyed by input data stays local to the call that fills it
PROCESS_CACHES = {"cli._build_parser", "check._field_types"}


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            yield base
            if not node.module:  # from . import classify
                yield from (base + alias.name for alias in node.names)


def test_checker_imports_no_engine_module():
    tree = ast.parse(CHECK.read_text(encoding="utf-8"))
    imported = {name.lstrip(".").removeprefix("certcap.") for name in _imported_modules(tree)}
    assert imported, "no imports found"
    assert not imported & FORBIDDEN, sorted(imported & FORBIDDEN)


def _relative_imports(path: Path):
    """The package modules that a module imports by relative import."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.partition(".")[0]
            else:  # from . import channel
                yield from (alias.name for alias in node.names)


def _closure(module: str) -> set[str]:
    """``module`` and every package module it imports, transitively."""
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_relative_imports(PACKAGE / f"{name}.py"))
    return seen


def test_checker_closure_holds_no_solver():
    closure = _closure("check")
    assert {"check", "channel", "enclosure", "graph"} <= closure
    assert not closure & CLOSURE_FORBIDDEN, sorted(closure & CLOSURE_FORBIDDEN)
    lines = sum(len((PACKAGE / f"{name}.py").read_text(encoding="utf-8").splitlines())
                for name in closure)
    assert lines <= CLOSURE_LINE_CEILING, (sorted(closure), lines)


def test_unstable_moduli_bisection_lives_in_plant_only():
    # the producer's bisection stays out of roots.py, which the checker may import
    names = re.compile(r"\b(UnstableModuli|_exact_bracket)\b")
    naming = {path.name for path in PACKAGE.glob("*.py")
              if names.search(path.read_text(encoding="utf-8"))}
    assert naming == {"plant.py"}, sorted(naming)


def test_simulator_imports_no_engine_module():
    closure = _closure("simulate")
    assert not closure & SIMULATOR_FORBIDDEN, sorted(closure & SIMULATOR_FORBIDDEN)
    assert len(closure) <= SIMULATOR_MODULE_CEILING, sorted(closure)


def test_only_the_ladder_searches_for_a_zero_error_code():
    # extend_ladder is the one search: its seed, rung bound and node budget
    # hold only if no other module builds a power or searches it itself
    search = {"strong_power", "max_independent_set"}
    modules = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert PACKAGE / "cli.py" in modules and ROOT / "scripts" / "tracking_thresholds.py" in modules
    reaching = {}
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        if names & search and path.name != "confgraph.py":
            reaching[path.name] = sorted(names & search)
    assert not reaching, reaching


def _names(tree) -> set[str]:
    """Every name that ``tree`` reads, binds, imports or defines, attributes included."""
    return {name for node in ast.walk(tree)
            for name in (getattr(node, "id", None), getattr(node, "attr", None),
                         getattr(node, "name", None)) if isinstance(name, str)}


def test_only_graph_derives_the_support():
    # graph.Support turns a certificate into support sets, settledness and the
    # may-reach graph for every solver and the checker; it reads certify_support
    # off channel when called, so a wrapper there sees every certification
    certifying, naming, building = set(), set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = _names(tree)
        if "certify_support" in names:
            certifying.add(path.name)
        if "confusability_graph" in names:
            naming.add(path.name)
        if any(isinstance(node, ast.Call) and "confusability_graph" in _names(node.func)
               for node in ast.walk(tree)):
            building.add(path.name)
    assert certifying == {"channel.py", "graph.py"}, sorted(certifying)
    assert building == {"graph.py"}, sorted(building)
    # confgraph.py only re-binds the builder under the name the benchmark calls
    assert naming == {"confgraph.py", "graph.py"}, sorted(naming)


def test_src_line_count_stays_under_its_ceiling():
    lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in PACKAGE.glob("*.py"))
    assert lines <= SRC_LINE_CEILING, lines


# math's transcendental routines: correctly rounded on no platform by promise
FLOAT_MATH = {"log", "log2", "exp", "pow", "sqrt"}


def _float_arithmetic(tree) -> list[str]:
    """Each float literal, float(...) call and math.log, log2, exp, pow or
    sqrt (as an attribute of math or imported from it) in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) is float:
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"line {node.lineno}: float(...)")
        elif (isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            found.append(f"line {node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"line {node.lineno}: from math import {alias.name}"
                      for alias in node.names if alias.name in FLOAT_MATH]
    return found


def test_src_has_no_float_arithmetic():
    # every reported quantity is exact or a certified enclosure, and the one
    # heuristic (the capacity proposer) runs in decimal, so the output bytes
    # cannot depend on a platform's float routines
    found = {path.name: _float_arithmetic(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert not {name: hits for name, hits in found.items() if hits}


@pytest.mark.parametrize("source", [
    "x = 0.5", "y = float(n)", "import math\nz = math.log2(3)", "import math\nz = math.sqrt(2)",
    "from math import exp", "w = 2.0 ** k",
], ids=["literal", "float-call", "math-log2", "math-sqrt", "import-exp", "float-power"])
def test_float_arithmetic_is_found(source):
    assert _float_arithmetic(ast.parse(source))


def test_exact_arithmetic_is_no_float():
    # integer math, decimal's own ln and exp, and the builtin modular pow
    source = ("import math\nfrom math import gcd, lcm\nn = math.isqrt(9) + 2 ** 3 + pow(3, 4, 5)\n"
              "from decimal import Decimal\nd = Decimal(2).ln().exp()")
    assert _float_arithmetic(ast.parse(source)) == []


def _defining_modules(name: str) -> set[str]:
    """The package modules that bind ``name`` at module level by a def,
    a class or an assignment."""
    defining = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = {node.name}
            elif isinstance(node, ast.Assign):
                bound = {t.id for t in node.targets if isinstance(t, ast.Name)}
            else:
                continue
            if name in bound:
                defining.add(path.stem)
    return defining


def test_plant_side_decisions_live_in_their_modules():
    # detectability beside schur_stable, the regimes beside the plant
    owners = {"is_detectable": "roots", "is_stabilizable": "roots", "Regime": "plant",
              "REGIME_KINDS": "plant", "RegimePreconditionError": "plant"}
    assert {name: _defining_modules(name) for name in owners} == {
        name: {module} for name, module in owners.items()}


def test_plant_binds_the_detectability_of_roots():
    # a wrapper that rebinds plant.is_detectable by identity reaches roots' too
    assert plant.is_detectable is roots.is_detectable
    assert plant.is_stabilizable is roots.is_stabilizable


def test_package_attributes_are_the_modules():
    # the package root exports only __version__, so no function of the same
    # name hides a submodule
    for name in ("classify", "check"):
        importlib.import_module(f"certcap.{name}")
        assert isinstance(getattr(certcap, name), types.ModuleType), name
    assert certcap.__version__


def _unread_imports(tree) -> list[str]:
    """Names bound by an import (``from __future__`` aside) that no
    expression in the module reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"line {line}: {name}" for name, line in bound.items() if name not in read)


def test_every_imported_name_is_read():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    unread = {path.name: _unread_imports(ast.parse(path.read_text(encoding="utf-8")))
              for path in modules}
    assert not {name: names for name, names in unread.items() if names}


def _unnamed_definitions(corpus: dict) -> list[str]:
    """Module-level functions and classes of the package, as module.name,
    whose name, as a word, appears nowhere in ``corpus`` (path -> source
    text) outside the lines of their own definition."""
    unnamed = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = corpus[path].splitlines(keepends=True)
        others = [text for other, text in corpus.items() if other != path]
        for node in ast.parse(corpus[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
            outside = "".join(lines[:start] + lines[node.end_lineno:])
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(text) for text in [outside, *others]):
                unnamed.append(f"{path.stem}.{node.name}")
    return unnamed


def test_every_definition_is_named_elsewhere():
    # a name in tests/ or perfbench/ is no use: test-only code must be listed
    corpus = {path: path.read_text(encoding="utf-8")
              for folder in ("src", "scripts")
              for path in sorted((ROOT / folder).rglob("*.py"))}
    assert PACKAGE / "plant.py" in corpus
    # equal, so an entry whose definition came into use or went must go too
    assert sorted(_unnamed_definitions(corpus)) == sorted(TEST_ONLY_DEFINITIONS)
    assert len(TEST_ONLY_DEFINITIONS) <= TEST_ONLY_CEILING
    assert all(reason.strip() for reason in TEST_ONLY_DEFINITIONS.values())


def _unread_members(corpus: dict) -> list[str]:
    """Methods and properties of the package's classes, as module.Class.name,
    dunders aside, whose name no ``ast.Attribute`` in ``corpus`` (path ->
    source text) reads outside the lines of their own definition."""
    reads = {}  # attribute name -> (path, line) of each read
    for path, text in corpus.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append((path, node.lineno))
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(corpus[path]).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        or re.fullmatch(r"__\w+__", node.name)):
                    continue
                start = min([node.lineno] + [d.lineno for d in node.decorator_list])
                if all(where == path and start <= line <= node.end_lineno
                       for where, line in reads.get(node.name, ())):
                    unread.append(f"{path.stem}.{cls.name}.{node.name}")
    return unread


def test_every_member_is_read_elsewhere():
    # a method only tests call is test-only code, and must be listed
    corpus = {path: path.read_text(encoding="utf-8")
              for folder in ("src", "scripts")
              for path in sorted((ROOT / folder).rglob("*.py"))}
    # equal, so an entry whose member came into use or went must go too
    assert sorted(_unread_members(corpus)) == sorted(UNREAD_MEMBERS)
    assert len(UNREAD_MEMBERS) <= UNREAD_MEMBERS_CEILING
    assert all(reason.strip() for reason in UNREAD_MEMBERS.values())


def test_an_unread_member_is_found():
    # a read inside the member's own definition does not count; a dunder never fails
    source = ("\n\nclass Probe:\n    @property\n    def probe_p(self):\n"
              "        return self.probe_p\n    def probe_m(self):\n"
              "        return self.probe_q()\n    def probe_q(self):\n        pass\n"
              "    def __len__(self):\n        return 0\n")
    corpus = {path: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    before = set(_unread_members(corpus))
    corpus[PACKAGE / "graph.py"] += source
    assert set(_unread_members(corpus)) - before == {"graph.Probe.probe_p", "graph.Probe.probe_m"}


def _unread_fields(corpus: dict) -> list[str]:
    """Class-level fields of the package's dataclasses and NamedTuples, as
    module.Class.name, whose name no ``ast.Attribute`` in ``corpus`` (path ->
    source text) loads."""
    read = {node.attr for text in corpus.values() for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(corpus[path]).body:
            if not isinstance(cls, ast.ClassDef) or not (
                    any(_called_name(getattr(d, "func", d)) == "dataclass"
                        for d in cls.decorator_list)
                    or any(_called_name(base) == "NamedTuple" for base in cls.bases)):
                continue
            unread += [f"{path.stem}.{cls.name}.{node.target.id}" for node in cls.body
                       if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                       and node.target.id not in read]
    return unread


def test_every_field_is_read_elsewhere():
    # a field only tests read is test-only state that src/ still pays to fill
    corpus = {path: path.read_text(encoding="utf-8")
              for folder in ("src", "scripts")
              for path in sorted((ROOT / folder).rglob("*.py"))}
    # equal, so an entry whose field came into use or went must go too
    assert sorted(_unread_fields(corpus)) == sorted(UNREAD_FIELDS)
    assert len(UNREAD_FIELDS) <= UNREAD_FIELDS_CEILING
    assert all(reason.strip() for reason in UNREAD_FIELDS.values())


def test_an_unread_field_is_found():
    # a dataclass (called or not) and a NamedTuple are checked, a plain class
    # is not; a store is no read
    source = ("\n\n@dataclass(frozen=True)\nclass ProbeA:\n    probe_a: int\n"
              "    probe_b: int = 0\n\n\n@dataclass\nclass ProbeB:\n    probe_c: int\n"
              "    def f(self):\n        self.probe_c = self.probe_b\n\n\n"
              "class ProbeC(NamedTuple):\n    probe_d: int\n\n\n"
              "class ProbeD:\n    probe_e: int\n")
    corpus = {path: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    before = set(_unread_fields(corpus))
    corpus[PACKAGE / "graph.py"] += source
    assert set(_unread_fields(corpus)) - before == {
        "graph.ProbeA.probe_a", "graph.ProbeB.probe_c", "graph.ProbeC.probe_d"}


def _called_name(expr):
    """The name ``expr`` ends in (``functools.cache`` -> "cache"), or None."""
    return getattr(expr, "attr", getattr(expr, "id", None))


def _is_cache(expr) -> bool:
    """Whether ``expr`` is functools.cache or lru_cache, called or not."""
    if isinstance(expr, ast.Call):
        return _is_cache(expr.func)
    return _called_name(expr) in {"cache", "lru_cache"}


def _is_empty_mapping(expr) -> bool:
    """Whether ``expr`` makes an empty dict, the usual start of a memo."""
    if isinstance(expr, ast.Dict):
        return not expr.keys
    if not isinstance(expr, ast.Call):
        return False
    name = _called_name(expr.func)
    return name == "defaultdict" or (not expr.args and not expr.keywords and name in {
        "dict", "OrderedDict", "WeakKeyDictionary", "WeakValueDictionary"})


def _process_caches(module: str, tree) -> set[str]:
    """module.name for each cache in ``tree`` that outlives a call: a cached
    function or method, a cache or an empty dict bound at module or class
    level, a module-level name that a function stores into or rebinds by
    ``global``."""
    found = set()
    scopes = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    for node in (node for body in scopes for node in body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(_is_cache(d) for d in node.decorator_list):
                found.add(f"{module}.{node.name}")
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            if _is_cache(node.value) or _is_empty_mapping(node.value):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found |= {f"{module}.{t.id}" for t in targets if isinstance(t, ast.Name)}
    module_names = {t.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                    for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                    if isinstance(t, ast.Name)}
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        local = {n.id for n in ast.walk(function)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        local |= {a.arg for a in ast.walk(function.args) if isinstance(a, ast.arg)}
        for n in ast.walk(function):
            if isinstance(n, ast.Global):
                found |= {f"{module}.{name}" for name in n.names}
            target = (n.value if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store)
                      else n.func.value if isinstance(n, ast.Call)
                      and isinstance(n.func, ast.Attribute)
                      and n.func.attr in {"setdefault", "update", "__setitem__"} else None)
            if isinstance(target, ast.Name) and target.id in module_names - local:
                found.add(f"{module}.{target.id}")
    return found


def test_only_code_keyed_caches_outlive_a_call():
    # a memo keyed by documents, channels or plants must be made inside the
    # call that fills it (load_channel's parse memo, max_independent_set's
    # classes), so repeated operations in one process each derive afresh
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= _process_caches(path.stem, ast.parse(path.read_text(encoding="utf-8")))
    assert found == PROCESS_CACHES, sorted(found ^ PROCESS_CACHES)


@pytest.mark.parametrize("source, name", [
    ("import functools\n@functools.lru_cache(maxsize=None)\ndef f(x): return x", "m.f"),
    ("from functools import cache\nclass C:\n    @cache\n    def f(self, x): return x", "m.f"),
    ("from functools import cache\ng = cache(abs)", "m.g"),
    ("_MEMO = {}", "m._MEMO"),
    ("from collections import defaultdict\n_MEMO = defaultdict(list)", "m._MEMO"),
    ("class C:\n    seen: dict = dict()", "m.seen"),
    ("TABLE = {1: 2}\ndef f(x):\n    TABLE[x] = x", "m.TABLE"),
    ("TABLE = {1: 2}\ndef f(x):\n    return TABLE.setdefault(x, x)", "m.TABLE"),
    ("state = 0\ndef f():\n    global state\n    state = 1", "m.state"),
], ids=["lru-cache", "cached-method", "cache-call", "empty-dict", "defaultdict",
        "class-dict", "stored-into", "setdefault", "global"])
def test_a_cache_that_outlives_its_call_is_found(source, name):
    assert _process_caches("m", ast.parse(source)) == {name}


def test_a_memo_local_to_its_call_is_no_process_cache():
    source = ("from functools import cache\nTABLE = {1: 2}\n"
              "def f(xs):\n    memo = cache(abs)\n    seen = {}\n"
              "    TABLE = {}\n    TABLE[0] = 1\n"
              "    @cache\n    def g(y): return y\n    return [memo(x) for x in xs]")
    assert _process_caches("m", ast.parse(source)) == set()
