"""API-quality meta tests.

Deliverable-level guarantees about the library surface itself: every
public module, class, and function is documented, exports resolve,
the package presents a coherent top-level API, and every module is
reached from a program entry point or a benchmark.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path
from typing import NamedTuple

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.hw",
    "repro.workloads",
    "repro.sim",
    "repro.core",
    "repro.baselines",
    "repro.analysis",
]

#: Walked for their submodules only: the walk of ``repro`` already yields
#: the package module itself, so it keeps a single, unsuffixed test id.
SUBMODULES_ONLY = ["repro.serve"]


def _submodules(pkg_name: str):
    pkg = importlib.import_module(pkg_name)
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name == "__main__":
            continue  # importing it would exec the CLI
        yield importlib.import_module(f"{pkg_name}.{info.name}")


def iter_modules():
    for pkg_name in PACKAGES:
        yield importlib.import_module(pkg_name)
        yield from _submodules(pkg_name)
    for pkg_name in SUBMODULES_ONLY:
        yield from _submodules(pkg_name)


ALL_MODULES = list(iter_modules())


class TestDocstrings:
    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_module_documented(self, module):
        assert module.__doc__ and len(module.__doc__.strip()) > 20, module.__name__

    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_public_callables_documented(self, module):
        undocumented = []
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if obj.__module__ != module.__name__:
                    continue  # re-export; documented at its home
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(name)
                if inspect.isclass(obj):
                    for mname, meth in inspect.getmembers(obj):
                        if mname.startswith("_"):
                            continue
                        if isinstance(
                            inspect.getattr_static(obj, mname), property
                        ):
                            target = inspect.getattr_static(obj, mname).fget
                        elif inspect.isfunction(meth):
                            target = meth
                        else:
                            continue
                        if target.__qualname__.split(".")[0] != obj.__name__:
                            continue  # inherited
                        if not (target.__doc__ and target.__doc__.strip()):
                            undocumented.append(f"{name}.{mname}")
        assert not undocumented, f"{module.__name__}: {undocumented}"


class TestExports:
    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_all_entries_resolve(self, module):
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_top_level_surface(self):
        for name in (
            "ClipScheduler",
            "SimulatedCluster",
            "ExecutionEngine",
            "quickstart_scheduler",
            "ClipError",
            "__version__",
        ):
            assert hasattr(repro, name)

    def test_version_is_semver(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)


SRC = Path(repro.__file__).parent.parent
BENCHMARKS = Path(__file__).parent.parent / "benchmarks"

#: Entry-point modules; every file under ``benchmarks/`` is a root too.
ROOT_MODULES = ("repro.cli", "repro.__main__", "repro.serve")

#: Modules no entry point or benchmark imports, kept on purpose.
UNREACHED_BY_DESIGN = {
    # audit_cap_violations is the tests' cap-violation oracle
    # (test_integration, test_matrix, test_cross_platform)
    "repro.analysis.traces",
}


def _source(module: str) -> Path | None:
    base = SRC.joinpath(*module.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def _is_package(module: str) -> bool:
    return (SRC.joinpath(*module.split(".")) / "__init__.py").is_file()


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imports(tree: ast.Module):
    """``(module, names)`` for every absolute import anywhere in *tree*.

    ``names`` is ``None`` for ``import a.b``; lazy imports inside
    function bodies count like top-level ones.  The package uses no
    relative imports; one added later is skipped, so the module it
    names shows up as unreached.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module, [alias.name for alias in node.names]


def _reexports(package: str) -> dict[str, tuple[str, str]]:
    """Names a package ``__init__`` binds by import: name -> (module, name)."""
    return {
        alias.asname or alias.name: (node.module, alias.name)
        for node in _parse(_source(package)).body
        if isinstance(node, ast.ImportFrom) and not node.level
        for alias in node.names
    }


def _targets(module: str, names):
    """The modules an import reaches, re-exports resolved to their home.

    A package counts as a whole only when imported as one
    (``import repro.pkg``) or when the name asked for is defined in its
    ``__init__`` itself; ``from repro.pkg import Name`` otherwise
    reaches just the module that defines ``Name``.
    """
    if module.split(".")[0] != "repro" or _source(module) is None:
        return
    if names is None or not _is_package(module) or "*" in names:
        yield module
        return
    bindings = _reexports(module)
    for name in names:
        if _source(f"{module}.{name}") is not None:
            yield f"{module}.{name}"
        elif name in bindings:
            yield from _targets(bindings[name][0], [bindings[name][1]])
        else:
            yield module  # defined in the __init__ itself


def reached_modules() -> set[str]:
    """Every module reachable from the entry points and the benchmarks."""
    pending = list(ROOT_MODULES)
    for path in sorted(BENCHMARKS.rglob("*.py")):
        for module, names in _imports(_parse(path)):
            pending.extend(_targets(module, names))
    reached = set()
    while pending:
        module = pending.pop()
        if module in reached:
            continue
        reached.add(module)
        for imported, names in _imports(_parse(_source(module))):
            pending.extend(_targets(imported, names))
    return reached


def all_modules() -> set[str]:
    """Every non-``__init__`` module under ``src/repro``."""
    return {
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in (SRC / "repro").rglob("*.py")
        if path.name != "__init__.py"
    }


def _program_paths() -> list[Path]:
    """The reachable modules' sources plus every file under ``benchmarks/``."""
    paths = [_source(m) for m in reached_modules()]
    return paths + sorted(BENCHMARKS.rglob("*.py"))


def _definitions(tree: ast.Module):
    """``(qualname, node)`` for every ``def``/``class`` in *tree*, nested
    ones included; dunder methods are called by the language, not by
    name, and are skipped."""
    pending = [("", tree)]
    while pending:
        prefix, parent = pending.pop()
        for node in ast.iter_child_nodes(parent):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                qualname = prefix + node.name
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield qualname, node
                pending.append((qualname + ".", node))
            else:
                pending.append((prefix, node))


def _references(tree: ast.Module):
    """``(name, line)`` for every ``Name``, ``Attribute`` and string
    constant in *tree*, outside ``__all__`` (an export is not a use).
    Strings count because clipbench's tracer wraps methods by name."""
    exported = {
        id(node)
        for stmt in ast.walk(tree)
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
        for node in ast.walk(stmt)
    }
    for node in ast.walk(tree):
        if id(node) in exported:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def unreached_names() -> set[str]:
    """Every ``def``/``class`` under ``src/repro`` that no reachable
    module refers to by name outside the definition's own body.

    The reachable modules are :func:`reached_modules` plus every file
    under ``benchmarks/``.  The match is by bare name, so a reference to
    ``.run`` reaches every method called ``run``.
    """
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path in _program_paths():
        for name, line in _references(_parse(path)):
            uses.setdefault(name, []).append((path, line))
    unreached = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        if path.name == "__init__.py":
            module = module.rpartition(".")[0]
        for qualname, node in _definitions(_parse(path)):
            if not any(
                not (where == path and node.lineno <= line <= node.end_lineno)
                for where, line in uses.get(node.name, ())
            ):
                unreached.add(f"{module}.{qualname}")
    return unreached


#: Names no program path refers to, kept because a test relies on them
#: for behaviour that stays (name -> reason).
UNREACHED_NAMES_BY_DESIGN = {
    "repro.quickstart_scheduler": (
        "the documented entry point of README and examples/quickstart.py; "
        "test_top_level_surface pins it"
    ),
    "repro.analysis.traces.audit_cap_violations": (
        "the cap-violation oracle of test_integration, test_matrix and "
        "test_cross_platform"
    ),
    "repro.analysis.traces.CapViolation": (
        "the record audit_cap_violations returns"
    ),
    "repro.core.monitor.BudgetInvariantMonitor.assert_clean": (
        "the zero-violation checkpoint of the fault, runtime, watchdog "
        "and serve suites"
    ),
    "repro.core.powermodel.ClipPowerModel.p_core_w": (
        "TestFit checks the fitted per-core coefficient is physical"
    ),
    "repro.core.powermodel.ClipPowerModel.mem_base_w": (
        "TestFit checks the fitted DRAM base coefficient is physical"
    ),
    "repro.core.powermodel.ClipPowerModel.mem_w_per_bw": (
        "TestFit checks the fitted DRAM slope is physical"
    ),
    "repro.core.knowledge.KnowledgeDB.migrated_from": (
        "test_v1_fixture_round_trips checks a v1 file is migrated on load"
    ),
    "repro.baselines.optimal.OracleScheduler.search_stats": (
        "the oracle's pruning-soundness and batch-agreement tests read "
        "its bookkeeping"
    ),
    "repro.baselines.optimal.OracleScheduler.dram_grid_w": (
        "test_dram_grid_starts_at_hardware_floor checks the oracle's "
        "search space"
    ),
    "repro.baselines.optimal.OracleScheduler.thread_grid": (
        "test_thread_grid_includes_serial_and_full_node checks the "
        "oracle's search space"
    ),
    "repro.hw.cluster.SimulatedCluster.variability": (
        "the ground truth test_factors_track_ground_truth compares the "
        "calibration against; examples/variability_study.py reads it"
    ),
    "repro.hw.numa.NumaTopology.sockets_used": (
        "the affinity tests read placements' socket spread through it"
    ),
    "repro.sim.affinity.Placement.sockets_used": (
        "the affinity tests read placements' socket spread through it"
    ),
    "repro.sim.affinity.placement_cache_info": (
        "TestPlacementCache observes the placement cache through it"
    ),
    "repro.sim.affinity.placement_cache_clear": (
        "TestPlacementCache resets the placement cache through it"
    ),
    "repro.hw.rapl.RaplDomain.throttle_events": (
        "golden_engine_runs.json pins every node's throttle events"
    ),
    "repro.hw.rapl.RaplDomain.read_energy_register": (
        "the what-if isolation test checks the raw registers stay put"
    ),
    "repro.hw.meter.PowerMeter.read_capped_power_w": (
        "one node's sensor read; the telemetry tests and the hardware "
        "state equivalence test compare it with the watchdog's gather"
    ),
    "repro.hw.rapl.RaplInterface.force_caps": (
        "the verbatim per-node reference loop of tests/hw/test_cap_bank.py"
    ),
    "repro.sim.mpi.CommModel.alpha_s": (
        "test_halo_time_components recomputes the comm time from it"
    ),
    "repro.sim.mpi.CommModel.beta_s_per_byte": (
        "test_halo_time_components recomputes the comm time from it"
    ),
    "repro.serve.client.ServeClient.health": (
        "CI's serve smoke step calls it from inline Python"
    ),
}


class TestReachability:
    """No module or name survives that neither a program path nor a
    bench uses."""

    def test_every_module_is_reached(self):
        unreached = all_modules() - reached_modules()
        assert unreached == UNREACHED_BY_DESIGN, (
            f"reached by no entry point or benchmark: "
            f"{sorted(unreached - UNREACHED_BY_DESIGN)}; reached now, "
            f"drop from UNREACHED_BY_DESIGN: "
            f"{sorted(UNREACHED_BY_DESIGN - unreached)}"
        )

    def test_reexports_resolve_to_the_defining_module(self):
        assert list(_targets("repro.core", ["ClipScheduler"])) == [
            "repro.core.scheduler"
        ]
        assert list(_targets("repro", ["ClipScheduler"])) == [
            "repro.core.scheduler"
        ]
        assert list(_targets("repro", ["quickstart_scheduler"])) == ["repro"]
        assert list(_targets("repro.sim", ["engine"])) == ["repro.sim.engine"]
        assert list(_targets("numpy", ["ndarray"])) == []

    def test_every_name_is_reached(self):
        unreached = unreached_names()
        allowed = set(UNREACHED_NAMES_BY_DESIGN)
        assert unreached == allowed, (
            f"referred to by no entry point or benchmark: "
            f"{sorted(unreached - allowed)}; reached now, drop from "
            f"UNREACHED_NAMES_BY_DESIGN: {sorted(allowed - unreached)}"
        )

    def test_every_kept_name_has_a_reason(self):
        assert all(
            isinstance(reason, str) and reason.strip()
            for reason in UNREACHED_NAMES_BY_DESIGN.values()
        )

    def test_name_scan_sees_uses_not_exports(self):
        tree = ast.parse(
            "__all__ = ['f', 'g']\n"
            "def f():\n    return f()\n"
            "def g():\n    pass\n"
            "class C:\n    def m(self):\n        pass\n"
            "    def __init__(self):\n        pass\n"
            "g()\n"
        )
        assert [q for q, _ in sorted(_definitions(tree))] == ["C", "C.m", "f", "g"]
        uses = [name for name, _ in _references(tree)]
        assert "g" in uses and uses.count("f") == 1  # f only in its own body


EXAMPLES = Path(__file__).parent.parent / "examples"

#: A ``*`` splat in a call: it may fill any positional slot from its own on.
STAR = "*"
#: A ``**`` splat of keys the scan cannot see: it may pass any keyword.
ANY = "**"


class _Frame(NamedTuple):
    """An enclosing ``def`` while its body is scanned."""

    label: str  # options are labelled f"{label}({param}=)"
    callees: frozenset[str]  # the bare names a call of it goes by
    params: frozenset[str]
    forwardable: frozenset[str]  # defaulted and never rebound in the body
    kwarg: str | None


class _Call(NamedTuple):
    """A call; a forwarded argument is the label of the option it passes on."""

    callees: frozenset[str]
    args: tuple  # per positional argument: None, an option label or STAR
    keywords: dict  # keyword -> None or an option label
    splat: object  # None, ANY, or the _Frame whose **kwargs it passes on


def _callee_names(func: ast.expr) -> frozenset[str]:
    """Bare names a callee may resolve to; a dispatch table
    ``{...}[key](...)`` calls each of its values."""
    if isinstance(func, ast.Name):
        return frozenset({func.id})
    if isinstance(func, ast.Attribute):
        return frozenset({func.attr})
    if isinstance(func, ast.Subscript) and isinstance(func.value, ast.Dict):
        return frozenset().union(*map(_callee_names, func.value.values))
    return frozenset()


def _is_record(node: ast.ClassDef) -> bool:
    """A ``@dataclass`` or ``NamedTuple`` class: its fields are options."""
    names = set()
    for expr in [*node.decorator_list, *node.bases]:
        names |= _callee_names(expr.func if isinstance(expr, ast.Call) else expr)
    return bool(names & {"dataclass", "NamedTuple"})


def _defaulted(node, method: bool):
    """``(param, index)`` for each defaulted parameter of *node*; ``index``
    is the positional slot a call fills (``self`` not counted), ``None``
    for a keyword-only one."""
    args = node.args
    positional = [*args.posonlyargs, *args.args][int(method):]
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], first):
        yield arg.arg, index
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _scan(tree: ast.Module, module: str):
    """``(options, calls, splatted)`` of *tree*: ``options`` maps a label
    to ``(callees, index, param)`` for every defaulted parameter of a
    function or ``__init__`` and every defaulted field of a dataclass or
    named tuple; ``calls`` lists every call as a :class:`_Call`;
    ``splatted`` every :class:`_Frame` that takes ``**kwargs``.

    ``partial(f, ...)`` counts as a call of ``f``, ``replace(obj, ...)``
    as a keyword-only call that sets record fields, ``super().__init__``
    as a call of the enclosing class's bases and ``cls(...)`` as one of
    the enclosing class.  A bare parameter name passed on is a forward:
    it sets the option only when the enclosing option is set.
    """
    options, calls, splatted = {}, [], []

    def source(expr, frames):
        if isinstance(expr, ast.Starred):
            return STAR
        if isinstance(expr, ast.Name):
            for frame in reversed(frames):
                if expr.id in frame.params:
                    if expr.id in frame.forwardable:
                        return f"{frame.label}({expr.id}=)"
                    return None
        return None

    def call(node, classes, frames):
        func, args = node.func, node.args
        if (
            isinstance(func, ast.Attribute) and func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and _callee_names(func.value.func) == {"super"} and classes
        ):
            callees = frozenset().union(*map(_callee_names, classes[-1].bases))
        elif isinstance(func, ast.Name) and func.id == "cls" and classes:
            callees = frozenset({classes[-1].name})
        else:
            callees = _callee_names(func)
        if "partial" in callees and args:
            callees, args = _callee_names(args[0]), args[1:]
        elif "replace" in callees:
            args = []
        splat = None
        for kw in node.keywords:
            if kw.arg is None and splat != ANY:
                forwarded = [
                    f for f in frames
                    if isinstance(kw.value, ast.Name) and f.kwarg == kw.value.id
                ]
                splat = forwarded[-1] if forwarded else ANY
        return _Call(
            callees,
            tuple(source(a, frames) for a in args),
            {kw.arg: source(kw.value, frames) for kw in node.keywords if kw.arg},
            splat,
        )

    def visit(node, qual, classes, frames):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_record(child):
                    fields = [
                        stmt for stmt in child.body
                        if isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and "ClassVar" not in ast.unparse(stmt.annotation)
                        and "init=False" not in ast.unparse(stmt)
                    ]
                    for index, stmt in enumerate(fields):
                        if stmt.value:
                            options[
                                f"{module}.{qual}{child.name}({stmt.target.id}=)"
                            ] = (
                                frozenset({child.name, "replace"}),
                                index, stmt.target.id,
                            )
                visit(child, f"{qual}{child.name}.", [*classes, child], frames)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = bool(classes) and node is classes[-1] and not any(
                    _callee_names(d) == {"staticmethod"}
                    for d in child.decorator_list
                )
                if method and child.name == "__init__":
                    label = f"{module}.{qual[:-1]}"
                    callees = frozenset({node.name})
                else:
                    label = f"{module}.{qual}{child.name}"
                    callees = frozenset({child.name})
                defaulted = dict(_defaulted(child, method))
                if not (child.name.startswith("__") and child.name != "__init__"):
                    for param, index in defaulted.items():
                        options[f"{label}({param}=)"] = (callees, index, param)
                a = child.args
                rebound = {
                    n.id for n in ast.walk(child)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                }
                frame = _Frame(
                    label, callees,
                    frozenset(
                        p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs]
                    ),
                    frozenset(defaulted) - rebound,
                    a.kwarg and a.kwarg.arg,
                )
                if frame.kwarg:
                    splatted.append(frame)
                visit(child, f"{qual}{child.name}.", classes, [*frames, frame])
            else:
                if isinstance(child, ast.Call):
                    calls.append(call(child, classes, frames))
                visit(child, qual, classes, frames)

    visit(tree, "", [], [])
    return options, calls, splatted


def _sets(call: _Call, index, param, facts) -> bool:
    """Whether *call* sets the option at *index*/*param*, given the
    forwarded options (and forwarded ``**kwargs`` keys) in *facts*."""
    if param in call.keywords:
        source = call.keywords[param]
        if source is None or source in facts:
            return True
    if index is not None:
        for i, source in enumerate(call.args[: index + 1]):
            if source == STAR or (
                i == index and (source is None or source in facts)
            ):
                return True
    if call.splat == ANY:
        return True
    return call.splat is not None and not facts.isdisjoint(
        {(call.splat.label, param), (call.splat.label, ANY)}
    )


def _unset(modules: dict[str, ast.Module], program: set[str]) -> set[str]:
    """The options of *modules* that no call in the *program* modules
    sets (see :func:`unset_options`)."""
    options, calls, splatted = {}, [], []
    aliases = {}  # ``Alias = Name`` at module level: a call of Alias calls Name
    for module, tree in modules.items():
        found, found_calls, frames = _scan(tree, module)
        options.update(found)
        splatted += frames
        if module in program:
            calls += found_calls
        aliases.update(
            (stmt.targets[0].id, stmt.value.id)
            for stmt in tree.body
            if isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.Name)
            and [type(t) for t in stmt.targets] == [ast.Name]
        )
    by_callee = {}
    for c in calls:
        for name in c.callees | {aliases.get(n) for n in c.callees} - {None}:
            by_callee.setdefault(name, []).append(c)
    # grow the set options (labels) and the keys each **kwargs receives
    # ((label, key) pairs) until a pass adds nothing
    facts: set = set()
    grown = True
    while grown:
        before = len(facts)
        for label, (callees, index, param) in options.items():
            if label not in facts and any(
                _sets(c, index, param, facts)
                for name in callees for c in by_callee.get(name, ())
            ):
                facts.add(label)
        for frame in splatted:
            for c in (c for n in frame.callees for c in by_callee.get(n, ())):
                keys = {
                    key for key, source in c.keywords.items()
                    if source is None or source in facts
                }
                if c.splat == ANY:
                    keys.add(ANY)
                elif c.splat is not None:
                    keys |= {
                        fact[1] for fact in facts
                        if isinstance(fact, tuple) and fact[0] == c.splat.label
                    }
                facts |= {(frame.label, key) for key in keys - frame.params}
        grown = len(facts) > before
    return set(options) - facts


def unset_options() -> set[str]:
    """Every option under ``src/repro`` that no call in a reachable
    module, a benchmark or an example sets.

    An option is a defaulted parameter of a function, method or
    ``__init__``, or a defaulted field of a dataclass or named tuple.  A
    call sets it by keyword, by position at its index, or through a
    ``*``/``**`` splat; callees match by bare name, as in
    :func:`unreached_names`.  A forwarded option (``f(tol=tol)`` inside a
    function whose own ``tol`` defaults) counts only once some call sets
    the option it forwards, so a chain of defaults is unset as a whole.
    """
    program = {
        *_program_paths(), *BENCHMARKS.rglob("*.py"), *EXAMPLES.rglob("*.py")
    }
    modules, program_modules = {}, set()
    for path in {*(SRC / "repro").rglob("*.py"), *program}:
        root = SRC if path.is_relative_to(SRC) else BENCHMARKS.parent
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        modules[module] = _parse(path)
        if path in program:
            program_modules.add(module)
    return {
        label for label in _unset(modules, program_modules)
        if label.startswith("repro.")
    }


#: Options no program path sets, kept on purpose (option -> reason).
UNSET_OPTIONS_BY_DESIGN = {
    "repro.core.journal.RuntimeJournal(durable=)": (
        "safety: the fsync-per-record path of a journal that must survive "
        "power loss; the crash tests pin it"
    ),
    "repro.hw.actuation.FaultyActuation(drop_prob=)": (
        "a fault knob the FaultInjector sets as an attribute mid-run; the "
        "keyword sets the same attribute"
    ),
    "repro.hw.actuation.FaultyActuation(partial_prob=)": (
        "the half-landed write mode the verified-write tests inject; the "
        "actuation report keeps its `partial` counter"
    ),
    "repro.hw.meter.TelemetryFault(drop_prob=)": (
        "a fault knob the FaultInjector sets as an attribute mid-run; the "
        "keyword sets the same attribute"
    ),
    "repro.hw.meter.TelemetryFault(noise_frac=)": (
        "a fault knob the FaultInjector sets as an attribute mid-run; the "
        "keyword sets the same attribute"
    ),
    **{
        f"repro.hw.specs.{field}": (
            "a datasheet field: the value belongs to the modelled part, and "
            "a spec for another part sets it"
        )
        for field in (
            "CoreSpec(dyn_exponent=)",
            "CoreSpec(ipc_peak=)",
            "CoreSpec(p_leak_w=)",
            "GpuSpec(clk_nominal_hz=)",
            "GpuSpec(clock_ladder_hz=)",
            "GpuSpec(dyn_exponent=)",
            "GpuSpec(instr_rate=)",
            "GpuSpec(p_dyn_w=)",
            "GpuSpec(p_idle_w=)",
            "MemorySpec(n_power_levels=)",
        )
    },
    "repro.sim.engine.ExecutionConfig(gpu_cap_w=)": (
        "the uniform device cap beside pkg_cap_w/dram_cap_w for a hand-built "
        "config; decisions pass per-slot caps, and the batch kernel's GPU "
        "cases pin the uniform device throttle"
    ),
}


class TestOptions:
    """No option survives that only a test sets."""

    def test_every_option_is_set(self):
        unset = unset_options()
        allowed = set(UNSET_OPTIONS_BY_DESIGN)
        assert unset == allowed, (
            f"set by no entry point, benchmark or example: "
            f"{sorted(unset - allowed)}; set now, drop from "
            f"UNSET_OPTIONS_BY_DESIGN: {sorted(allowed - unset)}"
        )

    def test_every_kept_option_has_a_reason(self):
        assert all(
            isinstance(reason, str) and reason.strip()
            for reason in UNSET_OPTIONS_BY_DESIGN.values()
        )

    def test_option_scan_sees_every_way_to_set(self):
        lib = ast.parse(
            "from dataclasses import dataclass\n"
            "def kw(a, x=1): pass\n"
            "def pos(a, x=1): pass\n"
            "def star(a, x=1): pass\n"
            "def splat(a, x=1): pass\n"
            "def part(a, x=1): pass\n"
            "def table(x=1): pass\n"
            "def unset(a, x=1): pass\n"
            "def chained(x=1): pass\n"
            "def forward(x=1):\n    chained(x=x)\n"
            "def through(**kw):\n    kw_only(**kw)\n"
            "def kw_only(*, x=1, y=2): pass\n"
            "class C:\n"
            "    def __init__(self, x=1): pass\n"
            "    def m(self, x=1): pass\n"
            "    @classmethod\n"
            "    def make(cls):\n        return cls(x=2)\n"
            "@dataclass\n"
            "class R:\n    a: int\n    x: int = 1\n    y: int = 2\n"
            "Alias = pos\n"
        )
        program = ast.parse(
            "from functools import partial\n"
            "kw(0, x=2)\n"
            "Alias(0, 2)\n"
            "star(*args)\n"
            "splat(0, **opts)\n"
            "partial(part, 0, 2)()\n"
            "{'t': table}['t'](x=2)\n"
            "unset(0)\n"
            "forward()\n"
            "through(y=3)\n"
            "C.make()\n"
            "C().m(2)\n"
            "replace(R(0), y=3)\n"
        )
        unset = _unset({"lib": lib, "prog": program}, {"lib", "prog"})
        assert unset == {
            "lib.unset(x=)",  # called, but never with x
            "lib.forward(x=)",  # nothing sets it ...
            "lib.chained(x=)",  # ... so passing it on sets nothing
            "lib.kw_only(x=)",  # **kw only ever carries y
            "lib.R(x=)",
        }
