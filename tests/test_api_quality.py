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


def iter_modules():
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        yield pkg
        for info in pkgutil.iter_modules(pkg.__path__):
            if info.name == "__main__":
                continue  # importing it would exec the CLI
            yield importlib.import_module(f"{pkg_name}.{info.name}")


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
    paths = [_source(m) for m in reached_modules()]
    paths += sorted(BENCHMARKS.rglob("*.py"))
    for path in paths:
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
    "repro.hw.rapl.RaplInterface.has_gpu_domain": (
        "the golden engine capture and the cap-bank tests pick each "
        "node's domains with it"
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
