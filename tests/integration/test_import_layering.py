"""Import layering: lazy package ``__init__``s and a run path that loads
only what it runs.

Package ``__init__``s resolve their re-exported names on first use, so
``import repro.sim.runner`` loads the write path and nothing else: no
service, sweep, experiment or analysis module, and no
``importlib.metadata`` (the registry scans entry points on its first
miss).  The subprocess tests start fresh interpreters, since this test
process has long since imported everything.
"""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Modules whose public names resolve lazily (PEP 562 ``__getattr__``).
LAZY_MODULES = (
    "repro",
    "repro.analysis",
    "repro.api",
    "repro.crypto",
    "repro.memory",
    "repro.obs",
    "repro.perf",
    "repro.security",
    "repro.service",
    "repro.sim",
    "repro.wear",
    "repro.workloads",
)


def _python(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this checkout; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=300, check=True,
    ).stdout


class TestFirstImport:
    def test_every_module_imports_first_in_a_fresh_interpreter(self):
        """No import cycle is hidden by what some other module loads first.

        ``repro.*`` is cleared from ``sys.modules`` before each import, so
        every module (``repro.cli`` included) is the first one loaded.
        """
        code = """
import importlib
import pkgutil
import sys

import repro

names = ["repro"] + [
    m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
]
for name in names:
    for key in [k for k in sys.modules if k.split(".")[0] == "repro"]:
        del sys.modules[key]
    try:
        importlib.import_module(name)
    except Exception as exc:
        print(f"FAILED {name}: {type(exc).__name__}: {exc}")
    else:
        print(f"ok {name}")
"""
        lines = _python(code).splitlines()
        assert [line for line in lines if line.startswith("FAILED")] == []
        imported = {line.split()[1] for line in lines}
        for name in (*LAZY_MODULES, "repro.cli", "repro.registry",
                     "repro.schemes", "repro.workloads.kv"):
            assert name in imported

    def test_import_counts(self):
        """``import repro`` loads nothing else, the registry's import does
        not scan entry points, and the runner stays within its budget."""
        code = """
import sys

def loaded(prefix="repro"):
    names = sorted(m for m in sys.modules if m.startswith(prefix))
    return "|" + " ".join(names)

import repro
print(loaded())
import repro.registry
print(loaded("importlib.metadata"))
import repro.sim.runner
print(loaded())
print(loaded("importlib.metadata"))
"""
        root, registry_metadata, runner, runner_metadata = [
            line[1:] for line in _python(code).splitlines()
        ]
        assert root.split() == ["repro", "repro._lazy"]
        assert registry_metadata == runner_metadata == ""
        runner = runner.split()
        assert len(runner) <= 50, runner
        for prefix in ("repro.api", "repro.analysis", "repro.service",
                       "repro.sim.experiments", "repro.sim.parallel",
                       "repro.perf", "repro.security", "repro.obs.ledger",
                       "repro.memory.controller"):
            assert not [m for m in runner if m.startswith(prefix)], prefix

    def test_cli_run_imports_only_the_run_path(self):
        """``deuce-sim run --no-ledger`` loads no service, sweep,
        experiment, report or chart code and never scans entry points."""
        code = """
import sys

from repro.cli import main

assert main([
    "run", "--workload", "mcf", "--scheme", "deuce", "--writes", "2000",
    "--no-ledger",
]) == 0
print(" ".join(sorted(
    m for m in sys.modules
    if m.split(".")[0] == "repro" or m.startswith("importlib.metadata")
)))
"""
        loaded = _python(code).splitlines()[-1].split()
        assert "repro.sim.runner" in loaded
        assert [m for m in loaded if m.startswith("repro.service")] == []
        assert "repro.sim.experiments" not in loaded
        assert "repro.sim.parallel" not in loaded
        assert [m for m in loaded if m.startswith("importlib.metadata")] == []
        assert {m for m in loaded if m.startswith("repro.analysis")} <= {
            "repro.analysis",
            "repro.analysis.export",
            "repro.analysis.tables",
        }

    def test_a_run_imports_nothing_the_runner_did_not(self):
        """Every repro module a run touches is loaded with the runner, so
        no run (and no benchmark op) pays for a first import."""
        code = """
import sys

from repro.sim import runner
from repro.sim.config import SimConfig

before = set(sys.modules)
for config in (
    SimConfig("mcf", "deuce", n_writes=300),
    SimConfig("Gems", "ble+deuce", n_writes=300, wear_leveling="hwl"),
    SimConfig("kv-udb", "dyndeuce", n_writes=300, wear_leveling="sr-hwl"),
    SimConfig("mcf", "invmm", n_writes=300, pad_kind="aes"),
):
    runner.run(config)
print(" ".join(sorted(
    m for m in set(sys.modules) - before if m.split(".")[0] == "repro"
)))
"""
        assert _python(code).strip() == ""


@pytest.mark.parametrize("name", LAZY_MODULES)
class TestPublicNames:
    def test_every_name_in_all_resolves_and_is_listed(self, name):
        module = importlib.import_module(name)
        listed = dir(module)
        for attr in module.__all__:
            getattr(module, attr)
            assert attr in listed, attr

    def test_star_import_binds_all(self, name):
        module = importlib.import_module(name)
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        assert set(module.__all__) <= set(namespace)

    def test_unknown_attribute_names_module_and_attribute(self, name):
        module = importlib.import_module(name)
        message = f"module '{name}' has no attribute 'no_such_name'"
        with pytest.raises(AttributeError, match=re.escape(message)):
            module.no_such_name  # noqa: B018


def test_lazy_names_are_the_defining_modules_objects():
    import repro
    import repro.obs
    from repro.memory.controller import SecureMemoryController
    from repro.obs.ledger import RunLedger
    from repro.sim.runner import run

    assert repro.SecureMemoryController is SecureMemoryController
    assert repro.run is run
    assert repro.obs.RunLedger is RunLedger
