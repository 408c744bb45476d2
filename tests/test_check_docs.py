"""tools/check_docs.py: dotted ``repro.*`` names in the docs must resolve.

A planted tree with one good reference, one missing module and one
missing attribute must flag exactly the two bad ones; the live tree
must be clean.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs_tests", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _run(check_docs, root: Path, monkeypatch) -> int:
    monkeypatch.setattr(sys, "argv", ["check_docs.py", str(root)])
    return check_docs.main()


def test_flags_missing_module_and_missing_attribute(
    check_docs, tmp_path, monkeypatch, capsys
):
    package = tmp_path / "src" / "repro" / "sim"
    package.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (package / "__init__.py").write_text("")
    (package / "trajectory.py").write_text(
        "from repro.sim.noise import Model as Alias\n"
        "BLOCK = 64\n\n"
        "def estimate():\n    pass\n"
    )
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "guide.md").write_text(
        "Call `repro.sim.trajectory.estimate` (good), not\n"
        "`repro.core.shm.SharedSlabs` (no module) or\n"
        "`repro.sim.trajectory.EXECUTORS` (no attribute).\n\n"
        "```python\nfrom repro.fenced.only import skipped\n```\n"
    )

    assert _run(check_docs, tmp_path, monkeypatch) == 1
    assert capsys.readouterr().err.splitlines() == [
        "docs/guide.md: stale name 'repro.core.shm.SharedSlabs' (not found under src/)",
        "docs/guide.md: stale name 'repro.sim.trajectory.EXECUTORS' (not found under src/)",
        "2 broken link(s) or stale name(s) across 1 file(s)",
    ]


def test_resolves_modules_packages_and_top_level_names(check_docs, tmp_path):
    module = tmp_path / "repro" / "sim" / "trajectory.py"
    module.parent.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("from repro.sim import run\n")
    (module.parent / "__init__.py").write_text("")
    module.write_text(
        "import numpy as np\nfrom x import y as z\nA: int = 1\nB = C = 2\n"
        "class K:\n    inner = 3\n"
    )
    good = ["repro", "repro.run", "repro.sim", "repro.sim.trajectory",
            "repro.sim.trajectory.np", "repro.sim.trajectory.z",
            "repro.sim.trajectory.A", "repro.sim.trajectory.C",
            "repro.sim.trajectory.K"]
    bad = ["repro.gone", "repro.sim.trajectory.y", "repro.sim.trajectory.inner",
           "repro.sim.trajectory.K.inner"]
    assert [name for name in good if not check_docs.resolves(name, tmp_path)] == []
    assert [name for name in bad if check_docs.resolves(name, tmp_path)] == []


def test_live_tree_is_clean(check_docs, monkeypatch, capsys):
    assert _run(check_docs, REPO_ROOT, monkeypatch) == 0, capsys.readouterr().err
