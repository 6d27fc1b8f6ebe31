"""``scripts/executed.py``: the bookkeeping of the executed-reachability gate.

The gate itself runs the CI ``bench`` job's entry points, which takes
minutes, so it runs in that job. These tests check its verdicts and its
profile hook on synthetic inputs, and that its allow-list is well formed.
"""

from __future__ import annotations

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

from test_reachability import ALLOWED, ROOT, definitions

SCRIPT = ROOT / "scripts" / "executed.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("executed", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_never_run_definition_fails(gate):
    assert gate.problems({"pkg.used", "pkg.lonely"}, {"pkg.used"}, {}) == ["never runs: pkg.lonely"]


def test_an_allow_listed_never_run_definition_passes(gate):
    allowed = {"pkg.lonely": (gate.PLATFORM, "only on NumPy < 2")}
    assert gate.problems({"pkg.used", "pkg.lonely"}, {"pkg.used"}, allowed) == []


def test_an_entry_whose_definition_is_gone_is_stale(gate):
    allowed = {"pkg.gone": (gate.PROTOCOL, "was abstract")}
    assert gate.problems({"pkg.used"}, {"pkg.used"}, allowed) == [
        "stale, no longer defined: pkg.gone"
    ]


def test_an_entry_that_now_runs_is_stale(gate):
    allowed = {"pkg.used": (gate.ORACLE, "was a reference")}
    assert gate.problems({"pkg.used"}, {"pkg.used"}, allowed) == ["stale, now runs: pkg.used"]


@pytest.mark.parametrize("reason", [("convenient", "kept for later"), (None, "x")])
def test_a_reason_outside_the_four_fails(gate, reason):
    allowed = {"pkg.lonely": reason}
    assert gate.problems({"pkg.lonely"}, set(), allowed) == ["reason outside the four: pkg.lonely"]


def test_an_empty_explanation_fails(gate):
    allowed = {"pkg.lonely": (gate.PAPER, "")}
    assert gate.problems({"pkg.lonely"}, set(), allowed) == ["reason outside the four: pkg.lonely"]


_MODULE = """
    import dataclasses


    def used():
        return Box(1).size()


    def lonely():
        return 0


    class Box:
        def __init__(self, n):
            self.n = n

        def size(self):
            return self.n

        @property
        def spare(self):
            return 0


    @dataclasses.dataclass
    class Point:
        x: int


    @dataclasses.dataclass
    class Unbuilt:
        y: int


    class Base:
        def hook(self):
            raise NotImplementedError


    class Derived(Base):
        def hook(self):
            return Point(1)


    class Failure(Exception):
        pass
"""


def test_the_hook_sees_what_runs(gate, tmp_path, monkeypatch):
    # Functions run by their code; a class by its own or a subclass's code,
    # dataclass-generated code included; a class with no code of its own by
    # the import of its module.
    package = "executed_fixture_pkg"
    (tmp_path / "src" / package).mkdir(parents=True)
    (tmp_path / "src" / package / "__init__.py").write_text("")
    (tmp_path / "src" / package / "mod.py").write_text(textwrap.dedent(_MODULE))
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    for name in [m for m in sys.modules if m.startswith(package)]:
        monkeypatch.delitem(sys.modules, name)
    names = sorted(definitions(tmp_path))

    def run():
        module = importlib.import_module(f"{package}.mod")
        module.used()
        module.Derived().hook()

    ran = gate.executed(names, run)
    prefix = f"{package}.mod."
    assert sorted(name.removeprefix(prefix) for name in set(names) - ran) == [
        "Base.hook",
        "Box.spare",
        "Unbuilt",
        "lonely",
    ]
    assert {prefix + "Base", prefix + "Point", prefix + "Failure"} <= ran


def test_code_counts_by_identity_and_a_package_init_is_the_package(
    gate, tmp_path, monkeypatch
):
    # Code objects compare equal across files when their name, first line
    # and body match, so the gate must tell twins apart by identity; and a
    # package __init__'s definitions are the ones the package import ran.
    package = "executed_fixture_twins"
    twin = "def same():\n    return 0\n"
    (tmp_path / "src" / package).mkdir(parents=True)
    init = twin + "\n\ndef setup():\n    return 1\n"
    (tmp_path / "src" / package / "__init__.py").write_text(init)
    (tmp_path / "src" / package / "a.py").write_text(twin)
    (tmp_path / "src" / package / "b.py").write_text(twin)
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    names = sorted(definitions(tmp_path))

    def run():
        importlib.import_module(package).setup()
        importlib.import_module(f"{package}.a").same()
        importlib.import_module(f"{package}.b")

    assert gate.executed(names, run) == {f"{package}.__init__.setup", f"{package}.a.same"}


def test_a_class_of_a_module_never_imported_did_not_run(gate, tmp_path, monkeypatch):
    package = "executed_fixture_cold"
    (tmp_path / "src" / package).mkdir(parents=True)
    (tmp_path / "src" / package / "__init__.py").write_text("")
    (tmp_path / "src" / package / "mod.py").write_text("class Failure(Exception):\n    pass\n")
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    assert gate.executed([f"{package}.mod.Failure"], lambda: None) == set()


def test_the_allow_list_is_well_formed(gate):
    # The checks a full run makes that need no run: one list each, every
    # entry names a definition, every reason is one of the four.
    assert not ALLOWED.keys() & gate.NEVER_RUN.keys()
    assert sorted(gate.NEVER_RUN.keys() - definitions().keys()) == []
    assert all(kind in gate.REASONS and why for kind, why in gate.NEVER_RUN.values())
    assert not [name for name in gate.NEVER_RUN if name.startswith(gate.OPTIONAL)]


def test_the_optional_backend_modules_exist(gate):
    for prefix in gate.OPTIONAL:
        path = ROOT / "src" / Path(*prefix.rstrip(".").split("."))
        assert path.with_suffix(".py").is_file(), prefix
