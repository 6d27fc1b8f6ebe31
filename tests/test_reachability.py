"""Every ``src/`` definition has a caller outside ``tests/``, pinned.

Code that only tests reach is code a pipeline cannot use but every change
must keep working, so the set is fixed here, the way
``tests/test_option_surface.py`` fixes the options. A definition is a
top-level function or class of a ``src/`` module, or a non-dunder method of
a top-level class. It is *reached* when its name appears as a name, an
attribute, an import alias or an identifier-like string constant in
``src/``, ``examples/``, ``scripts/``, ``perf/`` (but not ``perf/tests/``)
or a ``python`` block of ``README.md``.

A package export is not a caller: inside a package ``__init__.py`` under
``src/`` an import alias or an identifier-like string (an ``__all__``
entry) reaches nothing. Names and attributes the ``__init__``'s own code
loads still count, and an exported name that an example, a script, a
``perf/`` file or a README block imports is reached through that import.

An export alone does not keep a whole module alive, though: every
subpackage and every top-level module of a ``src/`` package must be
imported by some file of those trees outside itself (``import a.b``,
``from a.b import x`` or ``from a import b`` all import ``a.b``). A package
whose names only its own ``__init__`` and the tests import is unreached as
a whole.

A definition nothing reaches is deleted, or its test is pointed at the
production path that does the job. The few that stay are on
:data:`ALLOWED`, each with a reason of one of three kinds.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import importlib.util
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: the only reasons a definition may stay without a non-test caller.
ORACLE = "a reference or oracle that a test compares against"
PAPER = "reproduces a statement of the paper"
PROTOCOL = "a protocol member an implementation must provide"

ALLOWED: dict[str, tuple[str, str]] = {
    "repro.ccglib.complex_mma.complex_mma_f16_naive": (
        ORACLE,
        "the four-accumulator decomposition the fused 5-step schedule is checked against",
    ),
    "repro.ccglib.complex_mma.complex_mma_tf32": (
        ORACLE,
        "the per-tile TF32 schedule the batched TF32 path must equal bit for bit",
    ),
    "repro.tcbf.plan.BeamformerPlan.cache_key": (
        ORACLE,
        "the built plan's identity that Workload.compat_key is cross-checked against",
    ),
    "repro.ccglib.complex_mma.complex_mma_f16": (
        ORACLE,
        "the single-tile 5-step schedule test_complex_mma compares with reference_complex_gemm "
        "and that the batched float16 path must equal bit for bit",
    ),
    "repro.ccglib.complex_mma.reference_complex_gemm": (
        ORACLE,
        "the complex128 product test_complex_mma's float16 tolerance checks compare against",
    ),
    "repro.ccglib.bit_gemm.real_bit_dot": (
        ORACLE,
        "the Eq. 4 dot product test_bit_gemm's Table II example and XOR/AND k-loops check against",
    ),
    "repro.ccglib.layouts.to_interleaved": (
        ORACLE,
        "the inverse of to_planar that test_gemm and the layout property tests read "
        "the planar MMA outputs back through",
    ),
    "repro.apps.radioastronomy.channelizer.fft_filterbank": (
        ORACLE,
        "the plain FFT filterbank test_radioastronomy measures the PFB's leakage against",
    ),
    "repro.apps.radioastronomy.sky.expected_beam_power": (
        ORACLE,
        "the analytic beam power test_radioastronomy checks the sky model's beam against",
    ),
    "repro.apps.ultrasound.model_matrix.paper_scale_config": (
        PAPER,
        "§V-A: the full-scale real-time setup, K = 262144 (128 frequencies x 64 x 32)",
    ),
    "repro.apps.ultrasound.model_matrix.recorded_dataset_config": (
        PAPER,
        "§V-A: the recorded mouse-brain dataset of Fig 6, K = 524288 and M = 38880",
    ),
    "repro.apps.radioastronomy.station.StationBeamformer": (
        PAPER,
        "§V-B: the FPGA station beamformer that feeds the central TCBF",
    ),
    "repro.apps.radioastronomy.station.StationBeamformer.form_station_beam": (
        PAPER,
        "§V-B: the FPGA station beamformer that feeds the central TCBF",
    ),
    "repro.apps.radioastronomy.station.StationBeamformer.simulate_antenna_source": (
        PAPER,
        "§V-B: the per-antenna input of the station beamformer",
    ),
    "repro.apps.radioastronomy.station.StationBeamformer.beam_gain": (
        PAPER,
        "§V-B: the station beam response the station-to-central chain is checked with",
    ),
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_PYTHON_BLOCK = re.compile(r"^[ \t]*```python\n(.*?)^[ \t]*```", re.S | re.M)


def readme_blocks(root: Path = ROOT) -> list[str]:
    """Every ``python`` block of ``README.md``, dedented."""
    text = (root / "README.md").read_text()
    return [textwrap.dedent(block) for block in _PYTHON_BLOCK.findall(text)]


def _module_name(root: Path, path: Path) -> str:
    return ".".join(path.relative_to(root / "src").with_suffix("").parts)


def _non_test_trees(root: Path):
    """``(dotted module name or None, AST)`` of every non-test source."""
    for top in ("src", "examples", "scripts", "perf"):
        for path in sorted((root / top).rglob("*.py")):
            if not path.is_relative_to(root / "perf" / "tests"):
                module = _module_name(root, path) if top == "src" else None
                yield module, ast.parse(path.read_text(), filename=str(path))
    for block in readme_blocks(root):
        yield None, ast.parse(block)


def reached_names(root: Path = ROOT) -> set[str]:
    names: set[str] = set()
    for module, tree in _non_test_trees(root):
        package_init = module is not None and module.endswith(".__init__")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif package_init:  # an export is not a caller
                continue
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _IDENTIFIER.match(node.value):
                    names.add(node.value)
    return names


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(root: Path = ROOT) -> dict[str, str]:
    """Qualified name -> bare name of every definition under the rule."""
    found: dict[str, str] = {}
    for path in sorted((root / "src").rglob("*.py")):
        module = _module_name(root, path)
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                continue
            found[f"{module}.{node.name}"] = node.name
            members = node.body if isinstance(node, ast.ClassDef) else []
            for member in members:
                if isinstance(member, _FUNCTIONS) and not re.fullmatch(r"__\w+__", member.name):
                    found[f"{module}.{node.name}.{member.name}"] = member.name
    return found


def unreached_in(root: Path) -> set[str]:
    reached = reached_names(root)
    return {qualified for qualified, name in definitions(root).items() if name not in reached}


def units(root: Path = ROOT) -> set[str]:
    """Every subpackage and top-level module of each package under ``src/``."""
    found: set[str] = set()
    for package in (path for path in (root / "src").iterdir() if path.is_dir()):
        for init in package.rglob("__init__.py"):
            if init.parent != package:
                found.add(".".join(init.parent.relative_to(root / "src").parts))
        for path in package.glob("*.py"):
            if path.name != "__init__.py":
                found.add(_module_name(root, path))
    return found


def _imports(tree: ast.AST) -> set[str]:
    """Every dotted module name an import statement may load."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _within(name: str | None, unit: str) -> bool:
    return name is not None and (name == unit or name.startswith(unit + "."))


def unimported_in(root: Path) -> set[str]:
    """Units that no non-test file outside themselves imports."""
    imported: set[str] = set()
    pending = units(root)
    for module, tree in _non_test_trees(root):
        names = _imports(tree)
        for unit in pending:
            if not _within(module, unit) and any(_within(name, unit) for name in names):
                imported.add(unit)
    return pending - imported


@pytest.fixture(scope="module")
def unreached() -> set[str]:
    return unreached_in(ROOT)


@pytest.fixture(scope="module")
def unimported() -> set[str]:
    return unimported_in(ROOT)


@pytest.mark.parametrize("unit", sorted(units()))
def test_module_is_imported_outside_itself(unit, unimported):
    assert unit not in unimported, (
        f"no file outside tests/ imports {unit} from outside it: delete it, or import "
        "it where a pipeline uses it"
    )


def test_no_definition_only_tests_reach(unreached):
    extra = sorted(unreached - ALLOWED.keys())
    assert not extra, (
        "definitions with no caller outside tests/ (delete them, point their tests at the "
        "production path, or allow-list them with a reason):\n  " + "\n  ".join(extra)
    )


def test_allow_list_is_not_stale(unreached):
    defined = definitions()
    gone = sorted(name for name in ALLOWED if name not in defined)
    assert not gone, f"allow-listed definitions that no longer exist: {gone}"
    now_reached = sorted(name for name in ALLOWED if name not in unreached)
    assert not now_reached, f"allow-listed definitions that now have a caller: {now_reached}"


def test_allow_list_reasons():
    for kind, reason in ALLOWED.values():
        assert kind in (ORACLE, PAPER, PROTOCOL) and reason


def test_readme_snippets_parse_and_import():
    blocks = readme_blocks()
    assert blocks
    for block in blocks:
        tree = ast.parse(block)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    name = f"{node.module}.{alias.name}"
                    exists = hasattr(module, alias.name) or importlib.util.find_spec(name)
                    assert exists, f"a README snippet imports {name}, which does not exist"


def free_names(block: str) -> set[str]:
    """Names a block loads that it neither binds nor gets from builtins."""
    loaded: set[str] = set()
    bound: set[str] = set(dir(builtins))
    for node in ast.walk(ast.parse(block)):
        if isinstance(node, ast.Name):
            (loaded if isinstance(node.ctx, ast.Load) else bound).add(node.id)
        elif isinstance(node, ast.alias):
            bound.add(node.asname or node.name.partition(".")[0])
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            bound.add(node.name)
    return loaded - bound


#: README blocks that run as written; the others are fragments that use
#: names (a fleet, a policy) an earlier block set up.
RUNNABLE_BLOCKS = [
    pytest.param(block, id=f"block{i}")
    for i, block in enumerate(readme_blocks())
    if not free_names(block)
]


def test_some_readme_blocks_run_as_written():
    assert RUNNABLE_BLOCKS


@pytest.mark.parametrize("block", RUNNABLE_BLOCKS)
def test_readme_block_runs(block, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run(
        [sys.executable, "-c", block], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]


# The rule itself, on small synthetic trees: each case is one clause of the
# module docstring, so a scanner change that loosens a clause fails here.


def _tree(root: Path, files: dict[str, str], readme: str = "") -> Path:
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    (root / "README.md").write_text(textwrap.dedent(readme))
    return root


def test_rule_flags_a_definition_only_tests_call(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/mod.py": """
            def used():
                return 1

            def lonely():
                return used()
        """,
        "tests/test_mod.py": "from pkg.mod import lonely\n",
        "examples/run.py": "from pkg import mod\n",
    })
    assert unreached_in(root) == {"pkg.mod.lonely"}


def test_rule_does_not_count_a_package_export_as_reached(tmp_path):
    init = 'from pkg.mod import api\n\n__all__ = ["api"]\n'
    root = _tree(tmp_path, {
        "src/pkg/__init__.py": init,
        "src/pkg/mod.py": "def api():\n    return 1\n",
    })
    assert unreached_in(root) == {"pkg.mod.api"}
    root = _tree(tmp_path, {"examples/run.py": "from pkg import api\n"})
    assert unreached_in(root) == set()


def test_rule_counts_what_a_package_init_runs(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/__init__.py": "from pkg import mod\n\nDEFAULT = mod.build()\n",
        "src/pkg/mod.py": "def build():\n    return 1\n\ndef spare():\n    return 2\n",
    })
    assert unreached_in(root) == {"pkg.mod.spare"}


def test_rule_counts_an_identifier_string_as_reached(tmp_path):
    # getattr(obj, "name") and registry tables reach by string; a string
    # that is not an identifier (prose, a format) reaches nothing.
    root = _tree(tmp_path, {
        "src/pkg/mod.py": """
            class Sink:
                def on_event(self):
                    return 1

                def on_close(self):
                    return 2

            HOOK = "on_event"
            NOTE = "on_close is called last"
        """,
        "scripts/go.py": "from pkg.mod import Sink\n",
    })
    assert unreached_in(root) == {"pkg.mod.Sink.on_close"}


def test_rule_ignores_perf_tests_but_reads_perf(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/mod.py": "def timed():\n    return 1\n\ndef checked():\n    return 2\n",
        "perf/bench.py": "from pkg.mod import timed\n",
        "perf/tests/test_bench.py": "from pkg.mod import checked\n",
    })
    assert unreached_in(root) == {"pkg.mod.checked"}


def test_rule_reads_indented_readme_blocks(tmp_path):
    readme = """
        Usage:

        1. Build it:

           ```python
           from pkg.mod import shown
           ```
    """
    root = _tree(tmp_path, {"src/pkg/mod.py": "def shown():\n    return 1\n"}, readme)
    assert readme_blocks(root) == ["from pkg.mod import shown\n"]
    assert unreached_in(root) == set()


def test_rule_skips_dunders_and_nested_definitions(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/mod.py": """
            class Box:
                def __len__(self):
                    return 0

                def size(self):
                    def inner():
                        return 0
                    return inner()

            def outer():
                class Local:
                    def hidden(self):
                        return 0
                return Local
        """,
        "examples/run.py": "from pkg.mod import Box, outer\n",
    })
    assert definitions(root) == {"pkg.mod.Box": "Box", "pkg.mod.Box.size": "size",
                                 "pkg.mod.outer": "outer"}
    assert unreached_in(root) == {"pkg.mod.Box.size"}


def test_rule_flags_a_package_only_its_own_init_and_tests_import(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/core.py": "def run():\n    return 1\n",
        "src/pkg/meter/__init__.py": "from pkg.meter.read import read\n",
        "src/pkg/meter/read.py": "from pkg.core import run\n\ndef read():\n    return run()\n",
        "tests/test_meter.py": "from pkg.meter import read\n",
        "examples/go.py": "import pkg.core\n",
    })
    assert units(root) == {"pkg.core", "pkg.meter"}
    assert unimported_in(root) == {"pkg.meter"}


def test_rule_accepts_each_import_form(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/a.py": "",
        "src/pkg/b.py": "",
        "src/pkg/c/__init__.py": "",
        "src/pkg/c/deep.py": "",
        "src/pkg/d.py": "",
        "src/pkg/use.py": "import pkg.a\nfrom pkg import b\nfrom pkg.c.deep import x\n",
    }, readme="```python\nfrom pkg.d import y\n```\n")
    assert unimported_in(root) == {"pkg.use"}


def test_free_names_sees_loads_that_nothing_binds():
    block = """
        import numpy as np
        from pkg import make

        def helper(x, *rest, scale=1):
            return [y for y in rest] + [x * scale]

        out = helper(make(np.ones(3)), fleet)
        print(len(out), policy)
    """
    assert free_names(textwrap.dedent(block)) == {"fleet", "policy"}
