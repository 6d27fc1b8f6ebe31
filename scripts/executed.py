#!/usr/bin/env python
"""CI gate: every ``src/`` definition runs in some entry point of the bench job.

The static rule of ``tests/test_reachability.py`` counts a definition as
reached when its *name* appears outside ``tests/``, so it cannot see a
method that shares its name with one that does run. This gate runs the
entry points of the CI ``bench`` job in one process under a
``sys.setprofile`` hook and fails on

* any definition (as ``tests/test_reachability.py`` defines one) that no
  entry point executes and that is not allow-listed, and
* any stale allow-list entry: its definition is gone, or it now executes.

A function or method executes when its code runs. A class executes when
any function of its own body or of a subclass's body runs, the ones
``dataclass`` generates included; a class with no such function (an
exception, an enum) executes when its module is imported, the narrowest
event a profile hook sees for it.

The allow-list is :data:`ALLOWED` of ``tests/test_reachability.py`` (code
only tests name) plus :data:`NEVER_RUN` here (code the entry points name
but never run), with the same reasons plus :data:`PLATFORM`. The optional
JAX and CuPy backend modules are left out as a whole: the
``optional-backends`` job runs them.

The entry points, in order: ``repro.bench --list``; every experiment with
``--quick --output``, then ``bench_smoke.py`` on the report; the trace
and dashboard validators on each serve experiment's artifacts of that
pass; ``check_golden.py``; every ``examples/*.py``; set-up, one block, the check
and the measures ``perf/measure.py`` reads of each ``perf/scenarios.py``
workload; ``repro.backend.validate --quick``; and ``bench_history.py``,
appending to one temporary copy of the history and checking another.
Everything they write goes to a temporary directory; nothing is written
inside the checkout. It takes about four minutes on a 2-core host.

Usage::

    python scripts/executed.py
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import runpy
import shutil
import sys
import tempfile
import threading
import time
from collections.abc import Callable, Iterable, Mapping
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.dont_write_bytecode = True  # nothing imported from the checkout writes a .pyc
sys.path.insert(0, str(ROOT / "tests"))

from test_reachability import ALLOWED, ORACLE, PAPER, PROTOCOL, definitions  # noqa: E402

PLATFORM = (
    "the only path for a platform or input that no entry point can produce on the CI host"
)
REASONS = (ORACLE, PAPER, PROTOCOL, PLATFORM)

#: modules the ``optional-backends`` job runs; they import JAX or CuPy.
OPTIONAL = ("repro.backend.jax_backend.", "repro.backend.cupy_backend.")

_STATION = "§V-B: the station beamformer chain that feeds the central TCBF"
_SINGLE_TILE = "the single-tile schedule the batched float16/tf32 paths are checked against"
_ANY_BACKEND = "the JAX/CuPy path; NumPy runs the chunked schedule (optional-backends job)"

#: definitions some entry point names but none runs.
NEVER_RUN: dict[str, tuple[str, str]] = {
    "repro.apps.radioastronomy.channelizer.PolyphaseFilterbank": (PAPER, _STATION),
    "repro.apps.radioastronomy.channelizer.PolyphaseFilterbank.channel_frequencies": (
        PAPER,
        _STATION,
    ),
    "repro.apps.radioastronomy.channelizer.PolyphaseFilterbank.channelize": (PAPER, _STATION),
    "repro.apps.radioastronomy.channelizer.PolyphaseFilterbank.prototype": (PAPER, _STATION),
    "repro.apps.radioastronomy.coordinates.station_antenna_layout": (PAPER, _STATION),
    "repro.apps.radioastronomy.station.StationBeamformer.channel_frequencies": (PAPER, _STATION),
    "repro.apps.radioastronomy.station.StationConfig": (PAPER, _STATION),
    "repro.apps.radioastronomy.station.StationConfig.antenna_positions": (PAPER, _STATION),
    "repro.apps.radioastronomy.reference.ReferenceBeamformer.form_beams": (
        ORACLE,
        "the exact complex64 beamformer the LOFAR and parity tests compare against",
    ),
    "repro.ccglib.complex_mma._tile_schedule": (ORACLE, _SINGLE_TILE),
    "repro.gpusim.tensorcore.mma_f16": (ORACLE, _SINGLE_TILE),
    "repro.gpusim.tensorcore.mma_tf32": (ORACLE, _SINGLE_TILE),
    "repro.gpusim.tensorcore.quantize_f16": (ORACLE, _SINGLE_TILE),
    "repro.gpusim.tensorcore.quantize_tf32": (ORACLE, _SINGLE_TILE),
    "repro.backend.__init__.ArrayBackend.astype": (PROTOCOL, "ArrayBackend, abstract"),
    "repro.backend.__init__.ArrayBackend.popcount": (PROTOCOL, "ArrayBackend, abstract"),
    "repro.backend.__init__.ArrayBackend.version": (PROTOCOL, "ArrayBackend, abstract"),
    "repro.backend.__init__.ArrayBackend.xp": (PROTOCOL, "ArrayBackend, abstract"),
    "repro.kerneltuner.strategies.Strategy.run": (PROTOCOL, "Strategy, abstract"),
    "repro.serve.autoscale.AutoscalePolicy": (PROTOCOL, "the policy protocol itself"),
    "repro.serve.autoscale.AutoscalePolicy.decide": (PROTOCOL, "AutoscalePolicy"),
    "repro.serve.obs.trace.NullRecorder.emit": (
        PROTOCOL,
        "the disabled recorder's emit; every emission site checks enabled first",
    ),
    "repro.backend.__init__._popcount_swar": (PLATFORM, "NumPy < 2, without bitwise_count"),
    "repro.util.bits._pack_words_shift_or": (
        PLATFORM,
        "the JAX/CuPy packing path; NumPy packs with packbits (optional-backends job)",
    ),
    "repro.ccglib.complex_mma._as_planar": (PLATFORM, _ANY_BACKEND),
    "repro.ccglib.complex_mma._quantize_f16": (PLATFORM, _ANY_BACKEND),
    "repro.ccglib.complex_mma.quantize_tf32_backend": (PLATFORM, _ANY_BACKEND),
    "repro.bench.registry.supports_backend": (
        PLATFORM,
        "checks --backend, which only the optional-backends job passes",
    ),
    "repro.serve.dispatch.FleetDispatcher._execute_split": (
        PLATFORM,
        "a functional split needs operands larger than one device's memory",
    ),
    "repro.serve.service._gating": (
        PLATFORM,
        "a pipeline stage with two dependencies; both app pipelines are chains",
    ),
    "repro.serve.obs.events.RequestFailed": (
        PLATFORM,
        "a request failing in a traced run; every traced headline arm completes all",
    ),
    "repro.serve.obs.monitor.ServiceMonitor.observe_failure": (
        PLATFORM,
        "a request failing in a monitored run; every monitored headline arm completes all",
    ),
    "repro.serve.obs.events.ShardRecovered": (
        PLATFORM,
        "a shard recovery in a traced run; only the untraced split-crash arm recovers shards",
    ),
}


def problems(
    defined: Iterable[str], ran: set[str], allowed: Mapping[str, tuple[str, str]]
) -> list[str]:
    """What fails the gate: unlisted never-run definitions, stale entries
    and entries whose reason is not one of :data:`REASONS`."""
    defined = set(defined)
    found = [f"never runs: {name}" for name in sorted(defined - ran - allowed.keys())]
    for name, (kind, why) in sorted(allowed.items()):
        if name not in defined:
            found.append(f"stale, no longer defined: {name}")
        elif name in ran:
            found.append(f"stale, now runs: {name}")
        if kind not in REASONS or not why:
            found.append(f"reason outside the four: {name}")
    return found


def _functions(value) -> list:
    """The plain functions behind one class attribute or module global."""
    if isinstance(value, property):
        return [f for f in (value.fget, value.fset, value.fdel) if f is not None]
    if isinstance(value, (staticmethod, classmethod)):
        value = value.__func__
    value = inspect.unwrap(getattr(value, "func", value))  # cached_property, cache
    return [value] if inspect.isfunction(value) else []


def _resolve(name: str):
    """``(module name, object)`` of one qualified definition name.

    A package's ``__init__`` is the package itself: importing
    ``pkg.__init__`` by that name would run the file a second time, as a
    new module whose code never runs.
    """
    parts = name.split(".")
    for split in range(len(parts) - 1, 0, -1):
        module_name = ".".join(parts[:split]).removesuffix(".__init__")
        try:
            obj = importlib.import_module(module_name)
        except ModuleNotFoundError:
            continue
        for i, attr in enumerate(parts[split:]):
            obj = vars(obj)[attr] if i else getattr(obj, attr)
        return module_name, obj
    raise LookupError(f"no module defines {name}")


def _codes(obj) -> list[CodeType]:
    """The code whose running counts as running ``obj``: a function's own
    code; for a class, the code of every function in its body or in a
    subclass's body, the ones ``dataclass`` generates included."""
    if not inspect.isclass(obj):
        return [f.__code__ for f in _functions(obj)]
    codes: list[CodeType] = []
    pending = [obj]
    while pending:
        cls = pending.pop()
        pending += cls.__subclasses__()
        path = inspect.getsourcefile(cls)
        codes += [
            f.__code__
            for value in vars(cls).values()
            for f in _functions(value)
            if f.__code__.co_filename in (path, "<string>")
        ]
    return codes


def executed(names: Iterable[str], run: Callable[[], None]) -> set[str]:
    """The definitions among ``names`` that run during ``run()``.

    A class with no function of its own or of a subclass counts as run
    when ``run()`` imported its module.
    """
    seen = profiled(run)
    imported = set(sys.modules)
    ran: set[str] = set()
    for name in names:
        module_name, obj = _resolve(name)
        codes = _codes(obj)
        if any(id(code) in seen for code in codes) or (
            not codes and inspect.isclass(obj) and module_name in imported
        ):
            ran.add(name)
    return ran


def profiled(run: Callable[[], None]) -> dict[int, CodeType]:
    """Every code object that runs during ``run()``, in any thread, by
    identity: code objects compare equal across files when their names,
    first lines and bodies match."""
    seen: dict[int, CodeType] = {}

    def hook(frame, event, arg):
        seen[id(frame.f_code)] = frame.f_code

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return seen


#: one entry point: a label, its ``main`` and the arguments it is given.
EntryPoint = tuple[str, Callable[[list[str]], int | None], list[str]]


def _call(label: str, main: Callable[[list[str]], int | None], argv: list[str]) -> None:
    """Run one entry point with its output captured; stop on a non-zero exit."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            status = main(argv)
    except SystemExit as stop:
        status = stop.code
    if status not in (None, 0):
        sys.stdout.write(out.getvalue()[-4000:])
        raise SystemExit(f"executed: entry point failed ({status}): {label}")
    print(f"  {time.perf_counter() - t0:6.1f} s  {label}", flush=True)


def _example(argv: list[str]) -> None:
    """Run one example script as ``__main__``."""
    saved, sys.argv = sys.argv, argv
    try:
        runpy.run_path(argv[0], run_name="__main__")
    finally:
        sys.argv = saved


def _perf(argv: list[str]) -> int:
    """Set up one ``perf/scenarios.py`` workload, run and check one block,
    and compute the measures ``perf/measure.py`` reads of it."""
    from scenarios import WORKLOADS

    workload = WORKLOADS[argv[0]](1)
    workload.setup()
    ok, _ = workload.check(0, workload.block(0)())
    if workload.kind == "functional":
        workload.layer_work()
    else:
        workload.model_metrics()
    return 0 if ok else 1


def entry_points(tmp: Path) -> list[EntryPoint]:
    """The CI bench job's entry points in its order, writing only under ``tmp``."""
    import bench_history
    import bench_smoke
    import check_golden
    import validate_dashboard
    import validate_trace
    from scenarios import WORKLOADS

    from repro.backend import validate
    from repro.bench.__main__ import main as bench
    from repro.bench.registry import EXPERIMENTS

    report = str(tmp / "bench-report.json")
    outdir = tmp / "bench-results"
    quick = ["--quick", "--outdir", str(outdir), "--output", report]
    points: list[EntryPoint] = [
        ("repro.bench --list", bench, ["--list"]),
        ("repro.bench --quick --output", bench, quick),
        ("bench_smoke.py", bench_smoke.main, [report]),
    ]
    for exp in (name for name in EXPERIMENTS if name.startswith("serve")):
        trace, dashboard = str(outdir / f"{exp}-trace.json"), str(outdir / f"{exp}-dashboard.html")
        points += [
            (f"validate_trace.py {exp}", validate_trace.main, [trace]),
            (f"validate_dashboard.py {exp}", validate_dashboard.main, [dashboard]),
        ]
    points.append(("check_golden.py", check_golden.main, []))
    for path in sorted((ROOT / "examples").glob("*.py")):
        points.append((f"examples/{path.name}", _example, [str(path)]))
    points += [(f"perf/scenarios.py {name}", _perf, [name]) for name in WORKLOADS]
    points.append(("repro.backend.validate --quick", validate.main, ["--quick"]))
    appended, checked = str(tmp / "history-append.jsonl"), str(tmp / "history-check.jsonl")
    for copy in (appended, checked):
        shutil.copyfile(ROOT / "benchmarks" / "history.jsonl", copy)
    append = ["--history", appended, "--append", report, "--label", "ci", "--quick"]
    points += [
        ("bench_history.py --append", bench_history.main, append),
        ("bench_history.py --check", bench_history.main, ["--history", checked, "--check"]),
    ]
    return points


def run_entry_points(tmp: Path) -> None:
    for label, main, argv in entry_points(tmp):
        _call(label, main, argv)


def main() -> int:
    t0 = time.perf_counter()
    sys.path[:0] = [str(ROOT / top) for top in ("src", "scripts", "perf")]
    names = sorted(name for name in definitions(ROOT) if not name.startswith(OPTIONAL))
    with tempfile.TemporaryDirectory(prefix="executed-") as tmp:
        ran = executed(names, lambda: run_entry_points(Path(tmp)))
    found = problems(names, ran, {**ALLOWED, **NEVER_RUN})
    found += [
        f"listed in both ALLOWED and NEVER_RUN: {name}"
        for name in sorted(ALLOWED.keys() & NEVER_RUN.keys())
    ]
    print(
        f"executed: {len(ran)} of {len(names)} definitions ran "
        f"({len(ALLOWED) + len(NEVER_RUN)} allow-listed) in {time.perf_counter() - t0:.0f} s"
    )
    for problem in found:
        print(f"executed: {problem}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
