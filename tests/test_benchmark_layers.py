"""The benchmark's traced runs (perfbench/spans.py) wrap package functions by
name, with getattr and no default: a layer renamed or deleted in the package
would crash every ``--trace 1`` run.  These tests read the layer table as the
benchmark ships it."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    spans = _spans_module()
    for module_name, attr, _ in spans.LAYERS:
        module = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
    trigbary = importlib.import_module(f"{spans.PACKAGE}.trigbary")
    assert isinstance(trigbary.SampleSet.__dict__.get("from_data"), classmethod)


def test_tracer_installs_and_restores():
    spans = _spans_module()
    modules = [importlib.import_module(f"{spans.PACKAGE}.{name}") for name, _, _ in spans.LAYERS]
    before = [(mod, attr, getattr(mod, attr)) for mod, (_, attr, _) in zip(modules, spans.LAYERS)]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(mod, attr) is not fn for mod, attr, fn in before)
    finally:
        tracer.uninstall()
    assert all(getattr(mod, attr) is fn for mod, attr, fn in before)


def test_every_weight_solve_is_traced():
    # numerics.min_singular_direction.s reads 0 if a refactor moves the
    # solve out of the wrapped name; one span per greedy step guards it.
    spans = _spans_module()
    for name, _, _ in spans.LAYERS:
        importlib.import_module(f"{spans.PACKAGE}.{name}")
    solver = importlib.import_module(f"{spans.PACKAGE}.solver")
    trigbary = importlib.import_module(f"{spans.PACKAGE}.trigbary")
    x = trigbary.TWO_PI * np.arange(200) / 200
    samples = trigbary.SampleSet.from_data(x, np.exp(np.sin(x)))
    tracer = spans.Tracer()
    tracer.install()
    try:
        model = solver.fit(samples, solver.FitConfig(cleanup=False))
    finally:
        tracer.uninstall()
    solves = [s for s in tracer.spans if s[0] == "numerics.min_singular_direction"]
    assert len(model.err_history) > 1
    assert len(solves) == len(model.err_history)


def test_fit_cleanup_is_traced_inside_the_fit():
    # solver.cleanup.* counts a fit's own cleanup only while fit calls the
    # public name the tracer wraps.
    spans = _spans_module()
    for name, _, _ in spans.LAYERS:
        importlib.import_module(f"{spans.PACKAGE}.{name}")
    solver = importlib.import_module(f"{spans.PACKAGE}.solver")
    trigbary = importlib.import_module(f"{spans.PACKAGE}.trigbary")
    x = trigbary.TWO_PI * np.arange(200) / 200
    samples = trigbary.SampleSet.from_data(x, np.exp(np.sin(x)))
    tracer = spans.Tracer()
    tracer.install()
    try:
        solver.fit(samples, solver.FitConfig())
    finally:
        tracer.uninstall()
    fits = [i for i, s in enumerate(tracer.spans) if s[0] == "solver.fit"]
    cleanups = [s for s in tracer.spans if s[0] == "solver.cleanup"]
    assert len(fits) == 1
    assert len(cleanups) == 1
    assert cleanups[0][3] == fits[0]


def test_benchmark_selftest_passes():
    # Every workload at --size tiny, the verdict logic and the missing-package
    # exit; its files go to the git-ignored .perfbench_work/ and .perfbench_out/.
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert done.stdout.splitlines()[-1] == "selftest: ok"
