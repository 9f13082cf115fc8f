"""The names the benchmark's tracer binds all exist in heightlab.

``bench/tracer.py`` wraps heightlab functions by their dotted names, so
renaming or deleting one of them in ``src/`` breaks every traced
benchmark run.  This loads the tracer by path, without installing it,
and resolves each name the way ``Tracer.install`` does.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from mpmath import workdps

from heightlab import cmlab, heights, numcore, towers

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(path: str):
    """(object, attribute) for 'module.name' or 'module.Class.name'."""
    mod, *rest = path.split(".")
    obj = importlib.import_module(f"heightlab.{mod}")
    for part in rest[:-1]:
        obj = getattr(obj, part)
    return obj, rest[-1]


def test_every_traced_name_resolves():
    tracer = _tracer()
    for name in tracer.SPANS + tracer.COUNTERS:
        obj, attr = _owner(name)
        assert callable(vars(obj).get(attr)), name
    for name, methods in tracer.BALL_OPS.items():
        cls, _ = _owner(name + ".method")
        for meth in methods:
            assert callable(vars(cls).get(meth)), f"{name}.{meth}"
    # rebound to observe root isolation; read as the second argument
    assert callable(numcore.workdps)
    assert list(inspect.signature(heights.LogCombination.interval).parameters) == ["self", "dps"]


def test_identities_the_benchmark_asserts():
    assert cmlab._ulp_slop is heights._ulp_slop is numcore._ulp_slop
    assert heights.is_prime is towers.is_prime is numcore.is_prime


def _count_cm_kernels(monkeypatch) -> dict:
    """Patch every traced cmlab counter to count its calls into the
    returned dict, keyed by attribute name."""
    counts = {}
    for name in _tracer().COUNTERS:
        obj, attr = _owner(name)
        if obj is not cmlab:
            continue

        def counted(*args, _fn=getattr(cmlab, attr), _attr=attr):
            counts[_attr] = counts.get(_attr, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(cmlab, attr, counted)
    return counts


def test_cm_counters_count_the_j_kernel(monkeypatch):
    # the tracer counts calls through the module attributes, so a kernel
    # reached any other way would read 0 calls on a traced run
    counts = _count_cm_kernels(monkeypatch)
    with workdps(40):
        cmlab._j_at(cmlab._theta_nulls(cmlab._cm_nome(cmlab.reduced_forms(-23)[1])))
    assert counts == {"_theta_nulls": 1, "_eisenstein_e4": 1}


def test_cm_record_sums_one_theta_series_per_form(monkeypatch):
    # h(-23) = 3: j, the Faltings term and the theta term of each form
    # come from one theta series, with no pentagonal series beside it,
    # and the conjugate pair (2, +-1, 3) shares the series of (2, 1, 3)
    counts = _count_cm_kernels(monkeypatch)
    cmlab.cm_record(-23, 24)
    assert counts == {"_theta_nulls": 2, "_eisenstein_e4": 2}


def test_class_poly_sums_one_theta_series_per_pair(monkeypatch):
    # h(-23) = 3: the conjugate pair (2, +-1, 3) shares the series of
    # (2, 1, 3), but each form still gets its own j, so E4 three times
    counts = _count_cm_kernels(monkeypatch)
    cmlab.hilbert_class_poly(-23)
    assert counts == {"_theta_nulls": 2, "_eisenstein_e4": 3}


def test_root_isolation_opens_the_module_workdps(monkeypatch):
    # the tracer reads numcore._dk_roots.max_digits from the
    # numcore.workdps blocks opened while _dk_roots is the innermost call
    running, opened = [], []
    dk_roots, module_workdps = numcore._dk_roots, numcore.workdps

    def traced_dk_roots(*args):
        running.append(True)
        try:
            return dk_roots(*args)
        finally:
            running.pop()

    def traced_workdps(n, *args, **kwargs):
        if running:
            opened.append(n)
        return module_workdps(n, *args, **kwargs)

    monkeypatch.setattr(numcore, "_dk_roots", traced_dk_roots)
    monkeypatch.setattr(numcore, "workdps", traced_workdps)
    numcore.poly_roots(numcore.IntPoly([-2, 0, 1]), 30)
    assert opened and max(opened) == 60
