"""The benchmark's tracer wraps named functions of the package from
outside; every name it patches must still exist under `src/`."""

import importlib.util
import os

from combwalks import cli, graphs, oracle, rng, sampler

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_installs_and_restores():
    modules = (cli, graphs, oracle, rng, sampler, oracle.Kernel,
               rng.RngStream)
    before = [dict(vars(m)) for m in modules]
    tr = _load_tracer().Tracer()
    try:
        tr.install()
        patched = len(tr._undo)
    finally:
        tr.restore()
    assert patched > 0
    assert [dict(vars(m)) for m in modules] == before
