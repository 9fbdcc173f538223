"""The traced benchmark run re-binds package functions by module and name
(``perfbench/tracing.py``); a refactor must keep every one of them."""

import importlib
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing() -> dict:
    # executed from its source text, so nothing is written next to it
    namespace = {"__name__": "bench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace


def test_traced_entry_points_resolve():
    tracing = _load_tracing()
    names = [(mod, fn) for mod, fn, _, _ in tracing["ENTRY_POINTS"]] + [tracing["PROX"]]
    assert len(names) > 20
    for mod, fn in names:
        module = importlib.import_module(f"vvrkbs.{mod}")
        assert callable(getattr(module, fn, None)), f"vvrkbs.{mod}.{fn} is missing"
