"""Property test: no `solver` / `oracle` config reaches a traceback.

Every config the CLI reads must end in a documented exit code (0-4), with
diagnostics on stderr.  The draws cover the documented keys with values of
every JSON kind, including NaN and infinities, which Python's json module
reads and writes.  The keys that size the work (grid_per_dim, max_atoms,
restarts, refit.max_iter) are capped and never dropped one by one, so one
example runs in milliseconds and the test stays bounded.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings, strategies as st

from vvrkbs.cli import main

# a fixed 12-row dataset, x0 in [-1, 1], two smooth targets
DATA = "x0,y0,y1\n" + "".join(
    f"{x!r},{math.sin(2.0 * x)!r},{0.5 * math.cos(3.0 * x)!r}\n"
    for x in (-1.0 + 2.0 * i / 11 for i in range(12))
)

# Each example changes up to three entries of a working config.  An entry of
# CAPS sizes the work and keeps its numbers at or below the cap; it is never
# dropped, since its default (50 atoms, 32 restarts, 5000 refit iterations,
# free search) is far more work.
CAPS = {"solver.grid_per_dim": 4, "solver.max_atoms": 5, "solver.restarts": 2,
        "solver.refit.max_iter": 200, "oracle.grid_per_dim": 4}
DROPPABLE = ["solver.lambda", "solver.mode", "solver.tol", "solver.seed",
             "solver.refit.tol"]
WHOLE = ["solver.refit", "oracle"]

STRINGS = st.sampled_from(["", "x", "group", "l1", "2", "-1", "nan", "inf", "1e3"])
SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf])
DROP = object()


def _values(cap=None):
    """Any JSON value; numbers stay at or below ``cap`` when one is given."""
    if cap is None:
        floats = st.floats(allow_nan=True, allow_infinity=True)
    else:
        floats = st.one_of(st.floats(-3.0, cap + 0.99), SPECIAL)
    return st.one_of(
        st.integers(-3, 4 if cap is None else cap),
        floats,
        STRINGS,
        st.none(),
        st.booleans(),
        st.lists(st.integers(-3, 4), max_size=3),
        st.dictionaries(st.sampled_from(["tol", "max_iter", "x"]), st.integers(-3, 4),
                        max_size=2),
    )


@st.composite
def _config(draw):
    config = {
        "feature": {"kind": "neural", "dx": 1, "radius": 1.5, "beta": "one",
                    "activation": "tanh"},
        "space": {"d": 2, "norm": "l2"},
        "solver": {"lambda": 0.05, "mode": "group", "max_atoms": 3, "restarts": 1,
                   "tol": 1e-3, "seed": 0, "grid_per_dim": 3,
                   "refit": {"max_iter": 100, "tol": 1e-8}},
        "oracle": {"grid_per_dim": 3},
    }
    keys = draw(st.lists(st.sampled_from(list(CAPS) + DROPPABLE + WHOLE),
                         min_size=1, max_size=3, unique=True))
    for key in keys:
        *path, last = key.split(".")
        section = config
        for name in path:
            section = section.get(name) if isinstance(section, dict) else None
        if not isinstance(section, dict):
            continue  # an earlier change replaced the enclosing section
        if key in DROPPABLE:
            value = draw(st.one_of(st.just(DROP), _values()))
        else:
            value = draw(_values(CAPS.get(key)))
        if value is DROP:
            del section[last]
        else:
            section[last] = value
    return config


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(command=st.sampled_from(["fit", "oracle"]), config=_config())
def test_solver_and_oracle_configs_never_raise(command, config):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "config.json")
        data = os.path.join(tmp, "data.csv")
        with open(cfg, "w") as fh:
            fh.write(json.dumps(config))
        with open(data, "w") as fh:
            fh.write(DATA)
        args = [command, "--config", cfg, "--data", data]
        if command == "fit":
            args += ["--out", os.path.join(tmp, "model.json")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(args)
    assert rc in (0, 1, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
