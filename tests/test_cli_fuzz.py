"""Property tests: no config, model, DeepONet or CSV data file reaches a traceback.

Every file the CLI reads must end in a documented exit code (0-4), with
diagnostics on stderr.  The `fit`, `oracle` and `hyper-fit` config draws
take their keys from the CLI's section tables (``cli._SECTIONS``), down to
every array element, with values of every JSON kind: strings, booleans,
fractions, NaN and infinities, which Python's json module reads and writes.
The keys that size the work (grid_per_dim, max_atoms,
refit.max_iter) are capped and never dropped one by one, so one example
runs in milliseconds and the test stays bounded.  The `predict` model and
the `deeponet` data hold no such key: any entry may take any value or be
dropped.  The `hyper-fit` sections that
describe the problem (phi, psi, space, sampling, grids) and the CSV data of
`fit` and `predict` also draw integers no float holds and ragged or too
deep lists, or ragged rows and non-numeric cells.
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings, strategies as st

from vvrkbs import cli
from vvrkbs.cli import main

# a fixed 12-row dataset, x0 in [-1, 1], two smooth targets
DATA = "x0,y0,y1\n" + "".join(
    f"{x!r},{math.sin(2.0 * x)!r},{0.5 * math.cos(3.0 * x)!r}\n"
    for x in (-1.0 + 2.0 * i / 11 for i in range(12))
)

# Each example changes up to three entries of a working document.  In a
# config an entry of CAPS sizes the work and keeps its numbers at or below
# the cap; it is never dropped, since its default (50 atoms,
# 5000 refit iterations, free search) is far more work.
CAPS = {"solver.grid_per_dim": 4, "solver.max_atoms": 5, "solver.refit.max_iter": 200}

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


def _table_paths(doc, sections):
    """Dotted paths into ``sections`` of config ``doc``: each section, each
    object a table path nests in, each table path, and every element of an
    array that ``doc`` holds at one."""
    def walk(path, value):
        yield path
        if isinstance(value, list):
            for i, item in enumerate(value):
                yield from walk(f"{path}.{i}", item)

    paths = []
    for name in sections:
        paths.append(name)
        for key in cli._SECTIONS[name][1]:
            *outer, _ = key.split(".")
            paths += [f"{name}.{part}" for part in outer]
            value = doc[name]
            for part in key.split("."):
                value = value.get(part) if isinstance(value, dict) else None
            paths += walk(f"{name}.{key}", value)
    return list(dict.fromkeys(paths))


def _run(command, files, out=None, data_text=DATA):
    """Run the command on ``files`` ({flag: JSON document}) and ``data_text``,
    written to a fresh directory, with ``--out`` there if given; returns
    (exit code, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        args = [command]
        for flag, doc in files.items():
            path = os.path.join(tmp, f"{flag}.json")
            with open(path, "w") as fh:
                fh.write(json.dumps(doc))
            args += [f"--{flag}", path]
        if command != "deeponet":  # deeponet's --data is its JSON file
            data = os.path.join(tmp, "data.csv")
            with open(data, "w") as fh:
                fh.write(data_text)
            args += ["--data", data]
        if out is not None:
            args += ["--out", os.path.join(tmp, out)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(args)
    return rc, err.getvalue()


def _slot(section, name):
    """The key or list index that ``name`` names in ``section``, or None."""
    if isinstance(section, dict) and name in section:
        return name
    if isinstance(section, list) and name.isdigit() and int(name) < len(section):
        return int(name)
    return None


@st.composite
def _edited(draw, doc, keys, values=None):
    """``doc`` with up to three of ``keys`` (dotted paths, a number indexes a
    list) set to any JSON value (or one of ``values``) or dropped; NaN and
    infinities are drawn often, since one in a count or a size must still
    exit 2.  A key an object lacks is added; a key of CAPS takes a number at
    or below its cap and is never dropped."""
    doc = json.loads(json.dumps(doc))
    for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3,
                             unique=True)):
        *path, last = key.split(".")
        section = doc
        for name in path:
            slot = _slot(section, name)
            section = None if slot is None else section[slot]
        slot = last if isinstance(section, dict) else _slot(section, last)
        if slot is None:
            continue  # an earlier change replaced or dropped the entry
        if key in CAPS:
            value = draw(_values(CAPS[key]))
        else:
            value = draw(st.one_of(st.just(DROP), SPECIAL,
                                   _values() if values is None else values))
        if value is not DROP:
            section[slot] = value
        elif isinstance(section, list) or slot in section:
            del section[slot]
    return doc


FIT_SECTIONS = ("feature", "space", "solver")
FIT_BASES = [
    {"feature": {"kind": kind, "dx": 1, "radius": 1.5, "beta": "one", **extra},
     "space": {"d": 2, "norm": "l2"},
     "solver": {"lambda": 0.05, "max_atoms": 3, "tol": 1e-3,
                "seed": 0, "grid_per_dim": 3, "refit": {"max_iter": 100, "tol": 1e-8}}}
    for kind, extra in [("neural", {"activation": "tanh"}),
                        ("tabulated", {"x_grid": [-1.0, 0.0, 1.0], "w_grid": [-1.5, 1.5],
                                       "values": [[0.0, 1.0], [1.0, 0.5], [0.2, 0.3]]})]
]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(command=st.sampled_from(["fit", "oracle"]),
       config=st.sampled_from(FIT_BASES).flatmap(
           lambda base: _edited(base, _table_paths(base, FIT_SECTIONS))))
def test_solver_and_oracle_configs_never_raise(command, config):
    rc, err = _run(command, {"config": config},
                   out="model.json" if command == "fit" else None)
    assert rc in (0, 1, 2, 3, 4)
    assert "Traceback" not in err


FEATURE = {"kind": "neural", "dx": 1, "radius": 1.5, "beta": "one",
           "activation": "tanh"}
PREDICT_CONFIG = {"feature": FEATURE, "space": {"d": 2, "norm": "l2"}}
MODEL = {"atoms": [{"w": [0.3, -0.2], "c": [1.0, 0.5]},
                   {"w": [-0.4, 0.1], "c": [-0.7, 0.2]}],
         "norm": "l2", "radius": 1.5, "dim": 2, "feature": FEATURE}
MODEL_KEYS = ["atoms", "atoms.0", "atoms.0.w", "atoms.0.c", "atoms.1.w",
              "atoms.1.c", "norm", "radius", "dim", "feature", "feature.kind",
              "feature.dx", "feature.radius", "feature.beta", "feature.activation"]

DEEPONET_CONFIG = {"phi": FEATURE}
BASIS = {"atoms": [{"w": [0.1, 0.2], "c": [1.0, -0.5]},
                   {"w": [-0.3, 0.4], "c": [0.2, 0.7]}],
         "norm": "l2", "radius": 1.2, "dim": 2}
DEEPONET_DATA = {
    "psi": {"kind": "neural", "dx": 1, "radius": 1.2, "beta": "smooth_bump",
            "activation": "sigmoid"},
    "basis": [BASIS, BASIS],
    "coeffs": [[[0.8, [0.1, -0.2]]], [[-0.6, [0.4, 0.3]], [0.5, [0.0, 0.2]]]],
}
DEEPONET_KEYS = [
    "psi", "psi.kind", "psi.dx", "psi.radius", "psi.beta", "psi.activation",
    "basis", "basis.0", "basis.0.atoms", "basis.0.atoms.0", "basis.0.atoms.0.w",
    "basis.0.atoms.0.c", "basis.0.norm", "basis.0.radius", "basis.0.dim",
    "basis.1.dim", "coeffs", "coeffs.0", "coeffs.0.0", "coeffs.0.0.0",
    "coeffs.0.0.1", "coeffs.1.1.1",
]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(model=_edited(MODEL, MODEL_KEYS))
def test_predict_model_files_never_raise(model):
    rc, err = _run("predict", {"config": PREDICT_CONFIG, "model": model},
                   out="preds.csv")
    assert rc in (0, 1, 2, 3, 4)
    assert "Traceback" not in err


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(payload=_edited(DEEPONET_DATA, DEEPONET_KEYS))
def test_deeponet_data_files_never_raise(payload):
    rc, err = _run("deeponet", {"config": DEEPONET_CONFIG, "data": payload},
                   out="model.json")
    assert rc in (0, 1, 2, 3, 4)
    assert "Traceback" not in err


# integers beyond every float and C integer; lists ragged or one level too deep
HUGE = st.sampled_from([10**400, -10**400, 2**64])
SHAPES = st.sampled_from([[[0.1, 0.2], [0.3]], [[[0.1, 0.2]]], [[]], []])

# CAPS keeps the solver small, so a dropped grid means a bounded free search.
HYPER_CONFIG = {
    "phi": FEATURE,
    "psi": {"kind": "neural", "dx": 1, "radius": 1.2, "beta": "one",
            "activation": "sigmoid"},
    "space": {"d": 2, "norm": "l2"},
    "sampling": {"points": [[0.2], [-0.5]], "functionals": [[1.0, 0.0], [0.5, -1.0]]},
    "solver": {"lambda": 0.05, "max_atoms": 3, "tol": 1e-3,
               "seed": 0, "refit": {"max_iter": 100, "tol": 1e-8}},
    "grids": {"w": [[0.5, 0.1], [-0.4, 0.3]], "theta": [[0.2, -0.1], [-0.3, 0.4]]},
}
HYPER_KEYS = _table_paths(HYPER_CONFIG, ("phi", "psi", "space", "sampling", "grids", "solver"))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(config=_edited(HYPER_CONFIG, HYPER_KEYS, st.one_of(_values(), HUGE, SHAPES)))
def test_hyper_fit_configs_never_raise(config):
    rc, err = _run("hyper-fit", {"config": config}, out="model.json")
    assert rc in (0, 1, 2, 3, 4)
    assert "Traceback" not in err


FIT_CONFIG = {
    "feature": FEATURE, "space": {"d": 2, "norm": "l2"},
    "solver": {"lambda": 0.05, "max_atoms": 3, "grid_per_dim": 3,
               "refit": {"max_iter": 100}},
}
CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", " ", "x", "nan", "-Infinity", "1e999", str(10**400),
                     "[[0.1]]", "x0", "y1", "0.5"]),
)


@st.composite
def _csv_text(draw):
    """DATA with up to three edits, the header being row 0: a cell set to any
    text, a row cut short or grown by a cell, or a row dropped."""
    rows = [line.split(",") for line in DATA.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["set", "cut", "grow", "drop"]))
        if edit == "drop":
            del rows[i]
        elif edit == "cut":
            del rows[i][draw(st.integers(0, len(rows[i]))):]
        elif edit == "grow":
            rows[i].append(draw(CELLS))
        elif rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(CELLS)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(command=st.sampled_from(["fit", "predict"]), data_text=_csv_text())
def test_fit_and_predict_csv_files_never_raise(command, data_text):
    files = ({"config": FIT_CONFIG} if command == "fit"
             else {"config": PREDICT_CONFIG, "model": MODEL})
    rc, err = _run(command, files, out="out", data_text=data_text)
    assert rc in (0, 1, 2, 3, 4)
    assert "Traceback" not in err
