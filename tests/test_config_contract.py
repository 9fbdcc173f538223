"""One config contract: the CLI reads each config section through its table
(``cli._SECTIONS``), and the section's builder, a dataclass or a check of
the library, holds every type and range rule.  So the API raises exactly
where the CLI exits 2, a string or boolean in a numeric field is refused by
both, and README.md documents exactly the fields of the tables."""

import contextlib
import io
import json
import math
import pathlib
import re
import tempfile

import numpy as np
import pytest

from vvrkbs import cli
from vvrkbs.dual_pair import DualPairSpec
from vvrkbs.feature import FeatureMap
from vvrkbs.operator_learning import SampledMeasurement, hyper_fit
from vvrkbs.solver import FitOptions, Problem, fit, identity_measurement, product_grid

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
DATA = "x0,y0,y1\n0.1,0.9,-0.3\n-0.4,0.2,0.8\n0.7,-0.5,0.1\n"
X = np.array([[0.1], [-0.4], [0.7]])
Y = np.array([[0.9, -0.3], [0.2, 0.8], [-0.5, 0.1]])

FEATURE = {"kind": "neural", "dx": 1, "radius": 1.5, "beta": "one", "activation": "tanh"}
PSI = {"kind": "neural", "dx": 1, "radius": 1.2, "beta": "one", "activation": "sigmoid"}
# free search, so a solver option no grid run reads (restarts) is read here
SOLVER = {"lambda": 0.05, "mode": "group", "max_atoms": 3, "restarts": 1, "tol": 1e-3,
          "seed": 0, "refit": {"max_iter": 100, "tol": 1e-8}}
FIT = {"feature": FEATURE, "space": {"d": 2, "norm": "l2"}, "solver": SOLVER,
       "oracle": {"grid_per_dim": 3}}
HYPER = {"phi": FEATURE, "psi": PSI, "space": {"d": 2, "norm": "l2"},
         "sampling": {"points": [[0.2], [-0.5]], "functionals": [[1.0, 0.0], [0.5, -1.0]]},
         "solver": SOLVER,
         "grids": {"w": [[0.5, 0.1], [-0.4, 0.3]], "theta": [[0.2, -0.1], [-0.3, 0.4]]}}


def _run(command, config):
    """Exit code and stderr of ``command`` on ``config`` and the fixed data,
    files in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp)
        (path / "cfg.json").write_text(json.dumps(config))
        (path / "data.csv").write_text(DATA)
        argv = [command, "--config", str(path / "cfg.json"), "--data", str(path / "data.csv")]
        if command != "oracle":
            argv += ["--out", str(path / "out.json")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            return cli.main(argv), err.getvalue()


def _set(doc, path, value):
    """A copy of ``doc`` with the entry at dotted ``path`` set to ``value``;
    a number indexes a list."""
    doc = json.loads(json.dumps(doc))
    *outer, last = path.split(".")
    held = doc
    for part in outer:
        held = held[int(part)] if isinstance(held, list) else held[part]
    held[int(last) if isinstance(held, list) else last] = value
    return doc


def _api_solver(s):
    # the options FitOptions holds, lam through the Problem and fit's check
    FitOptions(max_atoms=s["max_atoms"], mode=s["mode"], restarts=s["restarts"], tol=s["tol"],
               seed=s["seed"], refit_max_iter=s["refit"]["max_iter"],
               refit_tol=s["refit"]["tol"])
    if s.get("grid_per_dim") is not None:
        product_grid(1.5, 2, s["grid_per_dim"])
    problem = Problem(X, Y, identity_measurement(), s["lambda"],
                      FeatureMap(**FEATURE), DualPairSpec(2))
    fit(problem, FitOptions(max_atoms=1, restarts=1))


def _api_grids(s):
    sampling = SampledMeasurement([[0.2], [-0.5]], [[1.0, 0.0], [0.5, -1.0]])
    hyper_fit(X, Y, sampling, FeatureMap(**FEATURE), FeatureMap(**PSI), DualPairSpec(2), 0.05,
              FitOptions(max_atoms=3, restarts=1), s.get("w"), s.get("theta"))


# (command that reads the section, base config, the API call on the section)
SECTIONS = {
    "feature": ("fit", FIT, lambda s: FeatureMap(**s)),
    "space": ("fit", FIT, lambda s: DualPairSpec(s["d"], s["norm"])),
    "solver": ("fit", FIT, _api_solver),
    "oracle": ("oracle", FIT, lambda s: product_grid(1.5, 2, s["grid_per_dim"])),
    "phi": ("hyper-fit", HYPER, lambda s: FeatureMap(**s)),
    "psi": ("hyper-fit", HYPER, lambda s: FeatureMap(**s)),
    "sampling": ("hyper-fit", HYPER, lambda s: SampledMeasurement(s["points"], s["functionals"])),
    "grids": ("hyper-fit", HYPER, _api_grids),
}
ELEMENTS = ["sampling.points.1.0", "sampling.functionals.0.1", "grids.w.0.1", "grids.theta.1.0"]
BAD = ["2.0", True, False, None, 1.5, 2.5, 0, -1, math.nan, math.inf, -math.inf]
FIELDS = [f"{name}.{path}" for name, (_, table) in cli._SECTIONS.items() for path in table]
NOT_SCALARS = {"kind", "beta", "activation", "x_grid", "w_grid", "values", "norm", "mode",
               "points", "functionals", "w", "theta"}


def test_the_tables_cover_every_section_the_commands_read():
    assert set(SECTIONS) == set(cli._SECTIONS)


@pytest.mark.parametrize("value", BAD, ids=repr)
@pytest.mark.parametrize("field", FIELDS + ELEMENTS)
def test_the_api_raises_exactly_where_the_cli_exits_2(field, value):
    name = field.split(".")[0]
    command, base, api = SECTIONS[name]
    config = _set(base, field, value)
    try:
        api(config[name])
        raised = False
    except (TypeError, ValueError, OverflowError):
        raised = True
    code, err = _run(command, config)
    assert (code == 2) == raised
    if isinstance(value, (str, bool)):  # never a number, whatever the field
        assert raised
    if raised and field in FIELDS and field.split(".")[-1] not in NOT_SCALARS:
        assert f": {field} " in err  # a numeric scalar's message names its JSON path


# The configs that ran and exited 0 before the dataclasses held the rules,
# in every command that reads the field.
REFUSED = [
    *((c, "solver.lambda", v) for c in ("fit", "oracle", "hyper-fit") for v in ("0.05", True)),
    *((c, "solver.restarts", 0) for c in ("fit", "oracle", "hyper-fit")),
    *((c, "feature.radius", "2.0") for c in ("fit", "oracle")),
    ("hyper-fit", "phi.radius", "2.0"), ("hyper-fit", "psi.radius", "2.0"),
    ("hyper-fit", "grids.w.0.0", "0.5"), ("hyper-fit", "sampling.points.0.0", True),
]


@pytest.mark.parametrize("command, field, value", REFUSED)
def test_strings_booleans_and_zero_restarts_exit_2(command, field, value):
    base = _set(HYPER if command == "hyper-fit" else FIT, "solver.grid_per_dim", 3)
    assert _run(command, _set(base, field, value))[0] == 2


HEADER = ["type", "range", "default", "read by"]


def _readme_tables():
    """(section, key) of every row of README's config tables, whose header
    names the sections in its first cell, such as `solver` key."""
    rows, sections = set(), None
    for line in README.read_text().splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")] if line.startswith("|") else []
        if cells and cells[0].endswith(" key") and cells[1:] == HEADER:
            sections = re.findall(r"`(\w+)`", cells[0])
        elif cells and sections and not set(cells[0]) <= set("- "):
            rows |= {(s, cells[0].strip("`")) for s in sections}
        elif not cells:
            sections = None
    return rows


def test_readme_tables_list_exactly_the_fields_of_the_cli_tables():
    fields = {(name, path) for name, (_, table) in cli._SECTIONS.items() for path in table}
    assert _readme_tables() == fields


def test_every_readme_config_example_passes_the_config_reader():
    examples = []
    for block in re.findall(r"```json\n(.*?)```", README.read_text(), re.S):
        try:
            doc = json.loads(block)
        except json.JSONDecodeError:
            continue  # a report or an elided shape, such as {...}
        if isinstance(doc, dict) and set(doc) <= set(cli._SECTIONS):
            examples.append(doc)
    assert len(examples) >= 2
    for doc in examples:
        built = {}
        for name in doc:
            context = {"phi": built["phi"], "psi": built["psi"]} if name == "grids" else {}
            built[name] = cli._section(doc, name, "README example", **context)
