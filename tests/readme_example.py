"""README's example configs and small seeded datasets for them.

``python tests/readme_example.py DIR`` writes DIR/config.json, the config
README shows under `fit`, and DIR/train.csv, 12 rows drawn with seed 0, on
which `vvrkbs fit`, `oracle` and `predict` run and exit 0; and
DIR/hyper.json, the config README shows under `hyper-fit`, and
DIR/tasks.csv, 12 task inputs drawn with seed 0, on which `vvrkbs
hyper-fit` runs and exits 0; and DIR/deeponet.json and DIR/basis.json, the
config and data README shows under `deeponet`, on which `vvrkbs deeponet`
runs and exits 0.
"""

import json
import math
import pathlib
import re
import sys

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def config(command: str = "fit", block: int = 0) -> dict:
    """JSON block ``block`` (the first by default) of README's section on
    ``command``."""
    section = README.read_text().split(f"\n### {command}\n", 1)[1]
    return json.loads(re.findall(r"```json\n(.*?)```", section, re.S)[block])


def _inputs() -> list:
    return np.random.default_rng(0).uniform(-1.0, 1.0, 12).tolist()


def write(directory) -> tuple:
    """Writes config.json and train.csv to ``directory``; returns their paths."""
    directory = pathlib.Path(directory)
    rows = ["x0,y0,y1", *(f"{a!r},{math.sin(2.0 * a)!r},{0.5 * math.cos(3.0 * a)!r}"
                          for a in _inputs())]
    (directory / "config.json").write_text(json.dumps(config()))
    (directory / "train.csv").write_text("\n".join(rows) + "\n")
    return str(directory / "config.json"), str(directory / "train.csv")


def write_hyper(directory) -> tuple:
    """Writes hyper.json and tasks.csv, with targets tanh(z) and 0.5 sin(2z) at
    the two sampling points, to ``directory``; returns their paths."""
    directory = pathlib.Path(directory)
    rows = ["x0,y0,y1", *(f"{z!r},{math.tanh(z)!r},{0.5 * math.sin(2.0 * z)!r}"
                          for z in _inputs())]
    (directory / "hyper.json").write_text(json.dumps(config("hyper-fit")))
    (directory / "tasks.csv").write_text("\n".join(rows) + "\n")
    return str(directory / "hyper.json"), str(directory / "tasks.csv")


def write_deeponet(directory) -> tuple:
    """Writes deeponet.json and basis.json to ``directory``; returns their paths."""
    directory = pathlib.Path(directory)
    (directory / "deeponet.json").write_text(json.dumps(config("deeponet")))
    (directory / "basis.json").write_text(json.dumps(config("deeponet", 1)))
    return str(directory / "deeponet.json"), str(directory / "basis.json")


if __name__ == "__main__":
    write(sys.argv[1])
    write_hyper(sys.argv[1])
    write_deeponet(sys.argv[1])
