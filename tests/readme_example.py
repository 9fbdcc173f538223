"""README's example config and a small seeded dataset for it.

``python tests/readme_example.py DIR`` writes DIR/config.json, the config
README shows under `fit`, and DIR/train.csv, 12 rows drawn with seed 0, on
which `vvrkbs fit`, `oracle` and `predict` run and exit 0.
"""

import json
import math
import pathlib
import re
import sys

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def config() -> dict:
    """The first JSON block of README's `fit` section."""
    fit_section = README.read_text().split("\n### fit\n", 1)[1]
    return json.loads(re.search(r"```json\n(.*?)```", fit_section, re.S).group(1))


def write(directory) -> tuple:
    """Writes config.json and train.csv to ``directory``; returns their paths."""
    directory = pathlib.Path(directory)
    x = np.random.default_rng(0).uniform(-1.0, 1.0, 12).tolist()
    rows = ["x0,y0,y1", *(f"{a!r},{math.sin(2.0 * a)!r},{0.5 * math.cos(3.0 * a)!r}" for a in x)]
    (directory / "config.json").write_text(json.dumps(config()))
    (directory / "train.csv").write_text("\n".join(rows) + "\n")
    return str(directory / "config.json"), str(directory / "train.csv")


if __name__ == "__main__":
    write(sys.argv[1])
