"""The README's library quick start runs as written, the solver defaults
it states are ``SweepConfig``'s, and the names it gives exist."""

import pathlib
import re

import oracles
import ttkit
from ttkit import SweepConfig

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks, "README has no python block"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})


def test_readme_solver_defaults_are_the_sweep_config_defaults():
    text = " ".join(README.read_text().split())  # sentences run across lines
    config = SweepConfig()
    flags = re.search(r"Shared solver flags: `--tol` \(default (\S+)\), `--max-sweeps` \((\d+)\), `--seed` \((\d+)\)", text)
    assert flags, "README lost its line of shared solver flags"
    assert (float(flags[1]), int(flags[2]), int(flags[3])) == (config.tol, config.max_sweeps, config.seed)
    tol = re.search(r"One tolerance, `tol` \(default ([^;)]+);", text)
    assert tol, "README lost the default of the solvers' tolerance"
    assert float(tol[1]) == config.tol


def test_readme_names_only_what_exists():
    # every ttkit.X / tk.X the README names is in the package, and every
    # helper its "Tests" section lists as test-only is in tests/oracles.py
    text = README.read_text()
    named = set(re.findall(r"\b(?:ttkit|tk)\.([A-Za-z_]\w*)", text))
    assert {"tt_svd", "plan_auto", "dequantize"} <= named
    assert sorted(name for name in named if not hasattr(ttkit, name)) == []
    tests = text.split("\n## Tests\n", 1)[1]
    listed = re.search(r"only tests use:(.*?)\.\s", tests, re.DOTALL)
    assert listed, "README lost its list of test-only helpers"
    helpers = re.findall(r"`(\w+)`(?:,| \()", listed[1])  # the list's items, not its prose
    assert {"random_mpo", "block_container"} <= set(helpers)
    assert sorted(name for name in helpers if not callable(getattr(oracles, name, None))) == []
