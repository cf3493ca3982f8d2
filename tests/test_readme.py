"""The README's library quick start runs as written, and the solver
defaults it states are ``SweepConfig``'s."""

import pathlib
import re

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
