import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# Extra arguments per demo: one seed keeps the float-linkage table about a second.
ARGS = {"linkage_benchmark_table.py": ["1"]}


@pytest.mark.parametrize(
    "demo",
    [
        "alignment_parameter_regions.py",
        "clustering_linkage_regions.py",
        "tariff_revenue_regions.py",
        "linkage_benchmark_table.py",
    ],
)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo), *ARGS.get(demo, [])],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_readme_quick_start_runs_and_states_its_results(capsys):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    scope = {}
    exec(compile(block, "README.md Quick start", "exec"), scope)
    (alpha,) = scope["rho"]
    assert scope["loss"] == 0 and alpha < Fraction(2, 5)
    assert len(scope["partition"].regions) == 2
    assert len(capsys.readouterr().out.splitlines()) == 2  # one line per alignment
    assert len(scope["regions"].cells) == 3
    assert scope["revenue"] == 5
