import os
import subprocess
import sys
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
