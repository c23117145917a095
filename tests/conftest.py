import sys
from pathlib import Path

import pytest

from paramregions import geometry

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def no_interior_lp(monkeypatch):
    """Fails the test on any interior-point LP."""

    def forbidden(*args):
        raise AssertionError("an interior-point LP ran")

    monkeypatch.setattr(geometry, "_interior_point_rows", forbidden)
