import sys
from pathlib import Path

import pytest

from paramregions import geometry

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def no_library_lp(monkeypatch):
    """Fails the test when the library code it calls runs an LP (the
    kernel `geometry._solve_raw`).  The nearest caller outside the library
    decides: an oracle of `oracles.py` may run LPs, through the library's
    `solve_lp` or not, and the test itself may not."""
    solve = geometry._solve_raw

    def guarded(*args):
        frame = sys._getframe(1)
        while frame.f_globals.get("__name__", "").startswith("paramregions."):
            frame = frame.f_back
        if frame.f_globals.get("__name__") != "oracles":
            raise AssertionError("the library ran an LP")
        return solve(*args)

    monkeypatch.setattr(geometry, "_solve_raw", guarded)
