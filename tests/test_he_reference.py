"""The committed helium study: its fit and band follow from its energies
by the generator's own rule (``tools/he_reference.py``), without solving."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def generator():
    spec = importlib.util.spec_from_file_location("he_reference",
                                                  REPO / "tools" / "he_reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_fit_and_band_follow_from_the_energies(generator):
    committed = json.loads(generator.REFERENCE.read_text())
    fit, band = generator.fit_and_band(
        {n: committed["grids"][str(n)]["total_energy"] for n in generator.GRIDS}
    )
    for part, recomputed in (("fit", fit), ("band", band)):
        assert recomputed.keys() == committed[part].keys()
        for key, value in recomputed.items():
            assert value == pytest.approx(committed[part][key], rel=0, abs=1e-12), (part, key)
