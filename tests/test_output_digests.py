"""The digest tool's summary hashing: only the wall_seconds line is left
out (``tools/output_digests.py``)."""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

SUMMARY = (b"converged = True\n"
           b"total_energy = -2.7385463063549289\n"
           b"wall_seconds = 1.1\n"
           b"bound_checks_pass = True\n")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("output_digests",
                                                  REPO / "tools" / "output_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summaries_that_differ_only_in_wall_seconds_hash_equal(tool):
    slower = SUMMARY.replace(b"wall_seconds = 1.1", b"wall_seconds = 17.3")
    assert tool.digest("summary.txt", slower) == tool.digest("summary.txt", SUMMARY)
    without = SUMMARY.replace(b"wall_seconds = 1.1\n", b"")
    assert tool.digest("summary.txt", without) == tool.digest("summary.txt", SUMMARY)


@pytest.mark.parametrize("changed", [
    SUMMARY.replace(b"-2.7385463063549289", b"-2.7385463063549288"),
    SUMMARY.replace(b"converged = True", b"converged = False"),
    SUMMARY.replace(b"wall_seconds", b"wall_second"),
    SUMMARY + b"\n",
    SUMMARY.replace(b"bound_checks_pass = True\n", b""),
])
def test_any_other_difference_changes_the_summary_hash(tool, changed):
    assert tool.digest("summary.txt", changed) != tool.digest("summary.txt", SUMMARY)
