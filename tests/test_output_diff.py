"""The output-tree comparison of ``tools/output_diff.py`` on two small
synthetic trees laid out as ``tools/output_digests.py`` writes them."""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("output_diff",
                                                  REPO / "tools" / "output_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root, history, summary, extra=None):
    scf = root / "he" / "scf"
    scf.mkdir(parents=True)
    (root / "he" / "scf.stdout").write_text(summary)
    (scf / "scf_history.csv").write_text(history)
    (scf / "summary.txt").write_text(summary)
    for name, text in (extra or {}).items():
        (root / "he" / name).write_text(text)
    return root


HISTORY = "iteration,energy,epsilon\n1,-2.0,-0.5\n2,-4.0,-0.25\n"
SUMMARY = ("converged = True\ntotal_energy = -4.0\nmax_s_sup = 1.5 (bound 4.5)\n"
           "wall_seconds = 1.5\n")


def test_sizes_per_column_and_key(tool, tmp_path, capsys):
    a = write_tree(tmp_path / "a", HISTORY, SUMMARY, {"only_a.csv": "x\n1\n"})
    b = write_tree(
        tmp_path / "b",
        "iteration,energy,epsilon\n1,-2.000004,-0.5\n2,-4.0,-0.2500000025\n",
        "converged = False\ntotal_energy = -4.0000000008\nmax_s_sup = 1.5000000003 (bound 4.5)\n"
        "wall_seconds = 9.0\n",
        {"only_b.csv": "x\n1\n"},
    )
    assert tool.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "he/only_a.csv only in A",
        "he/only_b.csv only in B",
        "he/scf/scf_history.csv iteration 0",
        "he/scf/scf_history.csv energy 1e-06",  # 4e-6 over the column's largest |value| 4
        "he/scf/scf_history.csv epsilon 5e-09",  # 2.5e-9 over 0.5
        "he/scf/summary.txt converged differs",
        "he/scf/summary.txt total_energy 2e-10",
        "he/scf/summary.txt max_s_sup 2e-10",  # the bound is text; wall_seconds is left out
    ]


def test_identical_trees_read_zero_everywhere(tool, tmp_path):
    a = write_tree(tmp_path / "a", HISTORY, SUMMARY)
    b = write_tree(tmp_path / "b", HISTORY, SUMMARY.replace("wall_seconds = 1.5", "wall_seconds = 2.5"))
    lines = tool.compare(a, b)
    assert len(lines) == 6
    assert all(line.endswith(" 0") for line in lines)


@pytest.mark.parametrize("history, expected", [
    ("iteration,energy,epsilon\n1,-2.0,-0.5\n", "he/scf/scf_history.csv energy rows differ"),
    ("iteration,energy\n1,-2.0\n2,-4.0\n", "he/scf/scf_history.csv epsilon only in A"),
    ("iteration,energy,epsilon\n1,nan,-0.5\n2,-4.0,-0.25\n", "he/scf/scf_history.csv energy differs"),
    ("iteration,energy,epsilon\n1,-2.0 x,-0.5\n2,-4.0,-0.25\n",
     "he/scf/scf_history.csv energy differs"),
])
def test_shapes_and_non_numbers_that_differ_are_named(tool, tmp_path, history, expected):
    a = write_tree(tmp_path / "a", HISTORY, SUMMARY)
    b = write_tree(tmp_path / "b", history, SUMMARY)
    assert expected in tool.compare(a, b)
