"""Fault injection: the output checker rejects broken solve outputs.

A real garding solve of the resolution-9 box spec passes the checker; the
same outputs with one interior ``u`` value nudged, or with a non-zero
sandwich violation in the report, must not.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checker import CheckFailed, check_output_dir, check_second_order

BENCH = Path(__file__).resolve().parent
SPEC = BENCH / "specs" / "box-n2-p1-r9.spec"
SEED = 7


@pytest.fixture(scope="module")
def solved(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("solve")
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    status = subprocess.run(
        [sys.executable, "-m", "garding.cli", "--mode", "solve", "--spec", str(SPEC),
         "--out", str(out), "--seed", str(SEED)],
        env=env, timeout=300,
    ).returncode
    assert status == 0
    return out


@pytest.fixture
def outputs(solved, tmp_path) -> Path:
    copy = tmp_path / "out"
    shutil.copytree(solved, copy)
    return copy


def test_clean_outputs_pass(outputs):
    figures = check_output_dir(SPEC, outputs, SEED)
    assert figures["max_residual"] <= 1e-8
    assert figures["min_margin"] > 0.0


def test_perturbed_interior_u_is_rejected(outputs):
    path = outputs / "fields.csv"
    lines = path.read_bytes().split(b"\r\n")
    # rows follow the grid in C order after two header lines; the grid
    # centre (4, 4, 4, 4) at resolution 9 is an interior node
    row = 2 + 4 * (9**3 + 9**2 + 9 + 1)
    cells = lines[row].split(b",")
    assert cells[-1], "the chosen node must be interior"
    cells[4] = repr(float(cells[4]) + 1e-6).encode()
    lines[row] = b",".join(cells)
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(CheckFailed, match="residual"):
        check_output_dir(SPEC, outputs, SEED)


def test_nonzero_sandwich_violation_is_rejected(outputs):
    path = outputs / "report.txt"
    text = path.read_text()
    assert "\nsandwich_violation = 0.0\n" in text
    path.write_text(text.replace("\nsandwich_violation = 0.0\n", "\nsandwich_violation = 1e-09\n"))
    with pytest.raises(CheckFailed, match="sandwich_violation"):
        check_output_dir(SPEC, outputs, SEED)


def test_first_order_convergence_is_rejected():
    assert check_second_order((9, 2.25e-3), (13, 1e-3)) == pytest.approx(2.25)
    with pytest.raises(CheckFailed, match="second order"):
        check_second_order((9, 1.5e-3), (13, 1e-3))
