"""Golden byte identity of the exact outputs on the desk configs.

The state and desk_m2 report digests were recorded before rational matrices
were stored as integer numerators over one denominator; that representation
must leave every state document and rational report byte for byte as the
Fraction-entry one wrote it.  The desk_m3 digests were recorded before the
two-point solve and the series coefficients moved to integer numerators:
desk_m3 (a = 1, 2, -1) is the desk instance whose recursions divide by
|a| != 1, and its float trajectory pins that the float path did not move.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from aknsd import cli

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

STATE_SHA256 = {
    "desk_m2": "5868dba38be91259c19f2eac845d30aeca2865b7cf327e0ede34971bfdde48c0",
    "desk_m3": "13aedaa4e243e36a972a578ba827f1e68ab898cadb1af105e1d0b355995cd511",
}

DESK_M2_REPORT_SHA256 = {
    "algebra": "bfd71331d126abcad0509f26d593bef37152c6c591ad65cda726f28c01ebf0d8",
    "resolvent": "00440f498d2bce5d6e6f18271b46a26c6491f306bc2f977d249f8d010c77fd37",
    "bilinear": "ff59dee2db1d27b4990a9645e601a1285e1f7d86325b9d2f01d22e699e11031d",
}

DESK_M3_REPORT_SHA256 = {
    "algebra": "3fab96906aeb7c3d41360f9d051be9956d4d5e7eac0ed171698f4d2a69a1f8b7",
    "resolvent": "0f621210044758bd0855a88d06a8c5bdeea8d2d0c40b5ef6010c35ea4ff0defc",
    "bilinear": "5843a424f0d4d9cfe4f224c4654cc9d95707c7240861087d96965b3e50647d09",
}

DESK_M3_EVOLVE_CSV_SHA256 = \
    "d8757728a3fb3b11e5625179220a334809fec7a654001a6bc8c2b95cb36493e5"


def _digest_of_output(argv, out: Path) -> str:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*argv, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(STATE_SHA256))
def test_dress_state_document_is_byte_identical(name, tmp_path):
    argv = ["dress", "--config", str(CONFIGS / f"{name}.json")]
    assert _digest_of_output(argv, tmp_path / "state.json") == STATE_SHA256[name]


@pytest.mark.parametrize("suite", sorted(DESK_M2_REPORT_SHA256))
def test_desk_m2_rational_report_is_byte_identical(suite, tmp_path):
    argv = ["verify", "--config", str(CONFIGS / "desk_m2.json"), "--suite", suite]
    assert _digest_of_output(argv, tmp_path / "report.json") == \
        DESK_M2_REPORT_SHA256[suite]


@pytest.mark.parametrize("suite", sorted(DESK_M3_REPORT_SHA256))
def test_desk_m3_rational_report_is_byte_identical(suite, tmp_path):
    argv = ["verify", "--config", str(CONFIGS / "desk_m3.json"), "--suite", suite]
    assert _digest_of_output(argv, tmp_path / "report.json") == \
        DESK_M3_REPORT_SHA256[suite]


def test_desk_m3_float_trajectory_csv_is_byte_identical(tmp_path):
    argv = ["evolve", "--config", str(CONFIGS / "desk_m3.json"), "--format", "csv"]
    assert _digest_of_output(argv, tmp_path / "trajectory.csv") == \
        DESK_M3_EVOLVE_CSV_SHA256
