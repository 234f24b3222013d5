"""Golden byte identity of the exact outputs on the desk configs.

The digests were recorded before rational matrices were stored as integer
numerators over one denominator; that representation must leave every state
document and rational report byte for byte as the Fraction-entry one wrote it.
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
