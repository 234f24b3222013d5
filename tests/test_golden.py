"""Golden byte identity of the exact outputs on the desk configs.

The state and desk_m2 report digests were recorded before rational matrices
were stored as integer numerators over one denominator; that representation
must leave every state document and rational report byte for byte as the
Fraction-entry one wrote it.  The desk_m3 digests were recorded before the
two-point solve and the series coefficients moved to integer numerators:
desk_m3 (a = 1, 2, -1) is the desk instance whose recursions divide by
|a| != 1, and its float trajectory pins that the float path did not move.
The float flow-path digests (dynamics and limit reports, flow fields of
order 0..2 in both modes, the desk_m2 trajectory) were recorded before the
flow field stopped solving the resolvent order it does not read and the
commutator became one per-site kernel.  The limit suite's continuum scan is
the one desk path whose lattice step is not 1.  The `tau` digests were
recorded before the tau sums carried each exponential by its Miwa point.
The float state digests pin the float dressing solve; they were recorded
before the dressing and direct-resolvent solves shared one order loop.  The
float resolvent digests (the `verify --suite resolvent` report and the
`resolvent` standard output) pin the float direct resolvent, commutator and
cross-solver difference outside the flow field; they were recorded before
those ran on per-entry site columns.
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

FLOAT_STATE_SHA256 = {
    "desk_m2": "2297e564687f3f377e66929db0b25dd0c3fe0baaa50675b1675143a7861ef876",
    "desk_m3": "04ea053d292243ebe7c1101076ef7b9d9fc661ca2dc2167546117d6bb8b60b20",
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

# config -> digest of the float `verify --suite resolvent` report
FLOAT_RESOLVENT_REPORT_SHA256 = {
    "desk_m2": "8fed2cf8c7de2db0c7cd8e4478836c41a3d199cbd310d8381f7323fc35a81b3f",
    "desk_m3": "24f402dc8a87d234d33a66af13381af2c6832e6da83e3abb458c5b90a72ad74e",
}

# config -> digest of the float `resolvent` standard output
FLOAT_RESOLVENT_STDOUT_SHA256 = {
    "desk_m2": "acac914f94db13b86da90dc648c244f886008e24933c2fd7ff17184eab00489e",
    "desk_m3": "acac914f94db13b86da90dc648c244f886008e24933c2fd7ff17184eab00489e",
}

DESK_M3_EVOLVE_CSV_SHA256 = \
    "d8757728a3fb3b11e5625179220a334809fec7a654001a6bc8c2b95cb36493e5"

# (config, suite) -> (exit code, report digest); desk_m3 limit fails by design
FLOAT_REPORT_SHA256 = {
    ("desk_m2", "dynamics"):
        (0, "a95a5a09d1e408339e1f4dad014bc13b61538bcd44e933f1bc64e80951198fdb"),
    ("desk_m2", "limit"):
        (0, "698285f010f2ed025f034836b77471ce90280c0295e32cfa974cbdadda3a1a84"),
    ("desk_m3", "dynamics"):
        (0, "6849c38a30ad34d554485ffc1a49fbc3a687b8420dc8befa351ef6e9372165e8"),
    ("desk_m3", "limit"):
        (1, "9cee50667074a207708d6d2a4e8173d5b52d1f7707e82602e7e6dcdcf8e2bae0"),
}

# (config, mode, k) -> digest of the `flow` standard output
FLOW_STDOUT_SHA256 = {
    ("desk_m2", "rational", 0): "7b2590ba664a63ae6c6b1b3d4a774c44417be332f655c6f7af3b02c69cd5c142",
    ("desk_m2", "rational", 1): "08d4fb44e35337a2239a8e1406e54b00f7779fc200e1facafcc7d010370a0780",
    ("desk_m2", "rational", 2): "df34cf7ce73e6645933cf5184c20ff50342025782b7eaad6f1dc6a28d563a19f",
    ("desk_m2", "float", 0): "5f0a8557401f5f9e42eb10d4f0c80260008d70a9faf7f21615fffed86cd23a07",
    ("desk_m2", "float", 1): "af838214f9ad7b03ad6739f6025dffe536f468ce62c7116d8feb693e208b2bb0",
    ("desk_m2", "float", 2): "ca026f5684cf6f255d71043cd45ac8fed26221d4ca4c36c6961aa3baa1932659",
    ("desk_m3", "rational", 0): "e1d173335de56bca501c4291ebe2df664168e988c7534cd4abcb71e74b753bd9",
    ("desk_m3", "rational", 1): "db38280a266a9684d0c55bc420a663c33698f379c57736805091148cb0022a85",
    ("desk_m3", "rational", 2): "1e4009ca6bb34e0a94d69ebec350d81c803c2c4c2895868af5383bc9c8d12a08",
    ("desk_m3", "float", 0): "60592ad3774c349cacbac3001d871198d61e0bc08f09e52cd574fa87588abf77",
    ("desk_m3", "float", 1): "934ca5ca9a707771d39df2d66330cb293ec51a23883207246cf281f8a7e50ad4",
    ("desk_m3", "float", 2): "b19d6084eceb96a8b6cf878b2358d5acf0f2f9bb41eb970c4900d90a62f9b82e",
}

DESK_M2_EVOLVE_CSV_SHA256 = \
    "557a665d4e31d86ff6063b13e97b29d046853cb13659c4e4bed794eafe3ef76a"

# (config, mode) -> (exit code, digest of the `tau` standard output)
TAU_STDOUT_SHA256 = {
    ("desk_m2", "rational"):
        (0, "c349d1b988121a08cc3781613056af9d25e420d4bb21e889e88df71625e34044"),
    ("desk_m2", "float"):
        (0, "282a6bea29bd726806136fe6df83e8678ba6b90a1bf7e98ee704c19e46ab6f81"),
    ("desk_m3", "rational"):
        (0, "c349d1b988121a08cc3781613056af9d25e420d4bb21e889e88df71625e34044"),
    ("desk_m3", "float"):
        (0, "282a6bea29bd726806136fe6df83e8678ba6b90a1bf7e98ee704c19e46ab6f81"),
}


def _digest_of_output(argv, out: Path, exit_code: int = 0) -> str:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*argv, "--out", str(out)]) == exit_code
    return hashlib.sha256(out.read_bytes()).hexdigest()


def _digest_of_stdout(argv, exit_code: int = 0) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == exit_code
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(STATE_SHA256))
def test_dress_state_document_is_byte_identical(name, tmp_path):
    argv = ["dress", "--config", str(CONFIGS / f"{name}.json")]
    assert _digest_of_output(argv, tmp_path / "state.json") == STATE_SHA256[name]


@pytest.mark.parametrize("name", sorted(FLOAT_STATE_SHA256))
def test_float_dress_state_document_is_byte_identical(name, tmp_path):
    argv = ["dress", "--config", str(CONFIGS / f"{name}.json"), "--mode", "float"]
    assert _digest_of_output(argv, tmp_path / "state.json") == FLOAT_STATE_SHA256[name]


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


@pytest.mark.parametrize("name", sorted(FLOAT_RESOLVENT_REPORT_SHA256))
def test_float_resolvent_report_is_byte_identical(name, tmp_path):
    argv = ["verify", "--config", str(CONFIGS / f"{name}.json"), "--mode", "float",
            "--suite", "resolvent"]
    assert _digest_of_output(argv, tmp_path / "report.json") == \
        FLOAT_RESOLVENT_REPORT_SHA256[name]


@pytest.mark.parametrize("name", sorted(FLOAT_RESOLVENT_STDOUT_SHA256))
def test_float_resolvent_stdout_is_byte_identical(name):
    argv = ["resolvent", "--config", str(CONFIGS / f"{name}.json"), "--mode", "float"]
    assert _digest_of_stdout(argv) == FLOAT_RESOLVENT_STDOUT_SHA256[name]


def test_desk_m3_float_trajectory_csv_is_byte_identical(tmp_path):
    argv = ["evolve", "--config", str(CONFIGS / "desk_m3.json"), "--format", "csv"]
    assert _digest_of_output(argv, tmp_path / "trajectory.csv") == \
        DESK_M3_EVOLVE_CSV_SHA256


@pytest.mark.parametrize("name, suite", sorted(FLOAT_REPORT_SHA256))
@pytest.mark.filterwarnings("ignore:boundary leakage")
def test_float_flow_report_is_byte_identical(name, suite, tmp_path):
    code, digest = FLOAT_REPORT_SHA256[(name, suite)]
    argv = ["verify", "--config", str(CONFIGS / f"{name}.json"), "--suite", suite]
    assert _digest_of_output(argv, tmp_path / "report.json", code) == digest


@pytest.mark.parametrize("name, mode, k", sorted(FLOW_STDOUT_SHA256))
def test_flow_stdout_is_byte_identical(name, mode, k):
    argv = ["flow", "--config", str(CONFIGS / f"{name}.json"), "--mode", mode,
            "--k", str(k)]
    assert _digest_of_stdout(argv) == FLOW_STDOUT_SHA256[(name, mode, k)]


@pytest.mark.parametrize("name, mode", sorted(TAU_STDOUT_SHA256))
def test_tau_stdout_is_byte_identical(name, mode):
    code, digest = TAU_STDOUT_SHA256[(name, mode)]
    argv = ["tau", "--config", str(CONFIGS / f"{name}.json"), "--mode", mode]
    assert _digest_of_stdout(argv, code) == digest


@pytest.mark.filterwarnings("ignore:boundary leakage")
def test_desk_m2_float_trajectory_csv_is_byte_identical(tmp_path):
    argv = ["evolve", "--config", str(CONFIGS / "desk_m2.json"), "--format", "csv"]
    assert _digest_of_output(argv, tmp_path / "trajectory.csv") == \
        DESK_M2_EVOLVE_CSV_SHA256
