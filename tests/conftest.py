import pytest

from matweight.cli import main


@pytest.fixture(scope="session")
def verify_exact_pair(tmp_path_factory):
    """Exit code and report bytes (None when no report was written) of two
    runs of `matweight verify --tier exact --seed 7`, made once per session
    for the tests that check them."""
    runs = []
    for name in ("r1", "r2"):
        out = tmp_path_factory.mktemp(f"verify_exact_{name}")
        rc = main(["verify", "--tier", "exact", "--seed", "7", "--out", str(out)])
        report = out / "verify_report.json"
        runs.append((rc, report.read_bytes() if report.exists() else None))
    return runs
