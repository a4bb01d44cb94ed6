import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parents[1] / "src" / "noma_limits" / "golden" / "values.json"


def load_golden() -> dict:
    """The golden file, read from the source tree: the installed package
    does not ship it."""
    with GOLDEN.open("r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def golden() -> dict:
    """Frozen expected values, each recorded with the oracle that produced it."""
    return load_golden()
