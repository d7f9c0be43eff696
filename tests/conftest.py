import importlib.util
from pathlib import Path

import hypothesis
import pytest

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50, print_blob=True
)
hypothesis.settings.load_profile("default")

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def report():
    """scripts/output_digests.py, loaded once per session: its memoized
    `outputs(case)` runs each shipped study at full length once, whichever
    tests read it."""
    return _load_script("output_digests")


@pytest.fixture(scope="session")
def bitrate_trace():
    """scripts/run_bitrate_trace.py, whose rows results/bitrate_trace.csv holds."""
    return _load_script("run_bitrate_trace")


@pytest.fixture(scope="session")
def bench_record():
    """scripts/bench_record.py, whose machine() names the float kernels."""
    return _load_script("bench_record")
