import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fastla.core import RngStream
from fastla.matmul import MmEngine


@pytest.fixture
def rng():
    return RngStream(0xBA5E)


@pytest.fixture(params=["conv", "strassen"])
def engine(request):
    if request.param == "conv":
        return MmEngine("conv")
    return MmEngine("strassen", cutoff=8)


@pytest.fixture
def alarm():
    """Fail a test that runs past 20 s instead of letting it hang the suite."""
    def expire(signum, frame):
        raise TimeoutError("no result within 20 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
