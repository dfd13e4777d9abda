import sys
from pathlib import Path

import numpy as np
import pytest

# the pinned CLI commands and the digest families are read from
# scripts/digest_outputs.py
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator so every test run sees the same samples."""
    return np.random.Generator(np.random.PCG64(20260813))
