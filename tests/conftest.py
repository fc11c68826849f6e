import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from idemfree import is_commutative
from idemfree.verify import build_corpus, run_verification

# the one read of the slow flag, which runs the tests and pins that take seconds to minutes
SLOW = bool(os.environ.get("IDEMFREE_SLOW_TESTS"))
slow = pytest.mark.skipif(not SLOW, reason="slow; set IDEMFREE_SLOW_TESTS=1 to run it")


@pytest.fixture(scope="session")
def corpus_le3():
    return build_corpus(3)


@pytest.fixture(scope="session")
def corpus_le4():
    return build_corpus(4)


@pytest.fixture(scope="session")
def commutative_le4(corpus_le4):
    return [S for S in corpus_le4 if is_commutative(S)]


@pytest.fixture(scope="session")
def commutative_le5():
    """Every commutative table of order <= 5, 31 940 of them, in stream order."""
    return build_corpus(5, True, 5)


@pytest.fixture(scope="session")
def acceptance_logs():
    """The default verification run over order <= 4 behind acceptance
    criteria 1-6 and 10, the log that ``idemfree verify`` writes: once with
    a single worker, once with a pool; the logs must be byte-identical."""
    serial = run_verification(max_order=4, workers=1)
    pooled = run_verification(max_order=4, workers=3)
    return serial, pooled
