import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def no_leftovers(tmp_path):
    """After every test: no child process is left, and no staging directory,
    neither today's ``plots/.stage-*`` nor an older ``.plots-*``."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert [p for pattern in (".stage-*", ".plots-*") for p in tmp_path.rglob(pattern)] == []
