import os
from pathlib import Path

import lowlying

# the src this session imports lowlying from: the checkout's, or the
# mutated copy that tools/mutants.py puts first
SRC = Path(lowlying.__file__).resolve().parents[1]


def src_env(**extra):
    """os.environ with SRC first on PYTHONPATH, plus extra, for tests that
    start `python` in a child process, so the child runs the same code."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env
