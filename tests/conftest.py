import os
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def src_env(**extra):
    """os.environ with the checkout's src first on PYTHONPATH, plus extra,
    for tests that start `python` in a child process."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env
