"""The environment of a test's child Python process: the package under
test on its path, so the suite also runs without PYTHONPATH set."""

import os

import dlsec

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(dlsec.__file__)))


def child_env(**extra: str) -> dict:
    return dict(os.environ, PYTHONPATH=_SRC, **extra)
