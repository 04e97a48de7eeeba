import pytest

from deacp import parser as P


BASE_SRC = """
domain -16..15
vars i, j, d, q, r, u, v
actions a, a/1, a/2, b, b/1, b/2, c, c/1, c/2, send/1
comm { a | b = c }
map sigma { i = 11, j = 3 }
"""


@pytest.fixture(scope="session")
def base_spec():
    return P.parse_spec(BASE_SRC)


@pytest.fixture(scope="session")
def ctx(base_spec):
    return base_spec.context()


@pytest.fixture(scope="session")
def small_spec():
    return P.parse_spec(
        """
domain -4..3
vars u, v, h, l
actions a, a/1, a/2, b, b/1, b/2, c, c/1, c/2, send/1
comm { a | b = c }
"""
    )


@pytest.fixture(scope="session")
def small_ctx(small_spec):
    return small_spec.context()


def proc(spec, text):
    return P.parse_process(text, spec)


def cond(spec, text):
    return P.parse_condition(text, spec)


def run_cli(*argv, hash_seed="0"):
    """`python -m deacp.cli`, importing the same deacp package as the tests."""
    return run_python("-m", "deacp.cli", *argv, hash_seed=hash_seed)


def run_python(*argv, hash_seed="0"):
    """`python ARGV...` in a child interpreter that imports the same deacp
    package as the tests."""
    import os
    import subprocess
    import sys

    import deacp

    src = os.path.dirname(os.path.dirname(deacp.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
    return subprocess.run([sys.executable, *argv], capture_output=True, env=env)


def bench_module(name):
    """bench/NAME.py, loaded from its file (bench/ is not a package)."""
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    loader = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module
