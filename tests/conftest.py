"""Make the checkout's package importable from the CLI subprocesses the tests
start.  ``pythonpath`` in pyproject.toml reaches only the test process, so
``src`` is prepended to PYTHONPATH, which child interpreters inherit."""
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))])
