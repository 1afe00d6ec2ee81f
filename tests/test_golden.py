"""Golden exact reports: each command's stdout, stderr and exit code,
compared byte for byte.

The commands below print only exact rationals (and fixed usage errors),
so their reports do not depend on the platform.  Each case keeps three
files in ``tests/golden/``: ``<name>.stdout``, ``<name>.stderr`` and
``<name>.exit``.  Regenerate them only when the report schema changes on
purpose (``SCHEMA_VERSION`` in ``goldfish.reports``, ROADMAP item 4)::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import pathlib

import pytest

from goldfish.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    "equilibria-iso-n8": ["equilibria", "--iso", "--n", "8"],
    "equilibria-altgold-n7-a1_2": ["equilibria", "--altgold", "--n", "7", "--a", "1/2"],
    "spectrum-nu0-mu1_2-n4": ["spectrum", "--nu", "0", "--mu", "1/2", "--n", "4"],
    "spectrum-nu5-mu6-n7": ["spectrum", "--nu", "5", "--mu", "6", "--n", "7"],
    "conjecture-c215-nu3-mu3-n3": [
        "conjecture", "--which", "c215", "--nu", "3", "--mu", "3", "--n", "3",
    ],
    "sweep-integrality-n5": [
        "sweep", "--which", "integrality", "--n-max", "5", "--threads", "1",
    ],
    "spectrum-nu8-mu8-n8": ["spectrum", "--nu", "8", "--mu", "8", "--n", "8"],
    "spectrum-nu2-mu2-n3": ["spectrum", "--nu", "2", "--mu", "2", "--n", "3"],
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    stdout, stderr, code = _run(CASES[name])
    assert code == int((GOLDEN / f"{name}.exit").read_text())
    assert stderr == (GOLDEN / f"{name}.stderr").read_text(encoding="utf-8")
    assert stdout == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        stdout, stderr, code = _run(argv)
        (GOLDEN / f"{name}.stdout").write_text(stdout, encoding="utf-8")
        (GOLDEN / f"{name}.stderr").write_text(stderr, encoding="utf-8")
        (GOLDEN / f"{name}.exit").write_text(f"{code}\n")
