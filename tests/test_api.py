"""The public surface: every exported name resolves.

The layer modules' ``__all__`` lists and the package's re-exports are what
outside code (the benchmark tracer among it) looks names up by.
"""

import ast
import importlib
from pathlib import Path

import pytest

import goldfish
from goldfish.equilibria import ResonantBranchError
from goldfish.linalg import EigenvalueError
from goldfish.polynomials import RootFindingError

MODULES = ("dynamics", "equilibria", "linalg", "polynomials", "reports", "spectrum")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"goldfish.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_reexports_resolve():
    tree = ast.parse(Path(goldfish.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"goldfish.{node.module}")
        for alias in node.names:
            assert not alias.name.startswith("_"), (node.module, alias.name)
            assert getattr(goldfish, alias.name) is getattr(module, alias.name)


def test_runtime_failures_share_one_base():
    """Every named runtime failure is a GoldfishError and stays a
    RuntimeError; the certificate failure is also an ArithmeticError, and
    the resonant-branch refusal stays a ValueError."""
    runtime = (
        goldfish.CollisionError,
        goldfish.AmbiguousTrackingError,
        goldfish.MovableSingularityError,
        EigenvalueError,
        RootFindingError,
    )
    for cls in runtime + (goldfish.CertificateError,):
        assert issubclass(cls, goldfish.GoldfishError) and issubclass(cls, RuntimeError)
    assert issubclass(goldfish.CertificateError, ArithmeticError)
    assert issubclass(ResonantBranchError, ValueError)
    assert not issubclass(ResonantBranchError, goldfish.GoldfishError)
