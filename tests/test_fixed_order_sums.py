"""The package sums in orders its own code fixes, never in one a kernel picks.

A BLAS product (``@``, ``np.dot`` and its kin) sums in the order of whichever
kernel OpenBLAS picks for the CPU, and numpy's ``exp`` runs whichever SIMD loop
numpy dispatches to; either makes the bundle bytes depend on the machine. This
scan of the package source keeps such a call from coming back unnoticed.
"""

import ast
from pathlib import Path

import pytest

import noisekit

# Attributes that name a BLAS product or a linalg routine, whatever object holds them.
BLAS_ATTRIBUTES = {"dot", "vdot", "inner", "matmul", "linalg"}
# numpy functions whose loops numpy picks by CPU feature.
SIMD_FUNCTIONS = {"exp"}
SOURCES = sorted(Path(noisekit.__file__).parent.glob("*.py"))


def kernel_chosen_sums(source: str) -> list[str]:
    """``line: name`` of each matrix product, BLAS call or numpy exp in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: @")
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            if node.attr in BLAS_ATTRIBUTES or (
                owner in ("np", "numpy") and node.attr in SIMD_FUNCTIONS
            ):
                found.append(f"{node.lineno}: {owner or '...'}.{node.attr}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            names = [f"{module}.{alias.name}" for alias in node.names]
            for name in names:
                parts = name.split(".")
                if "numpy" in parts and set(parts) & (BLAS_ATTRIBUTES | SIMD_FUNCTIONS):
                    found.append(f"{node.lineno}: import {name.lstrip('.')}")
    return found


def test_sources_found():
    assert "classify.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_kernel_chosen_sum(path):
    assert kernel_chosen_sums(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    [
        "z = w.T @ x",
        "w @= m",
        "z = np.dot(a, b)",
        "z = a.dot(b)",
        "z = np.inner(a, b)",
        "z = np.vdot(a, b)",
        "z = np.matmul(a, b)",
        "n = np.linalg.norm(a)",
        "from numpy import linalg",
        "import numpy.linalg",
        "from numpy.linalg import norm",
        "e = np.exp(z)",
        "e = numpy.exp(z)",
    ],
)
def test_scan_flags(source):
    assert kernel_chosen_sums(source)


@pytest.mark.parametrize(
    "source",
    [
        "@dataclass\nclass A:\n    pass",
        "e = math.exp(z)",
        "z = np.einsum('ij,i->j', block, val)",
        "s = (v * v).sum()",
        "import math",
        "from ._lazy import np",
    ],
)
def test_scan_passes(source):
    assert kernel_chosen_sums(source) == []
