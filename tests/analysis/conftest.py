"""Shared fixtures for the analysis suites."""

from pathlib import Path

import pytest

from repro.analysis.runner import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def tree_lint_report():
    """One full chaos-lint run over the repository, shared by every
    clean-tree gate: ``run_lint`` always runs every pass, and each
    family gate filters the same findings."""
    return run_lint(root=REPO_ROOT)
