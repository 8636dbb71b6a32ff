"""Code-version fingerprint for cache invalidation.

A cached artifact is only valid for the source tree that produced it, so
the cache key folds in a digest over every ``.py`` file of the installed
``repro`` package.  Editing any module therefore invalidates every cache
entry — the conservative rule the golden-result suite relies on.
"""

from __future__ import annotations

import hashlib
import pathlib

_cached_version: str | None = None


def compute_code_version() -> str:
    """Digest the package's own source files (sorted, path-prefixed)."""
    package_root = pathlib.Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def code_version() -> str:
    """The process-wide code fingerprint, computed once."""
    global _cached_version
    if _cached_version is None:
        _cached_version = compute_code_version()
    return _cached_version
