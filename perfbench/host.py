"""The host record every run carries, and the rule for comparing runs.

Timings from different machines do not compare: a baseline taken on one
CPU says nothing about a change measured on two.  Two runs are comparable
only when their host fingerprints -- CPU count, Python and NumPy versions,
and platform -- are equal.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess

FINGERPRINT_KEYS = ("cpu_count", "python", "numpy", "platform")


def _commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest(root: str) -> str:
    """SHA-256 over the program's Python sources (commit-free checkouts)."""
    sha = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                sha.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    sha.update(handle.read())
    return sha.hexdigest()


def record(root: str) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": _commit(root),
        "source_digest": _source_digest(root),
        "loadavg_start": list(os.getloadavg()),
    }


def fingerprint(host: dict) -> dict:
    return {key: host.get(key) for key in FINGERPRINT_KEYS}
