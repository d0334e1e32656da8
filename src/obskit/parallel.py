"""Retired worker pool: every scan runs on one thread.

The thread pool that mapped cluster scans was no faster than a plain loop
on the measured workloads, so it and its environment cap on the worker
count are gone.  No obskit module imports this one.  ``worker_count``
stays only because the benchmark harness (``perfbench/run.py``) still
imports it; the next change to the benchmark drops that import and
deletes this module.
"""

from __future__ import annotations


def worker_count() -> int:
    """Number of workers a scan uses: always 1."""
    return 1
