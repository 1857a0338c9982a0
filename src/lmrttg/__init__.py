"""Exact construction and verification of locally most reliable two-terminal graphs."""

from . import classify, errors, families, graphs, invariants, quadratic, reliability, scans
