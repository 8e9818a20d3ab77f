"""Guarded smooth maps, jet towers with partition-sum composition, and the
law-checking harness for the differential and restriction axioms."""

__version__ = "0.1.0"
