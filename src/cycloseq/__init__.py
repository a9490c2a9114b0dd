"""Exact counting engine for digit-string statistics of cyclic binary sequences."""

__version__ = "0.1.0"
