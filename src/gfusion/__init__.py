"""Numerical toolkit for controlled g-fusion frames in finite-dimensional
complex Hilbert spaces."""

__version__ = "0.1.0"
