"""Exact-arithmetic cohomology and deformation engine for Hom-algebras."""

__version__ = "0.1.0"
