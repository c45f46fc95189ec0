"""Equilibrium, welfare, and policy computations for staged-entry screening economies."""

__version__ = "0.1.0"
