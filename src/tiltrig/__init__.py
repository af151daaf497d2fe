"""Exact toolkit for Loewy structure and rigidity of tilting modules over
quasi-hereditary path algebras, with a character-level block calculator.

The package exports only `__version__`; import from the submodules
(`from tiltrig.modules import radical_profile`)."""

__version__ = "0.1.0"
