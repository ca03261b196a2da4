"""Singular coupling models at desk scale.

Dense complex block-matrix pipeline from a Hermitian coupling matrix to the
(S, L, H) triple, the grid-discretized punctured-line model with its singular
boundary functionals, and photon-number-graded truncated-Fock verification of
the boundary conditions and the singular action.
"""

__version__ = "0.1.0"
