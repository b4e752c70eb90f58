"""Depth-3 circuits for elementary symmetric polynomials modulo composite,
non-prime-power numbers, built from weighted rectangle and box covers and
shipped with exhaustive desk-scale verifiers."""
