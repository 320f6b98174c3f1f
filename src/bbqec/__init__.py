"""Workbench for bivariate-bicycle quantum LDPC codes.

Modules:
    gf2       dense GF(2) linear algebra
    codes     code construction, parameters, logical operators
    tableau   stabilizer-tableau simulator (verification oracle)
    circuit   syndrome-extraction circuit generation and checking
    noise     circuit-level Pauli noise, sampling, detector error models
"""

__version__ = "0.1.0"
