"""Workbench for bivariate-bicycle quantum LDPC codes.

Modules:
    gf2       dense GF(2) linear algebra
    codes     code construction, parameters, logical operators
    tableau   stabilizer-tableau simulator (verification oracle)
    circuit   syndrome-extraction circuit generation and checking
    noise     circuit-level Pauli noise, sampling, building detector error models
    dem       detector error models (DEMs) as arrays, their checks and text form
"""

__version__ = "0.1.0"
