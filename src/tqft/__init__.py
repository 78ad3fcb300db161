"""Truncated quantum Fourier transforms with hardware-aware depth selection.

The package simulates phase estimation built on depth-truncated QFT
circuits, bounds the distributional error of the truncation, picks depths
from device error rates, and benchmarks the whole stack on a small
transverse-field Ising chain. `python -m tqft --help` lists the
experiment harness. Each name is imported from its module (`tqft.qpe`,
`tqft.cli`, ...); the package itself holds only `__version__`.
"""

__version__ = "0.1.0"
