"""Classical emulation and resource estimation for momentum-resolved
spectra computed from time-domain Green's functions.

Public names live in their submodules: ``dsfsim.spectrum``, ``dsfsim.oracle``, ...
"""

__version__ = "0.1.0"
