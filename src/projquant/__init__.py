"""projquant: exact computational projective geometry, Weierstrass torus
embeddings, Berezin-Toeplitz quantization on P^1, and moment-map/GIT
stability checks.

Import what you use from its submodule (``from projquant.poly import
parse_polynomial``); ``import projquant`` loads no submodule.
"""

__version__ = "0.1.0"
