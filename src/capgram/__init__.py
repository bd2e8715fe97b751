"""Entropy-regularised capsule routing with compositional scene grammars.

A numpy-based library: a small reverse-mode tensor engine, translation-
equivariant layers, dynamic routing-by-agreement with routing-entropy
statistics and parse-forest extraction, margin/entropy losses, capsule and
CNN models, an executable AND-OR scene grammar with a part-swap probe, and
an experiment harness (also exposed as the ``capgram`` command).
"""

__version__ = "0.1.0"
