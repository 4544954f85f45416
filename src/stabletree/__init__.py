"""Stable random fields indexed by free groups: simulation and verification.

Modules by role: exact word algebra and tree combinatorics
(``free_group``), the boundary with its uniform measure and nonsingular
action (``boundary``), stable sampling and series machinery (``stable``),
ray subgraphs (``subgraphs``), the built-in field models and their maxima
(``fields``), the cluster Poisson limit (``limit_process``), statistics
and the experiment harness (``stats``, ``harness``, ``cli``).  The package
root imports none of them: import each name from its module.
"""

__version__ = "0.1.0"
