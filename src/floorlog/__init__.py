"""Exact decision machinery for the base-b regularity of floor-log sequences.

The package studies u_n = floor(log_b(alpha*n + beta)).  Whether that
sequence is b-regular is equivalent to ultimate periodicity of an integer
digit recurrence attached to the jump positions of u, which in turn holds
exactly when alpha is rational.  Every link of that chain is computed here
with exact arithmetic and, where a verdict is produced, a replayable
certificate.
"""

__version__ = "0.1.0"
