"""Dense reference matrices for the structured operators, built only in tests.

dense_phi stacks the Kronecker blocks V_m (x) U_m of the dictionary, and
dense_task composes the compression with it, M*Phi, on band-major ctilde.
"""

import numpy as np


def dense_phi(d):
    """Phi = [V_0 (x) U_0; ...; V_{M-1} (x) U_{M-1}], shape MNL x M^2NL."""
    return np.vstack([np.kron(d.V[m], d.U[m]) for m in range(d.config.M)])


def dense_task(d, compression):
    """M*Phi, shape J x M^2NL."""
    return compression.dense(d.iperm) @ dense_phi(d)
