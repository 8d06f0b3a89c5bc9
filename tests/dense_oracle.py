"""Dense reference computations for the structured code paths, built only in tests.

dense_phi stacks the Kronecker blocks V_m (x) U_m of the dictionary, and
dense_task composes the compression with it, M*Phi, on band-major ctilde.
digital_filter_mse evaluates a digital filter's modeled error with dense
matrices, and block_from_responses inverts the analog filter export.
"""

import numpy as np

from bitmimo.dictionary import fbar_matrix
from bitmimo.statistics import blkdiag, lmmse_transform


def dense_phi(d):
    """Phi = [V_0 (x) U_0; ...; V_{M-1} (x) U_{M-1}], shape MNL x M^2NL."""
    return np.vstack([np.kron(d.V[m], d.U[m]) for m in range(d.config.M)])


def dense_task(d, compression):
    """M*Phi, shape J x M^2NL."""
    return compression.dense(d.iperm) @ dense_phi(d)


def digital_filter_mse(digital, combiner_blocks, stats, compression, gamma, levels):
    """Modeled E||s_tilde - D z||^2 for any digital filter D (dense evaluation).

    Under the dithered ADC model z = Fbar Bbar v + e with white e of per-sample
    variance 4*gamma^2/(3*b^2), so the MSE relative to the LMMSE estimate is
    Tr[(Gamma - D G) Sigma (Gamma - D G)^H] + q Tr[D D^H] with G = Fbar Bbar.
    """
    B = np.asarray(combiner_blocks)
    L, P, _ = B.shape
    q = 4.0 * gamma * gamma / (3.0 * levels * levels)
    G = fbar_matrix(L, P) @ blkdiag(B)
    gap = blkdiag(lmmse_transform(compression, stats)) - digital @ G
    sig = stats.sigma_dense()
    return float(np.trace(gap @ sig @ gap.conj().T).real
                 + q * np.trace(digital @ digital.conj().T).real)


def block_from_responses(gains, config, pulse_spectrum=None):
    """Invert analog_filter_response for one (p, n): recover B_i[p, m*N+n]."""
    L, M = config.L, config.M
    h0 = np.ones(L, dtype=complex) if pulse_spectrum is None else \
        np.asarray(pulse_spectrum, dtype=complex)
    gains = np.asarray(gains, dtype=complex).reshape(M, L)
    return gains * h0[None, :] / config.pri
