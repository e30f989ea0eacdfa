"""Reference functions the tests compare the engine against; the engine
itself does not use them."""

import numpy as np
from scipy.special import ndtr


def softmax(v):
    """Numerically stable (max-subtracted) softmax."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("softmax of an empty vector")
    shifted = v - np.max(v)
    e = np.exp(shifted)
    return e / np.sum(e)


def gelu_grad(x):
    """Derivative of the exact GELU: Phi(x) + x * phi(x)."""
    x = np.asarray(x, dtype=np.float64)
    phi = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    out = ndtr(x) + x * phi
    return out if out.ndim else float(out)
