"""Reference implementations the equivalence tests compare against.

Production keeps one path per feature; the simpler paths it replaced
live here, where the tests use them as oracles.
"""

import numpy as np


def forward_rows(net, x):
    """One member's row-stable inference pass: ``(n, d) -> (n,)``.

    The per-member walk the ensemble ran before it stacked its members
    into one ``(M, in, out)`` contraction per layer.  Each layer is an
    ``einsum``, whose per-row reduction order does not depend on the
    batch size, so a row scores the same bits alone or in a batch.
    """
    a = np.asarray(x, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    n_layers = len(net.weights)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = np.einsum("ij,jk->ik", a, w) + b
        a = z if i == n_layers - 1 else np.tanh(z)
    return a[:, 0]


def ensemble_mean_std_scaled(ensemble, xs):
    """Member mean and spread, one :func:`forward_rows` per member,
    accumulated member by member (standardized target units)."""
    forwards = [forward_rows(net, xs) for net in ensemble.networks]
    total = forwards[0].copy()
    for f in forwards[1:]:
        total += f
    mean = total / len(forwards)
    sq = np.zeros_like(mean)
    for f in forwards:
        sq += (f - mean) ** 2
    return mean, np.sqrt(sq / len(forwards))
