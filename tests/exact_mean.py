"""The exact mean error curve ``E[C_k]`` of the open system at ``kappa = 1``.

At ``alpha == beta`` every drawn cost is ``(beta/2) (x - mu)^2`` in both
families (the log-cosh weight ``beta - 2 theta`` is 0), so the constrained
minimizer is ``x* = P mu + (b/n) 1`` with ``P = I - 1 1^T / n``, and the
error ``e = x - x*`` moves by maps that are linear in ``z = (e, mu)``:

* a pair update on ``(i, j)``, with ``v = e_i - e_j`` and
  ``c = h beta / 2``, moves ``x_i`` by ``-c v^T e`` and ``x_j`` by
  ``+c v^T e`` and leaves ``x*`` where it is: ``e -> (I - c v v^T) e``;
* replacing agent ``r``'s location by a fresh ``nu``, uniform on
  ``[-1, 1]`` and independent of ``z``, moves ``x*`` by
  ``(nu - mu_r) u_r`` with ``u_r = e_r - 1/n``: ``z -> B_r z + nu w_r``,
  where ``B_r`` sends ``(e, mu)`` to ``(e + mu_r u_r, mu - mu_r e_r)``
  and ``w_r = (-u_r, e_r)``.

``E[nu] = 0`` and ``E[nu^2] = 1/3``, so the second moment
``M = E[z z^T]`` follows an exact affine recursion of size ``2n``,

    M' = p_U / E  sum_edges  T M T^T + (1 - p_U) / n  sum_r (B_r M B_r^T + w_r w_r^T / 3),

with ``E = n (n - 1) / 2`` and ``T`` the update's map on ``z``, and
``E[C_k]`` is the trace of ``M_k``'s ``e`` block.  The starting roster's
locations are independent and uniform, ``E[mu mu^T] = I / 3``: the
``"uniform_budget"`` start is ``e = -P mu``, the ``"minimizer"`` start
``e = 0``, and an explicit start ``x0`` is ``e = (x0 - b/n) - P mu``.
Nothing here depends on ``b``, and ``beta`` enters only through ``h beta``.
"""

import numpy as np


def exact_mean_error(config):
    """``E[C_k]`` for ``k = 0 .. config.horizon``, for a config with
    ``alpha == beta``, as a ``(horizon + 1,)`` array."""
    if config.alpha != config.beta:
        raise ValueError("the exact mean curve needs alpha == beta")
    n, p = config.n, config.p_update
    size = 2 * n
    eye = np.eye(n)
    c = 0.5 * config.h * config.beta

    maps, weights = [], []   # each map of z with the chance it is applied
    shift = np.zeros((size, size))
    edges = np.transpose(np.triu_indices(n, 1))
    for i, j in edges:
        v = eye[i] - eye[j]
        t = np.eye(size)
        t[:n, :n] -= c * np.outer(v, v)
        maps.append(t)
        weights.append(p / len(edges))
    for r in range(n):
        u = eye[r] - 1.0 / n
        b = np.eye(size)
        b[:n, n + r] = u
        b[n + r, n + r] = 0.0
        maps.append(b)
        weights.append((1.0 - p) / n)
        w = np.concatenate((-u, eye[r]))
        shift += (1.0 - p) / n / 3.0 * np.outer(w, w)
    # (T M T^T).ravel() == kron(T, T) @ M.ravel(); the weighted sum of the
    # krons as one product, from [(a, b), (c, d)] to [(a, c), (b, d)]
    maps = np.reshape(maps, (len(maps), size * size))
    step = (maps.T * weights) @ maps
    step = step.reshape((size,) * 4).transpose(0, 2, 1, 3).reshape(size * size, -1)

    proj = eye - 1.0 / n
    start = np.zeros((size, size))
    start[n:, n:] = eye / 3.0
    if config.initial_state != "minimizer":
        start[:n, :n] = proj / 3.0
        start[:n, n:] = start[n:, :n] = -proj / 3.0
        if not isinstance(config.initial_state, str):
            a = np.asarray(config.initial_state) - config.budget / n
            start[:n, :n] += np.outer(a, a)

    diagonal = np.arange(n) * (size + 1)   # the e block's diagonal in M.ravel()
    m, shift = start.ravel(), shift.ravel()
    out = np.empty(config.horizon + 1)
    for k in range(config.horizon + 1):
        out[k] = m[diagonal].sum()
        m = step @ m + shift
    return out
