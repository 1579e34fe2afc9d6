"""The batch engine's full-matrix reference for the engine tests.

:func:`_simulate_batch` runs one ``openrcd.opensim._Batch`` over the
whole horizon and keeps every step's error, a matrix ``run_ensemble``
never builds: the tests compare its rows with ``run_trajectory`` and its
columns with the streamed ensemble statistics.
"""

from dataclasses import dataclass

import numpy as np

from openrcd import opensim


@dataclass
class _BatchOutcome:
    error: np.ndarray                 # (rows, horizon+1)
    final_values: np.ndarray          # (rows, n), a view of the agent-major x
    replacement_count: int
    max_replacement_shift: float
    update_mask: np.ndarray           # (rows, horizon), True for a pair update


def _simulate_batch(config, seeds):
    """Every step's error of a batch, as one ``(rows, horizon + 1)`` matrix
    (column 0 is the initial state), with the final estimates and the
    ``(rows, horizon)`` pair-update mask.

    The batch runs in chunks of the length ``opensim._chunk_length``
    gives ``rows`` rows.
    """
    batch = opensim._Batch(config, seeds)
    horizon, rows = config.horizon, batch.rows
    chunk = opensim._chunk_length(config, rows)[0]
    error = np.empty((rows, horizon + 1))
    error[:, 0] = batch.error()
    update_mask = np.empty((rows, horizon), dtype=bool)
    for start in range(0, horizon, max(chunk, 1)):
        steps = min(chunk, horizon - start)
        coin = batch.advance(error[:, start + 1:start + steps + 1])
        update_mask[:, start:start + steps] = coin.T
    return _BatchOutcome(
        error, batch.x.T, batch.replacement_count, batch.max_replacement_shift, update_mask
    )
