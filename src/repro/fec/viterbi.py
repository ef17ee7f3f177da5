"""Hard-decision Viterbi decoding with erasure support.

Classic add-compare-select over the code trellis [Viterbi 1967, Forney
1973 — both cited by the paper].  Received coded bits may be marked as
*erased* (the RCPC depuncturer does this for positions the transmitter
never sent); erased positions contribute no branch metric.

For a rate-1/n code every trellis state has exactly two incoming
branches, so the add-compare-select step vectorizes cleanly over the
2^(K-1) states; :func:`viterbi_decode_batch` additionally vectorizes
over whole *batches* of received blocks, turning the per-step work into
``(batch, states)`` array operations so the Python-level step loop is
paid once per sweep instead of once per packet.  A sweep covers at
most :data:`_SWEEP_ROWS` rows, so a decode's memory is flat in batch
size however many rows a caller stacks.  The scalar
:func:`viterbi_decode` is the same kernel at batch size 1, so the two
agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro import compiled as _compiled
from repro.fec.convolutional import ConvolutionalCode
from repro.obs import runtime as _obs

ERASED = 2  # sentinel value in the received stream: no bit at this slot

# Rows swept through the trellis at once.  The survivor store and the
# per-pattern cost tensor grow with the rows in a sweep, so capping a
# sweep keeps a decode's memory flat in batch size; 64 rows already
# amortize the Python-level step loop.
_SWEEP_ROWS = 64


def _transition_tables(code: ConvolutionalCode):
    """Static trellis structure shared across decode calls."""
    n_states = code.n_states
    outputs = code.output_table().reshape(-1, code.n_outputs)
    next_state = code.next_state_table().reshape(-1)
    from_state = np.repeat(np.arange(n_states), 2)
    input_bit = np.tile(np.array([0, 1], dtype=np.uint8), n_states)
    # Each next state has exactly two incoming branches (rate 1/n).
    pred_branches = np.empty((n_states, 2), dtype=np.int32)
    fill = np.zeros(n_states, dtype=np.int32)
    for branch, target in enumerate(next_state):
        pred_branches[target, fill[target]] = branch
        fill[target] += 1
    if not (fill == 2).all():
        raise AssertionError("trellis is not two-in-regular")
    # Branches share output symbols: there are only 2**n_outputs
    # distinct patterns, so per-step costs are computed per *pattern*
    # and gathered per branch (the pattern-cost trick).
    place = 1 << np.arange(code.n_outputs - 1, -1, -1)
    branch_pattern = (outputs.astype(np.int64) * place).sum(axis=1)
    all_patterns = (
        (np.arange(1 << code.n_outputs)[:, None] // place[None, :]) % 2
    ).astype(np.uint8)
    return (
        outputs,
        from_state,
        input_bit,
        pred_branches,
        branch_pattern,
        all_patterns,
    )


_TABLE_CACHE: dict[tuple[int, tuple[int, ...]], tuple] = {}


def _cached_tables(code: ConvolutionalCode):
    key = (code.constraint_length, tuple(code.generators))
    tables = _TABLE_CACHE.get(key)
    if tables is None:
        tables = _transition_tables(code)
        _TABLE_CACHE[key] = tables
    return tables


def viterbi_decode(
    code: ConvolutionalCode,
    received: np.ndarray,
    terminated: bool = True,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Maximum-likelihood decode of ``received`` hard bits.

    ``received`` has ``code.n_outputs`` entries per trellis step, each
    0, 1, or :data:`ERASED`.  ``weights``, when given, assigns each
    received position a confidence in [0, 1]: a disagreement at a
    low-weight position costs proportionally less branch metric.  This
    is poor-man's soft decision — a receiver that *knows* which spans
    an interference burst covered (the WaveLAN modem does, from its AGC
    samples) can down-weight them without discarding them outright.
    Returns the decoded information bits (flush bits stripped when
    ``terminated``).
    """
    state = _obs.STATE
    if state.profiling:
        with state.metrics.timer("profile.viterbi_decode").time():
            return _decode_impl(code, received, terminated, weights)
    return _decode_impl(code, received, terminated, weights)


def viterbi_decode_batch(
    code: ConvolutionalCode,
    received: np.ndarray,
    terminated: bool = True,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Decode a ``(batch, length)`` block of received streams at once.

    Row ``i`` of the result equals ``viterbi_decode(code, received[i],
    terminated, weights[i])`` bit for bit — the branch metrics are
    accumulated in the same floating-point order — but the trellis step
    loop runs over ``(batch, states)`` arrays, amortizing the
    Python-level per-step cost across the whole batch.  ``weights``
    (optional) must have the same shape as ``received``; a row of ones
    is exactly equivalent to no weights.
    """
    state = _obs.STATE
    if state.profiling:
        with state.metrics.timer("profile.viterbi_decode_batch").time():
            return _decode_batch_impl(code, received, terminated, weights)
    return _decode_batch_impl(code, received, terminated, weights)


def _decode_impl(
    code: ConvolutionalCode,
    received: np.ndarray,
    terminated: bool,
    weights: np.ndarray | None,
) -> np.ndarray:
    received = np.asarray(received, dtype=np.uint8)
    if received.ndim != 1:
        raise ValueError(f"received must be 1-D, got shape {received.shape}")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != received.shape:
            raise ValueError(
                f"weights shape {weights.shape} != received {received.shape}"
            )
        weights = weights[None, :]
    return _decode_batch_impl(code, received[None, :], terminated, weights)[0]


def _decode_batch_impl(
    code: ConvolutionalCode,
    received: np.ndarray,
    terminated: bool,
    weights: np.ndarray | None,
) -> np.ndarray:
    received = np.asarray(received, dtype=np.uint8)
    if received.ndim != 2:
        raise ValueError(
            f"batched received must be 2-D, got shape {received.shape}"
        )
    batch, length = received.shape
    n_out = code.n_outputs
    if length % n_out != 0:
        raise ValueError(f"received length {length} not a multiple of {n_out}")
    n_steps = length // n_out
    if n_steps == 0 or batch == 0:
        return np.empty((batch, 0), dtype=np.uint8)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != received.shape:
            raise ValueError(
                f"weights shape {weights.shape} != received {received.shape}"
            )
        weights = weights.reshape(batch, n_steps, n_out)

    _outputs, from_state, input_bit, pred_branches, branch_pattern, all_patterns = (
        _cached_tables(code)
    )
    kernel = _compiled.viterbi_batch if _compiled.compiled_enabled() else _acs_numpy
    symbols = received.reshape(batch, n_steps, n_out)
    decoded = np.empty((batch, n_steps), dtype=np.uint8)
    for start in range(0, batch, _SWEEP_ROWS):
        rows = slice(start, start + _SWEEP_ROWS)
        block_weights = None if weights is None else weights[rows]
        decoded[rows] = kernel(
            _pattern_costs(symbols[rows], block_weights, all_patterns),
            branch_pattern,
            from_state,
            input_bit,
            pred_branches,
            terminated,
        )

    if terminated:
        tail = code.tail_bits()
        if tail:
            decoded = decoded[:, :-tail]
    return decoded


def _pattern_costs(
    symbols: np.ndarray, weights: np.ndarray | None, all_patterns: np.ndarray
) -> np.ndarray:
    """Per-step costs for every possible output pattern.

    ``cost_pattern[b, step, p]`` = (weighted) count of usable symbol
    bits differing from pattern ``p``.  Branch costs are gathers from
    this — identical floats to the per-branch computation (same terms,
    same summation order over the symbol axis).  A function of its own
    so the intermediate tensors are freed before the ACS runs.
    """
    usable = symbols != ERASED
    diffs = all_patterns[None, None, :, :] != symbols[:, :, None, :]
    effective = (diffs & usable[:, :, None, :]).astype(np.float64)
    if weights is not None:
        effective *= weights[:, :, None, :]
    return effective.sum(axis=3)


def _acs_numpy(
    cost_pattern: np.ndarray,
    branch_pattern: np.ndarray,
    from_state: np.ndarray,
    input_bit: np.ndarray,
    pred_branches: np.ndarray,
    terminated: bool,
) -> np.ndarray:
    """Numpy reference add-compare-select + traceback (all batch rows).

    The executable reference for :func:`repro.compiled.viterbi_batch`;
    the compiled twin must stay byte-identical to this.  Survivors are
    stored as the 1-bit choice between a state's two predecessor
    branches (uint8), and traceback resolves the branch through
    ``pred_branches``.
    """
    batch, n_steps, _ = cost_pattern.shape
    n_states = pred_branches.shape[0]
    # Gathers through pred_branches hoisted out of the step loop: the
    # candidate metric of predecessor k of every state, as one add.
    pred_from = from_state[pred_branches]
    pred_pattern = branch_pattern[pred_branches]

    step_costs = np.ascontiguousarray(cost_pattern.transpose(1, 0, 2))

    big = np.float64(1e9)
    metrics = np.full((batch, n_states), big)
    metrics[:, 0] = 0.0  # encoder starts in state 0
    survivors = np.empty((batch, n_steps, n_states), dtype=np.uint8)

    for step in range(n_steps):
        two_way = metrics[:, pred_from]  # (batch, n_states, 2)
        two_way += step_costs[step][:, pred_pattern]
        first, second = two_way[..., 0], two_way[..., 1]
        # Strict < keeps the first predecessor on ties; the surviving
        # metric is the smaller of the two either way.
        np.less(second, first, out=survivors[:, step, :])
        metrics = np.minimum(first, second)

    if terminated:
        state = np.zeros(batch, dtype=np.int64)
    else:
        state = np.argmin(metrics, axis=1)  # first minimum, like scalar
    decoded = np.empty((batch, n_steps), dtype=np.uint8)
    rows = np.arange(batch)
    for step in range(n_steps - 1, -1, -1):
        branch = pred_branches[state, survivors[rows, step, state]]
        decoded[:, step] = input_bit[branch]
        state = from_state[branch]
    return decoded
