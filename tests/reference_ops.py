"""Reference forms the tests compare production ops against: a dense layer
and a dense stack as the primitive ops, and one recorded chain step as the
fine-tune chain makes it."""

from rewardtune import tensorad as ta
from rewardtune.inference import step_table


def dense(x, w, b):
    """A dense layer as ops: ``add(matmul(x, w), b)``, a one-row bias
    ``broadcast_rows`` over a batch's rows (``add`` takes no row operand) in
    its own dtype, so the sum with a bias of another dtype rounds once, from
    the wider one, as ``mlp`` adds it."""
    y = ta.matmul(x, w)
    with ta.default_dtype(b.data.dtype):
        b = ta.broadcast_rows(b, y.data.shape)
    return ta.add(y, b)


def written_out_mlp(parts, layers, act):
    """``mlp`` written out: broadcast_rows, concat, then per layer the
    dense layer and ``act`` below the last."""
    rows = [p.data.shape[0] for p in parts if p.data.ndim == 2]
    if rows:
        parts = [ta.broadcast_rows(p, (rows[0], p.data.shape[0])) if p.data.ndim == 1 else p
                 for p in parts]
    x = ta.concat(parts) if len(parts) > 1 else parts[0]
    for i, (w, b) in enumerate(layers):
        x = dense(x, w, b)
        if i < len(layers) - 1:
            x = getattr(ta, act)(x)
    return x


def taped_step(denoiser, t, t_prev, z, c, w, sampler, sched):
    """One transition as the fine-tune chain records it: the constants and
    buffer of a one-transition ``step_table``, then one ``ta.mlp_step``."""
    ((temb, pairs),), buffer = step_table(denoiser, [(t, t_prev)], z, c, w, sampler, sched)
    return ta.mlp_step(z, temb, pairs, buffer)
