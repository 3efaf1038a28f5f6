"""Neural-network functionals built on :class:`repro.autograd.tensor.Tensor`.

These free functions are the building blocks used by :mod:`repro.nn` layers
and by the RefFiL losses (cross-entropy, the GPL loss, the DPCL contrastive
loss).  Convolution, the two normalisations and the transformer
block's layers (attention, GELU, softmax, log-softmax, the affine map) are
implemented as primitive :class:`~repro.autograd.tape.Op`s with hand-written
backward passes (im2col / col2im; one fused kernel per layer) because
expressing them through elementary ops costs a Python dispatch, an array and a
backward closure per elementary op; registering them as ops (rather than
ad-hoc closures) makes them recordable on a tape like every other operation.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.autograd.tape import Op
from repro.autograd.tensor import Tensor, apply_op

IntOrPair = Union[int, Tuple[int, int]]


def _pair(value: IntOrPair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        return value
    return (int(value), int(value))


# --------------------------------------------------------------------------- #
# Activations
# --------------------------------------------------------------------------- #
def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.relu()


_GELU_CUBIC = 0.044715
_GELU_SCALE = 0.7978845608028654  # sqrt(2 / pi)


def _gelu_forward(ctx, x):
    inner = x * x
    inner *= x
    inner *= _GELU_CUBIC
    inner += x
    inner *= _GELU_SCALE
    tanh = np.tanh(inner, out=inner)
    out = x * 0.5
    out *= tanh + 1.0
    ctx.x = x
    ctx.tanh = tanh
    return out


def _gelu_vjp(ctx, grad, needs):
    x, tanh = ctx.x, ctx.tanh
    # d/dx [x/2 (1 + t)] = (1 + t)/2 + x/2 (1 - t^2) t'(x)
    slope = x * x
    slope *= 3.0 * _GELU_CUBIC * _GELU_SCALE
    slope += _GELU_SCALE
    slope *= 1.0 - tanh * tanh
    slope *= x
    slope += tanh
    slope += 1.0
    slope *= 0.5
    slope *= grad
    return (slope,)


GELU = Op("gelu", _gelu_forward, _gelu_vjp)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    return apply_op(GELU, (x,))


def _softmax_forward(ctx, x, *, axis):
    out = np.exp(x - x.max(axis=axis, keepdims=True))
    out /= out.sum(axis=axis, keepdims=True)
    ctx.out = out
    ctx.axis = axis
    return out


def _softmax_vjp(ctx, grad, needs):
    out = ctx.out
    grad_x = grad * out
    inner = grad_x.sum(axis=ctx.axis, keepdims=True)
    grad_x -= out * inner
    return (grad_x,)


def _log_softmax_forward(ctx, x, *, axis):
    out = x - x.max(axis=axis, keepdims=True)
    out -= np.log(np.exp(out).sum(axis=axis, keepdims=True))
    ctx.out = out
    ctx.axis = axis
    return out


def _log_softmax_vjp(ctx, grad, needs):
    grad_x = np.exp(ctx.out)
    grad_x *= grad.sum(axis=ctx.axis, keepdims=True)
    np.subtract(grad, grad_x, out=grad_x)
    return (grad_x,)


SOFTMAX = Op("softmax", _softmax_forward, _softmax_vjp)
LOG_SOFTMAX = Op("log_softmax", _log_softmax_forward, _log_softmax_vjp)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    return apply_op(SOFTMAX, (x,), axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    return apply_op(LOG_SOFTMAX, (x,), axis=axis)


def _attention_forward(ctx, q, k, v, *, heads, scale):
    # The composed graph's calls in its order: split heads, q kᵀ * scale,
    # softmax, weights @ v, merge heads.
    batch, tokens, dim = q.shape
    split = (batch, tokens, heads, dim // heads)
    q = q.reshape(split).transpose(0, 2, 1, 3)  # (B, H, T, Dh)
    k = k.reshape(split).transpose(0, 2, 1, 3)
    v = v.reshape(split).transpose(0, 2, 1, 3)
    scores = np.matmul(q, k.transpose(0, 1, 3, 2))
    scores *= scale
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights /= weights.sum(axis=-1, keepdims=True)
    context = np.matmul(weights, v)
    ctx.q, ctx.k, ctx.v, ctx.weights, ctx.scale = q, k, v, weights, scale
    return context.transpose(0, 2, 1, 3).reshape(batch, tokens, dim)


def _attention_vjp(ctx, grad, needs):
    # The composed backward's calls in its order.  Every intermediate has one
    # consumer, so no gradient is a sum the composed walk could order differently.
    q, k, v, weights = ctx.q, ctx.k, ctx.v, ctx.weights
    batch, heads, tokens, head_dim = q.shape
    merged = (batch, tokens, heads * head_dim)
    grad_context = grad.reshape(batch, tokens, heads, head_dim).transpose(0, 2, 1, 3)
    grad_q = grad_k = grad_v = None
    if needs[0] or needs[1]:
        grad_scores = np.matmul(grad_context, np.swapaxes(v, -1, -2))
        grad_scores *= weights
        grad_scores -= weights * grad_scores.sum(axis=-1, keepdims=True)
        grad_scores *= ctx.scale
        if needs[0]:
            grad_q = np.matmul(grad_scores, k).transpose(0, 2, 1, 3).reshape(merged)
        if needs[1]:
            grad_k = np.matmul(np.swapaxes(q, -1, -2), grad_scores)
            grad_k = grad_k.transpose(0, 3, 1, 2).reshape(merged)
    if needs[2]:
        grad_v = np.matmul(np.swapaxes(weights, -1, -2), grad_context)
        grad_v = grad_v.transpose(0, 2, 1, 3).reshape(merged)
    return (grad_q, grad_k, grad_v)


ATTENTION = Op("attention", _attention_forward, _attention_vjp)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, scale: float) -> Tensor:
    """Multi-head scaled dot-product attention over ``(B, T, D)`` projections.

    Splits ``D`` into ``heads`` heads, computes ``softmax(q kᵀ * scale) v`` per
    head and merges the heads back into ``(B, T, D)``, as one op.  Shapes are
    checked before anything runs.
    """
    if q.ndim != 3 or not q.shape == k.shape == v.shape:
        raise ValueError(
            f"attention: q, k and v must share one (B, T, D) shape, got "
            f"{tuple(q.shape)}, {tuple(k.shape)} and {tuple(v.shape)}"
        )
    if heads < 1 or q.shape[2] % heads:
        raise ValueError(f"attention: D = {q.shape[2]} does not split into {heads} heads")
    return apply_op(ATTENTION, (q, k, v), heads=int(heads), scale=float(scale))


# --------------------------------------------------------------------------- #
# Linear algebra helpers
# --------------------------------------------------------------------------- #
def _feature_grad(grad: np.ndarray) -> np.ndarray:
    """Sum ``grad`` over every axis a ``(d,)`` parameter broadcast along."""
    return grad.sum(axis=tuple(range(grad.ndim - 1)))


def _linear_forward(ctx, x, weight, *rest):
    # One GEMM whatever the rank of x: every axis but the feature axis folds
    # into rows.
    rows = x.reshape(-1, x.shape[-1])
    out = np.matmul(rows, weight.T)
    out = out.reshape(x.shape[:-1] + weight.shape[:1])
    if rest:
        out += rest[0]
    ctx.rows = rows
    ctx.weight = weight
    ctx.x_shape = x.shape
    return out


def _linear_vjp(ctx, grad, needs):
    rows, weight = ctx.rows, ctx.weight
    grad_rows = grad.reshape(-1, grad.shape[-1])
    grad_x = grad_w = grad_b = None
    if needs[0]:
        grad_x = np.matmul(grad_rows, weight).reshape(ctx.x_shape)
    if needs[1]:
        grad_w = np.matmul(grad_rows.T, rows)
    if len(needs) > 2 and needs[2]:
        grad_b = grad_rows.sum(axis=0)
    return (grad_x, grad_w, grad_b)[: len(needs)]


LINEAR = Op("linear", _linear_forward, _linear_vjp)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine transform ``x @ weight.T + bias`` (PyTorch convention)."""
    return apply_op(LINEAR, (x, weight) if bias is None else (x, weight, bias))


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Normalise ``x`` to unit L2 norm along ``axis``."""
    norm = (x * x).sum(axis=axis, keepdims=True).sqrt()
    return x / (norm + eps)


def cosine_similarity(a: Tensor, b: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Cosine similarity between ``a`` and ``b`` along ``axis``."""
    a_norm = l2_normalize(a, axis=axis, eps=eps)
    b_norm = l2_normalize(b, axis=axis, eps=eps)
    return (a_norm * b_norm).sum(axis=axis)


# --------------------------------------------------------------------------- #
# Normalisation
# --------------------------------------------------------------------------- #
def _layer_norm_forward(ctx, x, *affine, eps):
    width = x.shape[-1]
    centred = x - x.sum(axis=-1, keepdims=True) * (1.0 / width)
    var = (centred * centred).sum(axis=-1, keepdims=True) * (1.0 / width)
    std = np.sqrt(var + eps)
    xhat = np.divide(centred, std, out=centred)
    ctx.xhat = xhat
    ctx.std = std
    ctx.weight = affine[0] if affine else None
    if not affine:
        return xhat
    out = xhat * affine[0]
    if len(affine) > 1:
        out += affine[1]
    return out


def _layer_norm_vjp(ctx, grad, needs):
    xhat, weight = ctx.xhat, ctx.weight
    grad_x = grad_w = grad_b = None
    if len(needs) > 1 and needs[1]:
        grad_w = _feature_grad(grad * xhat)
    if len(needs) > 2 and needs[2]:
        grad_b = _feature_grad(grad)
    if needs[0]:
        grad_hat = grad if weight is None else grad * weight
        scale = 1.0 / xhat.shape[-1]
        grad_x = xhat * ((grad_hat * xhat).sum(axis=-1, keepdims=True) * scale)
        np.subtract(grad_hat, grad_x, out=grad_x)
        grad_x -= grad_hat.sum(axis=-1, keepdims=True) * scale
        grad_x /= ctx.std
    return (grad_x, grad_w, grad_b)[: len(needs)]


LAYER_NORM = Op("layer_norm", _layer_norm_forward, _layer_norm_vjp)


def layer_norm(
    x: Tensor,
    weight: Optional[Tensor] = None,
    bias: Optional[Tensor] = None,
    eps: float = 1e-5,
) -> Tensor:
    """Layer normalisation over the last dimension."""
    if weight is None:
        normed = apply_op(LAYER_NORM, (x,), eps=eps)
        return normed if bias is None else normed + bias
    return apply_op(LAYER_NORM, (x, weight) if bias is None else (x, weight, bias), eps=eps)


def _per_channel(stat: np.ndarray) -> np.ndarray:
    """View ``(C,)`` as ``(C, 1, 1, 1)``, to broadcast over a batch-last map."""
    return stat.reshape(-1, 1, 1, 1)


def _batch_norm_forward(
    ctx, x, weight, bias, *, running_mean, running_var, training, momentum, eps
):
    ctx.training = training
    ctx.weight = weight
    if training:
        count = x.size // x.shape[0]
        mean = np.einsum("chwn->c", x) / count
        xhat = x - _per_channel(mean)
        var = np.einsum("chwn,chwn->c", xhat, xhat) / count
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat *= _per_channel(inv_std)
        out = xhat * _per_channel(weight)
        out += _per_channel(bias)
        ctx.count = count
        ctx.xhat = xhat
        ctx.inv_std = inv_std
        return out
    inv_std = 1.0 / np.sqrt(running_var + eps)
    scale = weight * inv_std
    out = x * _per_channel(scale)
    out += _per_channel(bias - running_mean * scale)
    ctx.x = x
    ctx.mean = running_mean
    ctx.inv_std = inv_std
    return out


def _batch_norm_vjp(ctx, grad, needs):
    need_x, need_w, need_b = needs
    training = ctx.training
    grad_x = grad_w = grad_b = None
    # Batch statistics depend on x, so its gradient needs both reductions.
    if need_b or (need_x and training):
        grad_b = np.einsum("chwn->c", grad)
    if need_w or (need_x and training):
        if training:
            xhat = ctx.xhat
        else:
            xhat = (ctx.x - _per_channel(ctx.mean)) * _per_channel(ctx.inv_std)
        grad_w = np.einsum("chwn,chwn->c", grad, xhat)
    if need_x:
        scale = ctx.weight * ctx.inv_std
        if training:
            grad_x = xhat * _per_channel(grad_w / ctx.count)
            np.subtract(grad, grad_x, out=grad_x)
            grad_x -= _per_channel(grad_b / ctx.count)
            grad_x *= _per_channel(scale)
        else:
            grad_x = grad * _per_channel(scale)
    return (grad_x, grad_w if need_w else None, grad_b if need_b else None)


#: ``effect`` flags the records whose forward writes its running-stat kwargs.
BATCH_NORM = Op(
    "batch_norm", _batch_norm_forward, _batch_norm_vjp, effect=lambda kwargs: kwargs["training"]
)


def batch_norm_2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalisation for batch-last ``(C, H, W, N)`` feature maps.

    ``running_mean`` / ``running_var`` are plain numpy buffers: normalised
    against when ``training`` is false, updated in place (biased batch
    variance) when it is true.  Both modes are differentiable in ``x``,
    ``weight`` and ``bias``.  Shapes are checked before anything is written.
    """
    if x.ndim != 4 or not (
        weight.shape == bias.shape == running_mean.shape == running_var.shape == x.shape[:1]
    ):
        shapes = [tuple(a.shape) for a in (weight, bias, running_mean, running_var)]
        raise ValueError(
            f"batch_norm_2d: a (C, H, W, N) input of shape {tuple(x.shape)} needs weight, "
            f"bias, running_mean and running_var of shape (C,), got {shapes}"
        )
    return apply_op(
        BATCH_NORM,
        (x, weight, bias),
        running_mean=running_mean,
        running_var=running_var,
        training=training,
        momentum=momentum,
        eps=eps,
    )


# --------------------------------------------------------------------------- #
# Convolution (a primitive op with custom backward)
# --------------------------------------------------------------------------- #
# Feature maps are batch-last, ``(C, H, W, N)``: an unfold copies rows of ``out_w * N``
# values, and the conv and both of its gradients are 2-D GEMMs over the whole batch.
def _im2col(
    x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int], padding: Tuple[int, int]
) -> Tuple[np.ndarray, int, int]:
    """Unfold ``(C, H, W, N)`` into ``(C*kh*kw, out_h*out_w*N)`` columns."""
    c, h, w, n = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    if kernel == (1, 1) and padding == (0, 0):
        # One tap per output pixel: the columns are the (strided) map itself.
        return x[:, ::sh, ::sw].reshape(c, out_h * out_w * n), out_h, out_w
    if ph or pw:
        padded = np.zeros((c, h + 2 * ph, w + 2 * pw, n), dtype=x.dtype)
        padded[:, ph : ph + h, pw : pw + w] = x
    else:
        padded = x
    cols = np.empty((c, kh, kw, out_h, out_w, n), dtype=x.dtype)
    for i in range(kh):
        i_max = i + sh * out_h
        for j in range(kw):
            j_max = j + sw * out_w
            cols[:, i, j] = padded[:, i:i_max:sh, j:j_max:sw]
    return cols.reshape(c * kh * kw, out_h * out_w * n), out_h, out_w


def _col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Fold columns back into a map, accumulating overlaps (conv backward)."""
    c, h, w, n = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    if kernel == (1, 1) and padding == (0, 0):
        # The inverse of :func:`_im2col`'s one-tap case: nothing overlaps.
        if stride == (1, 1):
            return cols.reshape(x_shape)
        image = np.zeros(x_shape, dtype=cols.dtype)
        image[:, ::sh, ::sw] = cols.reshape(c, out_h, out_w, n)
        return image
    padded = np.zeros((c, h + 2 * ph, w + 2 * pw, n), dtype=cols.dtype)
    cols = cols.reshape(c, kh, kw, out_h, out_w, n)
    for i in range(kh):
        i_max = i + sh * out_h
        for j in range(kw):
            j_max = j + sw * out_w
            padded[:, i:i_max:sh, j:j_max:sw] += cols[:, i, j]
    if ph == 0 and pw == 0:
        return padded
    return padded[:, ph : ph + h, pw : pw + w]


def _conv2d_forward(ctx, x, weight, *rest, stride, padding):
    bias = rest[0] if rest else None
    c_out = weight.shape[0]
    kernel = (weight.shape[2], weight.shape[3])
    cols, out_h, out_w = _im2col(x, kernel, stride, padding)
    w_mat = weight.reshape(c_out, -1)
    out = (w_mat @ cols).reshape(c_out, out_h, out_w, x.shape[3])
    if bias is not None:
        out += _per_channel(bias)
    ctx.cols, ctx.w_mat, ctx.x_shape, ctx.w_shape = cols, w_mat, x.shape, weight.shape
    ctx.geometry = (kernel, stride, padding, out_h, out_w)
    return out


def _conv2d_vjp(ctx, grad, needs):
    grad_mat = grad.reshape(ctx.w_shape[0], -1)
    grad_x = grad_w = grad_b = None
    if needs[1]:
        grad_w = (grad_mat @ ctx.cols.T).reshape(ctx.w_shape)
    if len(needs) > 2 and needs[2]:
        grad_b = grad_mat.sum(axis=1)
    if needs[0]:
        grad_x = _col2im(ctx.w_mat.T @ grad_mat, ctx.x_shape, *ctx.geometry)
    return (grad_x, grad_w, grad_b)[: len(needs)]


CONV2D = Op("conv2d", _conv2d_forward, _conv2d_vjp)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntOrPair = 1,
    padding: IntOrPair = 0,
) -> Tensor:
    """2-D convolution of a batch-last ``(C_in, H, W, N)`` map into ``(C_out, out_h, out_w, N)``.

    ``weight`` is ``(C_out, C_in, kh, kw)`` and ``bias`` ``(C_out,)``; shapes are
    checked before anything runs.
    """
    stride, padding = _pair(stride), _pair(padding)
    if min(stride) < 1:
        raise ValueError(f"conv2d: stride must be positive, got {stride}")
    if min(padding) < 0:
        raise ValueError(f"conv2d: padding must be non-negative, got {padding}")
    if x.ndim != 4 or weight.ndim != 4 or x.shape[0] != weight.shape[1]:
        raise ValueError(
            f"conv2d: a (C_in, H, W, N) input of shape {tuple(x.shape)} does not match "
            f"(C_out, C_in, kh, kw) weights of shape {tuple(weight.shape)}"
        )
    if bias is not None and tuple(bias.shape) != (weight.shape[0],):
        raise ValueError(
            f"conv2d: bias of shape {tuple(bias.shape)} is not (C_out,) = ({weight.shape[0]},)"
        )
    kh, kw = weight.shape[2:]
    if min(kh, kw) < 1 or x.shape[1] + 2 * padding[0] < kh or x.shape[2] + 2 * padding[1] < kw:
        raise ValueError(
            f"conv2d: a {kh}x{kw} window with padding {padding} does not fit "
            f"a (C, H, W, N) input of shape {tuple(x.shape)}"
        )
    inputs = (x, weight) if bias is None else (x, weight, bias)
    return apply_op(CONV2D, inputs, stride=stride, padding=padding)


# --------------------------------------------------------------------------- #
# Losses
# --------------------------------------------------------------------------- #
def _reduce(loss: Tensor, reduction: str) -> Tensor:
    """Apply a loss ``reduction``: ``"mean"``, ``"sum"`` or ``"none"``."""
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    if reduction == "none":
        return loss
    raise ValueError(f"unknown reduction {reduction!r}")


def nll_loss(log_probs: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood of integer ``targets`` under ``log_probs``."""
    targets = np.asarray(targets, dtype=np.int64)
    n = log_probs.shape[0]
    picked = log_probs[np.arange(n), targets]
    return _reduce(-picked, reduction)


def cross_entropy(logits: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Cross-entropy between ``logits`` and integer class ``targets``."""
    return nll_loss(log_softmax(logits, axis=-1), targets, reduction=reduction)


def soft_cross_entropy(logits: Tensor, soft_targets: Tensor, reduction: str = "mean") -> Tensor:
    """Cross-entropy against a probability distribution (used by LwF distillation)."""
    log_probs = log_softmax(logits, axis=-1)
    return _reduce(-(soft_targets * log_probs).sum(axis=-1), reduction)


def knowledge_distillation_loss(
    student_logits: Tensor, teacher_logits: Tensor, temperature: float = 2.0
) -> Tensor:
    """Hinton-style KD loss used by FedLwF.

    The teacher distribution is detached; the loss is scaled by ``T**2`` as is
    conventional so gradient magnitudes stay comparable across temperatures.
    """
    teacher_probs = softmax(teacher_logits.detach() / temperature, axis=-1)
    return soft_cross_entropy(student_logits / temperature, teacher_probs) * (temperature ** 2)


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Look up rows of ``weight`` by integer ``indices``."""
    indices = np.asarray(indices, dtype=np.int64)
    return weight[indices]


__all__ = [
    "relu",
    "gelu",
    "softmax",
    "log_softmax",
    "attention",
    "linear",
    "l2_normalize",
    "cosine_similarity",
    "layer_norm",
    "batch_norm_2d",
    "conv2d",
    "nll_loss",
    "cross_entropy",
    "soft_cross_entropy",
    "knowledge_distillation_loss",
    "embedding",
]
