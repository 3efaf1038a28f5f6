"""Reverse-mode automatic differentiation on numpy arrays.

This subpackage is the numerical substrate of the whole reproduction: the
paper's implementation relies on PyTorch, which is not available in this
environment, so ``repro.autograd`` provides a small but complete tape-based
autodiff engine with the operations needed by the RefFiL pipeline
(convolutions, attention, normalisation, contrastive and cross-entropy
losses).

Public entry points:

* :class:`repro.autograd.tensor.Tensor` -- the differentiable array type.
* :mod:`repro.autograd.functional` -- neural-network functionals
  (softmax, cross_entropy, conv2d, conv_bn, cosine_similarity, ...).
* :mod:`repro.autograd.tape` -- the op table every tensor operation routes
  through, plus the tape recording and plan cache the serving plane compiles
  its forward-only plans from.
* :func:`repro.autograd.grad_check.numerical_gradient` -- finite-difference
  gradient checking used by the test-suite.
"""

from repro.autograd.tensor import (
    Tensor,
    no_grad,
    get_default_dtype,
    set_default_dtype,
    default_dtype,
)
from repro.autograd.tape import PlanCache, PlanError, Tape, tracing
from repro.autograd import functional

__all__ = [
    "Tensor",
    "no_grad",
    "get_default_dtype",
    "set_default_dtype",
    "default_dtype",
    "PlanCache",
    "PlanError",
    "Tape",
    "tracing",
    "functional",
]
