"""Module / Parameter container system (a compact ``torch.nn.Module`` analogue).

Modules track parameters, buffers and sub-modules by attribute assignment and
expose ``state_dict`` / ``load_state_dict`` for the FedAvg aggregation in
:mod:`repro.federated.aggregation`, which operates directly on flat
name-to-array dictionaries.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor, get_default_dtype


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as trainable by a :class:`Module`.

    Its trainability is what the constructor asked for, whatever the grad
    mode: a module built under ``no_grad()`` trains (and keeps its
    ``state_dict`` entries) like one built outside it.
    """

    def __init__(self, data, requires_grad: bool = True, name: Optional[str] = None) -> None:
        super().__init__(data, name=name)
        self.requires_grad = bool(requires_grad)


class Module:
    """Base class for all neural-network modules."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # ------------------------------------------------------------------ #
    # Registration by attribute assignment
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, array: np.ndarray) -> None:
        """Register a non-trainable persistent array (e.g. BatchNorm running stats)."""
        self._buffers[name] = np.asarray(array, dtype=get_default_dtype())
        object.__setattr__(self, name, self._buffers[name])

    def add_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def parameters(self) -> List[Parameter]:
        return [param for _, param in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buffer in self._buffers.items():
            yield prefix + name, buffer
        for child_name, child in self._modules.items():
            yield from child.named_buffers(prefix=f"{prefix}{child_name}.")

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for child_name, child in self._modules.items():
            yield from child.named_modules(prefix=f"{prefix}{child_name}.")

    def children(self) -> List["Module"]:
        return list(self._modules.values())

    # ------------------------------------------------------------------ #
    # Modes / gradients
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def freeze(self) -> "Module":
        """Mark every parameter as non-trainable (used for the frozen tokenizer).

        A frozen parameter leaves :meth:`state_dict`: it keeps its
        construction value and never travels or averages."""
        for param in self.parameters():
            param.requires_grad = False
        return self

    # ------------------------------------------------------------------ #
    # State dict
    # ------------------------------------------------------------------ #
    def _state_arrays(self) -> Dict[str, np.ndarray]:
        """Name -> live array of the model's state: what local training can
        change, every trainable parameter and every buffer.  Frozen parameters
        (``requires_grad=False``) come from construction, like the
        architecture, so they are never shipped, averaged or checkpointed."""
        arrays: Dict[str, np.ndarray] = OrderedDict(
            (name, param.data) for name, param in self.named_parameters() if param.requires_grad
        )
        for name, buffer in self.named_buffers():
            arrays[f"buffer::{name}"] = buffer
        return arrays

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat name -> array copy of the model's state (see :meth:`_state_arrays`)."""
        return OrderedDict((key, array.copy()) for key, array in self._state_arrays().items())

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load arrays produced by :meth:`state_dict` (in place).

        Raises ``KeyError`` naming every missing and every unexpected key (a
        frozen parameter's key is unexpected) before any array is written.
        """
        targets = self._state_arrays()
        missing = [key for key in targets if key not in state]
        unexpected = [key for key in state if key not in targets]
        if missing or unexpected:
            raise KeyError(
                f"state_dict mismatch: missing keys {missing}, unexpected keys {unexpected}"
            )
        for key, target in targets.items():
            value = np.asarray(state[key])
            if value.shape != target.shape:
                raise ValueError(f"shape mismatch for {key!r}: {value.shape} vs {target.shape}")
            target[...] = value

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """A list of sub-modules that are all properly registered."""

    def __init__(self, modules: Optional[List[Module]] = None) -> None:
        super().__init__()
        self._order: List[str] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        name = str(len(self._order))
        self.add_module(name, module)
        self._order.append(name)
        return self

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self):
        return iter(self._modules[name] for name in self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]

    def forward(self, *args, **kwargs):  # pragma: no cover - containers have no forward
        raise NotImplementedError("ModuleList is a container and cannot be called")


__all__ = ["Module", "Parameter", "ModuleList"]
