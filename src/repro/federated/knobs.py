"""``python -m repro.federated.knobs`` prints the README's knob table (an entry
module of its own, so ``config.py`` is not imported twice, once as ``__main__``)."""
from repro.federated.config import knob_table

print(knob_table())
