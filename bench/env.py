"""The benchmark's set-up: what a fresh process does before its first operation."""
from __future__ import annotations

# the targets the workloads colour into; set-up computes each one's automorphisms
TARGETS = ("C3", "TT1", "TT2", "TT3", "TT4", "TT5", "T4", "T5")


def set_up():
    """Import the package, load the six gadget assets, build the named targets.

    Returns (gadgets by name, targets by name).  The import happens here so a
    fresh process can time it.
    """
    import injhom

    gadgets = {name: injhom.load_gadget(name) for name in injhom.gadgets.ASSET_NAMES}
    targets = {name: injhom.named_target(name) for name in TARGETS}
    for t in targets.values():
        t.automorphisms()
    return gadgets, targets
