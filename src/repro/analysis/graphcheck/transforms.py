"""Value numbering for the GC005 common-subexpression check (:mod:`.passes`).

Value numbering keys by data: two leaves share a number when their
*data* matches (shape + dtype + fingerprint), and op keys include an
output-data fingerprint.  ``x + y`` computed twice from equal arrays is
a caching opportunity regardless of where the arrays came from.
"""

from __future__ import annotations

import zlib

from .ir import GraphIR, IRNode

__all__ = ["value_number"]


def value_number(ir: GraphIR) -> dict[int, int]:
    """Assign interned value numbers to every node (see module docstring).

    Keys are interned to small integers so a key never nests another
    key: hashing stays O(fan-in) per node instead of exploding with
    graph depth.
    """
    numbers: dict[tuple, int] = {}
    vn: dict[int, int] = {}
    for n in ir:
        if n.is_leaf:
            key = ("leaf", n.requires_grad, _data_fingerprint(n))
        else:
            key = (n.op, tuple(vn[i] for i in n.inputs),
                   _data_fingerprint(n))
        vn[n.id] = numbers.setdefault(key, len(numbers))
    return vn


def _data_fingerprint(n: IRNode) -> tuple:
    if n.data is None:
        return ("nodata", n.id)
    return (n.data.shape, str(n.data.dtype), zlib.adler32(n.data.tobytes()))
