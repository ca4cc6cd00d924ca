"""Message envelopes.

The network layer moves opaque *payloads* between named sites inside an
:class:`Envelope` that records routing metadata. Protocol payloads (data
requests, Vm transfers, 2PC votes, ...) are defined by the layers that
use them; the network neither inspects nor depends on payload types.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

_envelope_ids = itertools.count(1)


@dataclass
class Envelope:
    """One message in flight from *src* to *dst*.

    ``envelope_id`` identifies the physical transmission (a retransmitted
    or duplicated message gets a fresh envelope); end-to-end identity
    lives inside the payload (e.g. a Vm sequence number).
    """

    src: str
    dst: str
    payload: Any
    sent_at: float = 0.0
    envelope_id: int = field(default_factory=_envelope_ids.__next__)
    duplicated: bool = False

    def kind(self) -> str:
        """Short payload type name, used for metrics."""
        return type(self.payload).__name__
