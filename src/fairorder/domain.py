"""Core vocabulary: invocations, the quorum median, adversary plans, command
ids, tie keys, the node bound, the one rule for exact ratios and the
package's one SHA-2 binding.

All times are integer microseconds. Timestamps must fit in 63 bits so that
sums with noise never overflow on any platform.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

MAX_TIMESTAMP = 2**63 - 1
US_PER_MS = 1000
# The most nodes a topology or oracle may have: memory, and the n - f tags of
# every certificate, grow linearly in n.
MAX_NODES = 2**16


def _sha2_constructors() -> tuple:
    """CPython's own SHA-256 and SHA-512 constructors (FIPS 180-4): ``_sha2``'s
    on 3.12+, ``_sha256``'s and ``_sha512``'s before.  On the short messages
    the package hashes, their ``copy``, ``update`` and ``digest`` skip the
    per-call cost of OpenSSL's EVP layer behind ``hashlib``'s.  A build
    configured without them gets ``hashlib``'s, which give the same digests.
    """
    try:
        from _sha2 import sha256, sha512
    except ImportError:
        try:
            from _sha256 import sha256
            from _sha512 import sha512
        except ImportError:
            from hashlib import sha256, sha512
    return sha256, sha512


# Every SHA-256 and SHA-512 in the package is made here.
sha256, sha512 = _sha2_constructors()


class ContractError(ValueError):
    """A caller violated an operation's precondition."""


def exact_ratio(x, what: str) -> Fraction:
    """``x`` as an exact ``Fraction``: an int, a ``Fraction`` or text such as
    ``"1/5"`` or ``"0.2"``.  A float (0.2 is 3602879701896397 / 2^54) or
    anything ``Fraction`` cannot read is a ``ContractError`` naming ``what``."""
    if isinstance(x, float):
        raise ContractError(
            f"pass {what} as Fraction, int, or string (floats are not exact rationals)"
        )
    try:
        return x if type(x) is Fraction else Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ContractError(f"expected {what} as an exact ratio such as 1/5, got {x!r}") from exc


def quorum_median(reports, f: int, high: bool = False) -> int:
    """The assigned timestamp of a command whose n nodes made ``reports``.

    Its client submits 2f+1 of the reports and the median of those is the
    assigned timestamp: the (f+1)-th smallest report for an honest client,
    which takes the earliest responders, or the (f+1)-th largest for one
    that picks the late quorum (``high``).  As long as at most f reports
    are adversarial, either is bounded on both sides by correct nodes'
    reports.
    """
    ts = sorted(reports)
    if f < 0 or len(ts) < 2 * f + 1:
        raise ContractError(f"a quorum median needs f >= 0 and 2f+1 reports, got f={f}, {len(ts)}")
    return ts[-f - 1] if high else ts[f]


QUORUM_LOW = "low"
QUORUM_HIGH = "high"


@dataclass(frozen=True)
class CommandPlan:
    """What the adversary does to one command's stamp.

    reports: the colluders' (node id, reported timestamp) pairs (mechanism
      model: colluding nodes lie, honest nodes report normally).
    bias: None, "low" or "high"; the command's client picks the quorum that
      pushes its median down or up.
    ats: the assigned timestamp (interval model; clamped into the command's
      legal window at application time), or None.
    """

    reports: tuple = ()
    bias: str | None = None
    ats: int | None = None


def clamp_to_window(ats: int, invoke_time: int, delta_net_us: int) -> int:
    return min(max(ats, invoke_time), invoke_time + delta_net_us)


@dataclass(frozen=True)
class Invocation:
    """A client command, its true send time and the city it is sent from.

    Only the send time may decide its order.  The city is the network
    advantage equal opportunity must not reward: only ``netmodel.observe``
    turns it into receive times, and no ordering key ever sees it.
    """

    command_id: bytes
    invoke_time: int
    origin_city: str

    def __post_init__(self):
        if self.invoke_time < 0:
            raise ContractError("invoke_time must be >= 0")


_INT_PART = struct.Struct(">Iq").pack  # an int part: length 8, then the int


def encode_id_part(p) -> bytes:
    """One id part as hashed: its 4-byte length, then its bytes; an int is
    8 bytes two's complement (outside the signed 64-bit range it is a
    ``ContractError``), a str its UTF-8."""
    if isinstance(p, int):
        try:
            return _INT_PART(8, p)
        except struct.error:
            raise ContractError(f"an id part must fit in a signed 64-bit integer, got {p}") from None
    if isinstance(p, str):
        p = p.encode()
    return len(p).to_bytes(4, "big") + p


class CommandIds:
    """A table cell's command ids: ``CommandIds(tags, labels)(trial)`` is,
    for each label in order, the SHA-256 of the encoded tags, then the
    encoded trial, then the encoded label (``encode_id_part``; a part is an
    int, a str or bytes).

    The tags and labels are encoded, and so checked, when the deriver is
    made.  The tags are hashed once per cell, on the first use of
    ``prefix``, so a cell that derives no id hashes nothing.  Trial t's id
    for a label is ``prefix.copy()`` updated with ``encode_id_part(t) +
    label`` and digested: one copy, one update and one digest.  A caller
    that needs more than the ids per trial may derive them the same way
    inline, encoding the trial once.
    """

    def __init__(self, tags, labels):
        self._tags = b"".join(encode_id_part(tag) for tag in tags)
        self.labels = tuple(encode_id_part(label) for label in labels)

    @cached_property
    def prefix(self):
        """The SHA-256 state after the encoded tags; never updated."""
        return sha256(self._tags)

    def __call__(self, trial) -> list:
        trial = encode_id_part(trial)
        out = []
        for label in self.labels:
            h = self.prefix.copy()
            h.update(trial + label)
            out.append(h.digest())
        return out


def tie_break_key(slot_seed: bytes, command_id: bytes) -> bytes:
    """Deterministic per-command sort key for equal modified timestamps.

    Keyed by a slot seed rather than arrival order, so the outcome cannot
    encode irrelevant features like network position.
    """
    return sha256(slot_seed + command_id).digest()
