"""Secret random oracle: quorum-gated, verifiable randomness per slot index.

Two interchangeable backends:

* ``SEEDED_HASH`` models a sealed enclave holding a shared secret seed;
  the oracle value for slot k is SHA-512("reveal" || seed || k) and the
  proof is SHA-512("proof" || value), k as 8 big-endian bytes.
* ``THRESHOLD_DPRF`` is a discrete-log threshold distributed PRF: Shamir
  shares s_i of a master secret s over a prime field of order p, share
  values s_i * h(k) mod p, commitments g^{s_i} in an order-p subgroup,
  and Lagrange combination at 0.  Any quorum of valid shares yields the
  same value; fewer reveal nothing about it.

Node "signatures" over a slot index are keyed BLAKE2b tags (RFC 7693's
MAC mode) under per-node keys, all cut from one SHAKE-256 output; the
oracle acts as the trusted verifier of those tags.  That is enough
unforgeability for a deterministic simulation.

The oracle is stateless after init: every certificate check, reveal and
proof is computed afresh from the keys and the call's arguments; a
reveal checks its certificate once, then each share it combines.

The oracle's public material is one ``VerificationKey``, fixed at init:
``verify`` checks a proof against it alone, so a threshold proof is just
its quorum of shares and a seeded proof just its digest.

Still open (ROADMAP item 2 has the repros): secrecy across slots, as one
threshold proof yields every slot's value, and seeded validity, as a
seeded proof is a public hash that anyone can compute for any value.
"""

from __future__ import annotations

import hashlib
import hmac
import math
import struct
from dataclasses import dataclass
from enum import Enum

from .domain import MAX_NODES, ContractError, sha512


class SroError(Exception):
    """Base class for reveal-protocol failures."""


class InvalidSignatureSet(SroError):
    """Fewer than n - f valid, distinct signatures over the slot index."""


class InsufficientValidShares(SroError):
    """Too many invalid shares: no quorum left to combine."""


class Backend(Enum):
    SEEDED_HASH = "seeded"
    THRESHOLD_DPRF = "threshold"


# 1536-bit MODP group (RFC 3526 group 5).  q is a safe prime, so the
# quadratic residues form a subgroup of prime order p = (q - 1) / 2,
# generated by 4.  p far exceeds the 2^128 floor required outside test mode.
_MODP1536_Q = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF",
    16,
)


@dataclass(frozen=True)
class GroupParams:
    """Multiplicative group modulo q with a generator g of prime order p."""

    q: int
    p: int
    g: int


def production_group() -> GroupParams:
    return GroupParams(q=_MODP1536_Q, p=(_MODP1536_Q - 1) // 2, g=4)


MAX_TEST_FIELD = 2**20  # keeps trial division of p and q = k*p + 1 instant


def _is_prime(n: int) -> bool:
    if n < 3:
        return n == 2
    return n % 2 == 1 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def small_field_group(p: int) -> GroupParams:
    """Embed the order-p field in the smallest group q = k*p + 1.

    Test-mode fields are below MAX_TEST_FIELD, so a linear search for a
    prime q and a generator of the order-p subgroup is instant.
    """
    if not (p < MAX_TEST_FIELD and _is_prime(p)):
        raise ContractError(f"test field modulus {p} is not a prime below {MAX_TEST_FIELD}")
    k = 2
    while not _is_prime(k * p + 1):
        k += 2 if p % 2 else 1
    q = k * p + 1
    # x -> x^((q-1)/p) maps the cyclic group mod q onto its order-p
    # subgroup, so some x in 2..q-1 maps to a generator g != 1
    x = 2
    while (g := pow(x, (q - 1) // p, q)) == 1:
        x += 1
    return GroupParams(q=q, p=p, g=g)


@dataclass(frozen=True)
class SroConfig:
    n: int
    f: int
    backend: Backend
    test_field: int | None = None  # small prime p > n; None selects the production group

    def __post_init__(self):
        if self.f < 0:
            raise ContractError(f"f must be >= 0, got {self.f}")
        if not 3 * self.f + 1 <= self.n <= MAX_NODES:
            raise ContractError(f"need 3f+1 <= n <= {MAX_NODES}, got n={self.n}, f={self.f}")
        if self.test_field is not None:
            if self.backend is Backend.SEEDED_HASH:
                raise ContractError("test_field applies only to the threshold backend")
            # shares sit at x = 1..n; x = p would be the secret itself
            if self.test_field <= self.n:
                raise ContractError(f"test_field must exceed n={self.n}, got {self.test_field}")

    @property
    def quorum(self) -> int:
        return self.n - self.f


@dataclass(frozen=True)
class RevealRequest:
    k: int
    signatures: frozenset  # {(node_id, tag_bytes)}

    def __post_init__(self):
        ids = [node for node, _ in self.signatures]
        if len(ids) != len(set(ids)):
            raise ContractError("duplicate node_id in signature set")


@dataclass(frozen=True)
class Share:
    node_id: int
    value: int  # s_i * h(k) mod p


@dataclass(frozen=True)
class VerificationKey:
    """The oracle's public material, fixed at init: ``verify`` checks
    against it and nothing else.  The threshold backend adds its group and
    each node's commitment C_i = g^{s_i}, as ((node_id, C_i), ...)."""

    backend: Backend
    quorum: int
    group: GroupParams | None = None
    commitments: tuple = ()


def _hash(*parts: bytes) -> bytes:
    h = sha512()
    for p in parts:
        h.update(p)
    return h.digest()


_SLOT_INDEX = struct.Struct(">Q").pack


def _k_bytes(k: int) -> bytes:
    try:
        return _SLOT_INDEX(k)
    except struct.error:
        raise ContractError("slot index must be an unsigned 64-bit integer") from None


def hash_to_field(k: int, p: int) -> int:
    """Map a slot index into [1, p-1]; zero would void the exponent check."""
    ctr = 0
    while True:
        h = int.from_bytes(_hash(b"h2f", _k_bytes(k), ctr.to_bytes(4, "big")), "big") % p
        if h != 0:
            return h
        ctr += 1


def _derive_int(seed: bytes, label: bytes, index: int, modulus: int) -> int:
    return int.from_bytes(_hash(b"derive", seed, label, index.to_bytes(4, "big")), "big") % modulus


def node_signing_keys(rng_seed: bytes, n: int) -> list:
    """Nodes 0..n-1's 32-byte signing keys, in order: one SHAKE-256 output
    (FIPS 202) of "sig-key" || rng_seed, cut into consecutive 32-byte keys.
    An extendable output, so the keys for n are a prefix of those for n + 1."""
    stream = hashlib.shake_256(b"sig-key" + rng_seed).digest(32 * n)
    return [stream[i:i + 32] for i in range(0, 32 * n, 32)]


def sign_slot(key: bytes, k: int) -> bytes:
    """Node ``key``'s 32-byte tag over slot index k: keyed BLAKE2b, one C call."""
    return hashlib.blake2b(_k_bytes(k), key=key, digest_size=32).digest()


class DprfNode:
    """One node's share holder, asked only once the slot's certificate passed."""

    def __init__(self, node_id, secret_share, p):
        self.node_id = node_id
        self._secret_share = secret_share
        self.p = p

    def produce_share(self, k: int) -> Share:
        h = hash_to_field(k, self.p)
        return Share(self.node_id, self._secret_share * h % self.p)


def share_is_valid(vk: VerificationKey, k: int, share: Share) -> bool:
    """Check g^value == C_i^{h(k)} against node i's commitment in ``vk``."""
    commitment = dict(vk.commitments).get(share.node_id)
    group = vk.group
    if commitment is None or not (0 <= share.value < group.p):
        return False
    h = hash_to_field(k, group.p)
    return pow(group.g, share.value, group.q) == pow(commitment, h, group.q)


def _lagrange_at_zero(points, p: int) -> int:
    """Interpolate poly(0) from (x, y) points over GF(p)."""
    total = 0
    xs = [x for x, _ in points]
    for xi, yi in points:
        num, den = 1, 1
        for xj in xs:
            if xj != xi:
                num = num * (-xj) % p
                den = den * (xi - xj) % p
        total = (total + yi * num * pow(den, -1, p)) % p
    return total


def combine_shares(group: GroupParams, shares) -> bytes:
    """Lagrange-combine shares at 0 and hash into the 64-byte output space."""
    points = [(s.node_id, s.value) for s in shares]
    if len({x for x, _ in points}) != len(points):
        raise ContractError("duplicate node ids in share set")
    value = _lagrange_at_zero(points, group.p)
    return _hash(b"dprf", value.to_bytes((group.p.bit_length() + 7) // 8, "big"))


class SroHandle:
    """Initialized oracle state.  Making one is the trusted key-generation
    ceremony, fully determined by ``rng_seed``.  The state is immutable: its
    methods compute from the keys and their arguments alone and keep nothing.
    By uniqueness a slot's value never changes, so a caller that needs it
    again keeps it (a ``consensus.SimulationRun`` does).

    The seeded-hash secret lives in a double-underscore attribute and each
    DPRF share in its ``DprfNode``: sealed by convention, the way an enclave
    or an honest node would hold them.  Scenario code only sees reveal();
    ``verification_key`` is the public part.
    """

    def __init__(self, config: SroConfig, rng_seed: bytes):
        if len(rng_seed) != 32:
            raise ContractError("rng_seed must be exactly 32 bytes")
        self.config = config
        self._signing_keys = dict(enumerate(node_signing_keys(rng_seed, config.n)))
        if config.backend is Backend.SEEDED_HASH:
            self.__seed = _hash(b"sro-seed", rng_seed)[:32]
            self.nodes = None
            self.verification_key = VerificationKey(config.backend, config.quorum)
        else:
            field = config.test_field
            group = production_group() if field is None else small_field_group(field)
            # Shamir polynomial of degree quorum-1 with poly(0) = s; the
            # master secret is dropped once shares and commitments exist.
            coeffs = [1 + _derive_int(rng_seed, b"master", 0, group.p - 1)]
            coeffs += [
                _derive_int(rng_seed, b"coef", j, group.p) for j in range(1, config.quorum)
            ]
            self.nodes, commitments = [], []
            for i in range(1, config.n + 1):
                y = 0
                for c in reversed(coeffs):
                    y = (y * i + c) % group.p
                self.nodes.append(DprfNode(i, y, group.p))
                commitments.append((i, pow(group.g, y, group.q)))
            self.verification_key = VerificationKey(
                config.backend, config.quorum, group, tuple(commitments)
            )

    def signatures_valid(self, k: int, signatures) -> bool:
        valid_ids = set()
        for node_id, tag in signatures:
            key = self._signing_keys.get(node_id)
            if key is not None and hmac.compare_digest(tag, sign_slot(key, k)):
                valid_ids.add(node_id)
        return len(valid_ids) >= self.config.quorum

    def quorum_signatures(self, k: int) -> frozenset:
        """Signatures over k from n - f nodes (all nodes would sign an agreed slot)."""
        return frozenset(
            (i, sign_slot(self._signing_keys[i], k)) for i in range(self.config.quorum)
        )

    def _seeded_value(self, k: int) -> bytes:
        return _hash(b"reveal", self.__seed, _k_bytes(k))

    def reveal(self, req: RevealRequest) -> bytes:
        """The unique 64-byte value for slot k, or an error leaking nothing."""
        if not self.signatures_valid(req.k, req.signatures):
            raise InvalidSignatureSet(f"fewer than {self.config.quorum} valid signatures")
        if self.config.backend is Backend.SEEDED_HASH:
            return self._seeded_value(req.k)
        return combine_shares(self.verification_key.group, self._quorum_shares(req.k))

    def _quorum_shares(self, k: int) -> tuple:
        """The first n - f shares over k that pass their commitment check,
        each from the node whose id it carries; a node that raises
        ``SroError``, or replays another node's share, is skipped."""
        collected = []
        for node in self.nodes:
            try:
                share = node.produce_share(k)
            except SroError:
                continue
            if share.node_id == node.node_id and share_is_valid(self.verification_key, k, share):
                collected.append(share)
                if len(collected) == self.config.quorum:
                    return tuple(collected)
        raise InsufficientValidShares(f"{len(collected)} valid shares, need {self.config.quorum}")

    def generate_proof(self, k: int):
        """Slot k's proof: the seeded digest H("proof" || value), or the
        quorum of shares ``reveal`` combines."""
        if self.config.backend is Backend.SEEDED_HASH:
            return _hash(b"proof", self._seeded_value(k))
        return self._quorum_shares(k)


def verify(vk: VerificationKey, k: int, proof, r: bytes) -> bool:
    """True iff ``proof`` shows that r is the unique value reveal would
    return for k, checked against the handle's key ``vk`` alone: at least
    ``vk.quorum`` shares, each valid under its node's commitment."""
    try:
        if vk.backend is Backend.SEEDED_HASH:
            return hmac.compare_digest(proof, _hash(b"proof", r))
        if len(proof) < vk.quorum or not all(share_is_valid(vk, k, s) for s in proof):
            return False
        # a repeated node id makes combine_shares raise ContractError
        return hmac.compare_digest(combine_shares(vk.group, proof), r)
    except (AttributeError, TypeError, ValueError, ContractError):
        return False
