import hashlib
import itertools
import math
import pickle
from collections import Counter

import pytest

from fairorder import sro
from fairorder.cli import main
from fairorder.domain import MAX_NODES, ContractError
from fairorder.sro import (
    MAX_TEST_FIELD,
    Backend,
    DprfNode,
    InsufficientValidShares,
    InvalidSignatureSet,
    RevealRequest,
    Share,
    SroConfig,
    SroHandle,
    _is_prime,
    combine_shares,
    hash_to_field,
    node_signing_keys,
    production_group,
    share_is_valid,
    sign_slot,
    sro_init,
    small_field_group,
    verify,
)

SEED = bytes(range(32))


def handle_for(n=4, f=1, backend=Backend.SEEDED_HASH, field=None, seed=SEED):
    return sro_init(SroConfig(n=n, f=f, backend=backend, test_field=field), seed)


def reveal_k(handle, k):
    return handle.reveal(RevealRequest(k, handle.quorum_signatures(k)))


def tag_of(node, k):
    """Node ``node``'s tag over slot k, under the keys ``SEED`` derives."""
    return sign_slot(node_signing_keys(SEED, node + 1)[node], k)


def certificate(k, node_ids):
    """A (possibly partial) certificate over k from ``node_ids``."""
    return frozenset((i, tag_of(i, k)) for i in node_ids)


class TestConfig:
    def test_rejects_too_few_nodes(self):
        with pytest.raises(ContractError):
            SroConfig(n=3, f=1, backend=Backend.SEEDED_HASH)

    @pytest.mark.parametrize("backend", list(Backend))
    def test_rejects_negative_f(self, backend, capsys):
        # n - f would exceed n, a quorum larger than the node set
        with pytest.raises(ContractError, match="f must be >= 0"):
            SroConfig(n=4, f=-1, backend=backend)
        argv = ["sro-demo", "--backend", backend.value, "--n", "4", "--f", "-1"]
        if backend is Backend.THRESHOLD_DPRF:
            argv += ["--test-field", "101"]
        assert main(argv) == 3
        assert "error category=config: f must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [MAX_NODES + 1, 2**40])
    def test_rejects_more_than_max_nodes(self, n):
        # rejected before a signing key is cut for any node
        with pytest.raises(ContractError, match=f"n <= {MAX_NODES}, got n={n}"):
            SroConfig(n=n, f=0, backend=Backend.SEEDED_HASH)
        assert SroConfig(n=MAX_NODES, f=0, backend=Backend.SEEDED_HASH).quorum == MAX_NODES

    def test_sro_demo_past_the_node_bound_exits_3(self, capsys):
        assert main(["sro-demo", "--n", "1000000000", "--f", "0"]) == 3
        assert "error category=config: need 3f+1 <= n" in capsys.readouterr().err

    def test_degenerate_single_node(self):
        handle = handle_for(n=1, f=0)
        assert len(reveal_k(handle, 0)) == 64

    def test_seed_length_checked(self):
        with pytest.raises(ContractError):
            handle_for(seed=b"short")

    @pytest.mark.parametrize(
        "backend, field",
        [
            (Backend.THRESHOLD_DPRF, 0),
            (Backend.THRESHOLD_DPRF, 2),
            (Backend.THRESHOLD_DPRF, 3),
            (Backend.THRESHOLD_DPRF, 318665857834031151167461),
            (Backend.THRESHOLD_DPRF, 2**20 + 7),
            (Backend.SEEDED_HASH, 4),
            (Backend.SEEDED_HASH, 101),
        ],
    )
    def test_unusable_test_field_rejected(self, backend, field):
        # 0 must not fall back to the production group, and the seeded backend
        # has no field at all.  With p <= n two nodes share x mod p (p = 2
        # fails to combine), and node p's share is the secret (p = 3, n = 4).
        # 399165290221 * 798330580441 is composite, and the prime 2**20 + 7
        # is past MAX_TEST_FIELD.
        with pytest.raises(ContractError):
            handle_for(backend=backend, field=field)
        argv = ["sro-demo", "--backend", backend.value, "--test-field", str(field)]
        assert main(argv) == 3

    def test_primality_matches_a_sieve(self):
        sieve = bytearray([0, 0]) + bytearray([1]) * (MAX_TEST_FIELD - 2)
        for d in range(2, math.isqrt(MAX_TEST_FIELD) + 1):
            if sieve[d]:
                sieve[d * d :: d] = bytes(len(range(d * d, MAX_TEST_FIELD, d)))
        assert [n for n, prime in enumerate(sieve) if _is_prime(n) != prime] == []

    def test_duplicate_signature_node_ids(self):
        handle = handle_for()
        sig = next(iter(handle.quorum_signatures(0)))
        with pytest.raises(ContractError):
            RevealRequest(0, frozenset({sig, (sig[0], b"other")}))


class TestRevealGating:
    @pytest.mark.parametrize("backend,field", [(Backend.SEEDED_HASH, None), (Backend.THRESHOLD_DPRF, 101)])
    def test_quorum_minus_one_rejected(self, backend, field):
        handle = handle_for(backend=backend, field=field)
        short = certificate(3, range(handle.config.quorum - 1))
        with pytest.raises(InvalidSignatureSet):
            handle.reveal(RevealRequest(3, short))

    def test_garbage_signatures_rejected(self):
        handle = handle_for()
        fake = frozenset((i, b"\x00" * 32) for i in range(4))
        with pytest.raises(InvalidSignatureSet):
            handle.reveal(RevealRequest(5, fake))

    def test_signatures_for_other_slot_rejected(self):
        handle = handle_for()
        with pytest.raises(InvalidSignatureSet):
            handle.reveal(RevealRequest(6, handle.quorum_signatures(7)))

    @pytest.mark.parametrize("backend,field", [(Backend.SEEDED_HASH, None), (Backend.THRESHOLD_DPRF, 101)])
    def test_any_valid_quorum_same_value(self, backend, field):
        handle = handle_for(backend=backend, field=field)
        values = set()
        for ids in itertools.combinations(range(4), 3):
            values.add(handle.reveal(RevealRequest(9, certificate(9, ids))))
        assert len(values) == 1


def forged(handle, k, node, tag):
    """The full certificate over k with ``node``'s tag replaced by ``tag``."""
    good = handle.quorum_signatures(k)
    return frozenset((i, tag if i == node else t) for i, t in good)


class TestTags:
    # Each certificate below has n - f = 3 signers, one with a bad tag, so
    # only 2 of its tags are valid.
    def test_tag_under_another_nodes_key_rejected(self):
        handle = handle_for()
        other = tag_of(3, 5)
        assert not handle.signatures_valid(5, forged(handle, 5, 0, other))

    def test_tag_over_another_slot_rejected(self):
        handle = handle_for()
        other = tag_of(0, 6)
        assert not handle.signatures_valid(5, forged(handle, 5, 0, other))

    def test_truncated_tag_rejected(self):
        handle = handle_for()
        tag = tag_of(0, 5)
        for cut in (tag[:-1], tag[:16], b""):
            assert not handle.signatures_valid(5, forged(handle, 5, 0, cut))
        assert handle.signatures_valid(5, forged(handle, 5, 0, tag))


class TestSigningKeys:
    @pytest.mark.parametrize("n, f", [(1, 0), (4, 1), (80, 26)])
    def test_handle_signs_with_the_derived_keys(self, n, f):
        keys = node_signing_keys(SEED, n)
        assert len(set(keys)) == n and {len(key) for key in keys} == {32}
        handle = handle_for(n=n, f=f)
        assert handle.quorum_signatures(7) == frozenset(
            (i, sign_slot(keys[i], 7)) for i in range(n - f)
        )
        assert handle.signatures_valid(7, frozenset(
            (i, sign_slot(key, 7)) for i, key in enumerate(keys)
        ))

    @pytest.mark.parametrize("n", [0, 1, 4, 79])
    def test_keys_are_one_shake256_output(self, n):
        keys = node_signing_keys(SEED, n)
        assert b"".join(keys) == hashlib.shake_256(b"sig-key" + SEED).digest(32 * n)
        assert keys == node_signing_keys(SEED, n + 1)[:n]

    @pytest.mark.parametrize("backend,field", [(Backend.SEEDED_HASH, None), (Backend.THRESHOLD_DPRF, 101)])
    def test_certificate_under_another_seeds_keys_rejected(self, backend, field):
        other = bytes(31) + b"\x01"
        handle = handle_for(backend=backend, field=field)
        with pytest.raises(InvalidSignatureSet):
            handle.reveal(RevealRequest(5, handle_for(seed=other).quorum_signatures(5)))
        everyone = frozenset(
            (i, sign_slot(key, 5)) for i, key in enumerate(node_signing_keys(other, 4))
        )
        assert not handle.signatures_valid(5, everyone)


# The seeded backend's value and proof digest at SEED: what every CSV's
# tie keys and noise rest on.  Node tags are not part of either.
SEEDED_PINS = {
    0: (
        "054944a6dc41ac0a069c8f246b1b363e96b6f0c0c75039b4055694ac777fb5df"
        "7dd63e1624da0e4e257c478a7d8f926aaf852898876f5236b72720c0e0ea343b",
        "ccb6d7bafb20642be0f334427faf0e48a684b90f572e239cd597a9dd7a01e03c"
        "8e1d67c1d91689ad162a35ffdf4c35b6150ba9d5bef8e48e2d942fe847494956",
    ),
    1: (
        "b3768dddeb8e9521b511330602cb37d72bdc116e2b1fb9d6f0737fe6580f8d11"
        "5ac7c6dbafcefe316dd3150c9dabf4b95bd4ac47f14fad53630194dc9ae21597",
        "9563ada19cff4964d16dac30619695ab433f035878967d01461c7e9384d70031"
        "7ed111db6fec48a1174df9ce202362cf18a2984465af5f145410c0371a9a92a8",
    ),
    2**64 - 1: (
        "ad6704cf76c941884c6a2f1e07963edcb5eb55e282cadcefe0a4be920d8efb8b"
        "c802e24bdbed065bd7a53693b26fb6a604a09cbaeecec4f086141d26c67de946",
        "f9c4c9813aa95b7080d0bea5c0b4b5a2ee329f3cde2978266568700f0da1bf72"
        "e6bebf72cf4efcac349b9271856f6632579c159217743aab0158a1b389eaa521",
    ),
}


@pytest.mark.parametrize("k", sorted(SEEDED_PINS))
def test_seeded_reveal_and_proof_are_pinned(k):
    value, digest = SEEDED_PINS[k]
    handle = handle_for()
    assert reveal_k(handle, k).hex() == value
    assert handle.generate_proof(k).hex() == digest


class TestCertificateMemo:
    @pytest.mark.parametrize("backend,field", [(Backend.SEEDED_HASH, None), (Backend.THRESHOLD_DPRF, 101)])
    def test_flipped_tag_rejected_after_reveal(self, backend, field):
        handle = handle_for(backend=backend, field=field)
        good = handle.quorum_signatures(5)
        handle.reveal(RevealRequest(5, good))
        node, tag = min(good)
        flipped = (good - {(node, tag)}) | {(node, bytes([tag[0] ^ 1]) + tag[1:])}
        with pytest.raises(InvalidSignatureSet):
            handle.reveal(RevealRequest(5, flipped))
        assert not handle.signatures_valid(5, list(flipped))
        assert not handle.signatures_valid(6, good)
        assert handle.signatures_valid(5, list(good))

    def test_threshold_reveals_and_verifies(self):
        handle = handle_for(backend=Backend.THRESHOLD_DPRF, field=101)
        for k in range(3):
            value = reveal_k(handle, k)
            assert verify(handle.verification_key, k, handle.generate_proof(k), value)
            assert reveal_k(handle, k) == value


class TestStateless:
    @pytest.mark.parametrize("backend,field", [(Backend.SEEDED_HASH, None), (Backend.THRESHOLD_DPRF, 101)])
    def test_calls_leave_the_handle_unchanged(self, backend, field):
        # the handle keeps no memo: its state after init, down to each
        # node's, pickles to the same bytes after every public call
        handle = handle_for(backend=backend, field=field)
        before = pickle.dumps(vars(handle))
        for k in (0, 5, 5):
            value = reveal_k(handle, k)
            assert verify(handle.verification_key, k, handle.generate_proof(k), value)
            assert handle.signatures_valid(k, handle.quorum_signatures(k))
            assert pickle.dumps(vars(handle)) == before


class TestDeterminism:
    def test_same_seed_same_outputs(self):
        a, b = handle_for(), handle_for()
        for k in range(5):
            assert reveal_k(a, k) == reveal_k(b, k)

    def test_repeated_reveal_identical(self):
        handle = handle_for(backend=Backend.THRESHOLD_DPRF, field=101)
        assert reveal_k(handle, 7) == reveal_k(handle, 7)

    def test_hundred_seed_pairs_no_collision(self):
        seen = set()
        for i in range(100):
            handle = handle_for(seed=bytes([i]) + SEED[1:])
            seen.add(reveal_k(handle, 0))
        assert len(seen) == 100


class LyingNode:
    """A node whose share is off by one in the field of order 101."""

    def __init__(self, inner):
        self.inner = inner
        self.node_id = inner.node_id

    def produce_share(self, k):
        good = self.inner.produce_share(k)
        return Share(good.node_id, (good.value + 1) % 101)


class ReplayingNode:
    """A node that returns another node's valid share as its own."""

    def __init__(self, node_id, replayed):
        self.node_id = node_id
        self.replayed = replayed

    def produce_share(self, k):
        return self.replayed.produce_share(k)


class SilentNode:
    def __init__(self, node_id):
        self.node_id = node_id

    def produce_share(self, k):
        raise InvalidSignatureSet("byzantine silence")


class TestThresholdDprf:
    def test_subset_combinations_agree_small_field(self):
        handle = handle_for(n=4, f=1, backend=Backend.THRESHOLD_DPRF, field=101)
        shares = [node.produce_share(2) for node in handle.nodes]
        a = combine_shares(handle.verification_key.group, [shares[0], shares[1], shares[2]])
        b = combine_shares(handle.verification_key.group, [shares[1], shares[2], shares[3]])
        assert a == b == reveal_k(handle, 2)

    def test_exhaustive_quorum_subsets_n7(self):
        handle = handle_for(n=7, f=2, backend=Backend.THRESHOLD_DPRF, field=53)
        shares = [node.produce_share(11) for node in handle.nodes]
        expected = reveal_k(handle, 11)
        for subset in itertools.combinations(shares, handle.config.quorum):
            assert combine_shares(handle.verification_key.group, subset) == expected

    def test_short_certificate_asks_no_node_for_a_share(self, monkeypatch):
        asked = []
        monkeypatch.setattr(DprfNode, "produce_share", lambda node, k: asked.append(node.node_id))
        handle = handle_for(backend=Backend.THRESHOLD_DPRF, field=101)
        short = certificate(1, range(handle.config.quorum - 1))
        with pytest.raises(InvalidSignatureSet):
            handle.reveal(RevealRequest(1, short))
        assert asked == []

    @pytest.mark.parametrize("n, f, p, tags", [(4, 1, 101, 6), (7, 2, 53, 10)])
    def test_one_certificate_check_per_reveal(self, monkeypatch, n, f, p, tags):
        # a reveal makes and checks one certificate of n - f tags; a proof
        # makes and checks none
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(
            SroHandle, "signatures_valid", counting("check", SroHandle.signatures_valid)
        )
        monkeypatch.setattr(sro, "sign_slot", counting("tag", sro.sign_slot))
        handle = handle_for(n=n, f=f, backend=Backend.THRESHOLD_DPRF, field=p)
        reveal_k(handle, 3)
        assert calls == {"check": 1, "tag": tags}
        calls.clear()
        handle.generate_proof(3)
        assert calls == {}

    def test_share_against_wrong_commitment_fails(self):
        handle = handle_for(backend=Backend.THRESHOLD_DPRF, field=101)
        share1 = handle.nodes[0].produce_share(4)
        crossed = Share(node_id=2, value=share1.value)
        assert not share_is_valid(handle.verification_key, 4, crossed)

    def test_single_share_tamper_detected(self):
        handle = handle_for(backend=Backend.THRESHOLD_DPRF, field=53)
        for node in handle.nodes[: handle.config.quorum]:
            share = node.produce_share(8)
            assert share_is_valid(handle.verification_key, 8, share)
            p = handle.verification_key.group.p
            for delta in range(1, p):
                bad = Share(share.node_id, (share.value + delta) % p)
                assert not share_is_valid(handle.verification_key, 8, bad)
            for bit in range(p.bit_length() + 1):
                flipped = share.value ^ (1 << bit)
                if flipped == share.value:
                    continue
                bad = Share(share.node_id, flipped)
                assert not share_is_valid(handle.verification_key, 8, bad)

    def test_byzantine_majority_of_shares_blocks_reveal(self):
        handle = handle_for(n=4, f=1, backend=Backend.THRESHOLD_DPRF, field=101)
        handle.nodes[0] = LyingNode(handle.nodes[0])
        handle.nodes[1] = LyingNode(handle.nodes[1])
        with pytest.raises(InsufficientValidShares):
            reveal_k(handle, 3)

    def test_one_byzantine_share_tolerated(self):
        handle = handle_for(n=4, f=1, backend=Backend.THRESHOLD_DPRF, field=101)
        clean = reveal_k(handle, 12)
        broken = handle_for(n=4, f=1, backend=Backend.THRESHOLD_DPRF, field=101)
        broken.nodes[0] = SilentNode(1)
        assert reveal_k(broken, 12) == clean

    @pytest.mark.parametrize("faulty", [
        lambda nodes: LyingNode(nodes[0]),
        lambda nodes: SilentNode(nodes[0].node_id),
        # node 0 answers with node 1's share: a quorum that counted both
        # would hold node 1's id twice and fail to combine
        lambda nodes: ReplayingNode(nodes[0].node_id, nodes[1]),
    ], ids=["lying", "silent", "replaying"])
    def test_proof_with_one_faulty_node_verifies(self, faulty):
        handle = handle_for(n=4, f=1, backend=Backend.THRESHOLD_DPRF, field=101)
        clean = reveal_k(handle, 12)
        handle.nodes[0] = faulty(handle.nodes)
        value = reveal_k(handle, 12)
        assert value == clean
        assert verify(handle.verification_key, 12, handle.generate_proof(12), value)

    def test_secrecy_exhaustive_enumeration(self):
        # Conditioning on f = 1 share leaves every value of poly(0) equally
        # likely: enumerate all degree-(quorum-1) polynomials consistent with
        # the observed share and tally the secret they would imply.
        for p in (11, 101):
            handle = handle_for(n=4, f=1, backend=Backend.THRESHOLD_DPRF, field=p)
            observed = handle.nodes[0].produce_share(0)  # node_id 1
            counts = {v: 0 for v in range(p)}
            for c1 in range(p):
                for c2 in range(p):
                    # poly(1) = c0 + c1 + c2  =>  c0 determined by the share
                    c0 = (observed.value - c1 - c2) % p
                    counts[c0] += 1
            assert set(counts.values()) == {p}

    def test_production_group_large_field(self):
        group = production_group()
        assert group.p.bit_length() >= 128
        assert pow(group.g, group.p, group.q) == 1
        handle = handle_for(backend=Backend.THRESHOLD_DPRF)
        value = reveal_k(handle, 0)
        assert len(value) == 64
        assert verify(handle.verification_key, 0, handle.generate_proof(0), value)

    def test_test_group_construction(self):
        for p in (11, 53, 101):
            group = small_field_group(p)
            assert pow(group.g, group.p, group.q) == 1
            assert group.g != 1
        with pytest.raises(ContractError):
            small_field_group(100)

    def test_hash_to_field_nonzero(self):
        for k in range(200):
            assert 1 <= hash_to_field(k, 101) <= 100


class TestValidity:
    @pytest.mark.parametrize("backend,field", [(Backend.SEEDED_HASH, None), (Backend.THRESHOLD_DPRF, 101)])
    def test_proof_verifies_and_tamper_fails(self, backend, field):
        handle = handle_for(backend=backend, field=field)
        value = reveal_k(handle, 42)
        proof = handle.generate_proof(42)
        assert verify(handle.verification_key, 42, proof, value)
        tampered = bytes([value[0] ^ 1]) + value[1:]
        assert not verify(handle.verification_key, 42, proof, tampered)

    def test_seeded_proof_tamper_fails(self):
        handle = handle_for()
        value = reveal_k(handle, 1)
        proof = handle.generate_proof(1)
        bad = bytes([proof[0] ^ 1]) + proof[1:]
        assert not verify(handle.verification_key, 1, bad, value)

    def test_malformed_proof_returns_false(self):
        handle = handle_for(backend=Backend.THRESHOLD_DPRF, field=101)
        vk = handle.verification_key
        value = reveal_k(handle, 2)
        s1, s2, _ = handle.generate_proof(2)
        for malformed in ((), None, (s1, s1, s2)):
            assert not verify(vk, 2, malformed, value)

    def test_self_made_degree_0_shares_rejected(self):
        # shares of an attacker's constant polynomial c match no registered
        # commitment: alone, or as a full quorum that combines to its own r
        handle = handle_for(backend=Backend.THRESHOLD_DPRF, field=101)
        vk = handle.verification_key
        c_h = 7 * hash_to_field(2, 101) % 101
        for count in (1, vk.quorum):
            shares = tuple(Share(i, c_h) for i in range(1, count + 1))
            r = combine_shares(vk.group, shares)
            assert r != reveal_k(handle, 2)
            assert not verify(vk, 2, shares, r)

    def test_too_few_genuine_shares_rejected(self):
        # quorum - 1 valid shares interpolate a lower-degree polynomial, so
        # they vouch for another value unless their number is checked
        handle = handle_for(backend=Backend.THRESHOLD_DPRF, field=101)
        vk = handle.verification_key
        short = handle.generate_proof(2)[: vk.quorum - 1]
        assert all(share_is_valid(vk, 2, share) for share in short)
        r = combine_shares(vk.group, short)
        assert r != reveal_k(handle, 2)
        assert not verify(vk, 2, short, r)

    def test_genuine_proof_under_another_seeds_key_rejected(self):
        handle = handle_for(backend=Backend.THRESHOLD_DPRF, field=101)
        other = handle_for(backend=Backend.THRESHOLD_DPRF, field=101, seed=bytes(31) + b"\x01")
        value = reveal_k(handle, 2)
        proof = handle.generate_proof(2)
        assert verify(handle.verification_key, 2, proof, value)
        assert not verify(other.verification_key, 2, proof, value)

    def test_genuine_proof_under_the_other_backends_key_rejected(self):
        seeded = handle_for()
        threshold = handle_for(backend=Backend.THRESHOLD_DPRF, field=101)
        for handle, other in ((seeded, threshold), (threshold, seeded)):
            value = reveal_k(handle, 2)
            proof = handle.generate_proof(2)
            assert verify(handle.verification_key, 2, proof, value)
            assert not verify(other.verification_key, 2, proof, value)


class TestRandomness:
    def test_chi_square_uniform_bytes(self):
        from scipy import stats

        handle = handle_for()
        counts = [0] * 256
        for k in range(2000):
            for byte in reveal_k(handle, k):
                counts[byte] += 1
        _, pvalue = stats.chisquare(counts)
        assert pvalue > 0.001
